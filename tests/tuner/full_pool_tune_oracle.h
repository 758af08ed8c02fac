#ifndef MISO_TESTS_TUNER_FULL_POOL_TUNE_ORACLE_H_
#define MISO_TESTS_TUNER_FULL_POOL_TUNE_ORACLE_H_

#include <vector>

#include "common/result.h"
#include "optimizer/multistore_optimizer.h"
#include "plan/plan.h"
#include "tuner/miso_tuner.h"
#include "tuner/reorg_plan.h"
#include "views/view_catalog.h"

namespace miso::tuner {

/// Reference oracle for `MisoTuner::Tune`: Algorithm 1 with the public
/// components (`ComputeInteractions`, `StablePartition`, `SparsifySets`,
/// `SolveMKnapsack`) run over the *full* candidate pool Vh ∪ Vd, every
/// view copied out and valued whether or not a window query can use it.
/// The production tuner skips the candidates no window query is relevant
/// to; this oracle pins it to the full-pool plan, movement for movement
/// and in order.
///
/// Values through a fresh benefit analyzer with no what-if cache.
/// `session`, when given, is a caller-owned variant memo that successive
/// calls share (null = a private one); like the cache it changes only
/// latency, never a result. No telemetry, no verifiers.
Result<ReorgPlan> FullPoolTune(const optimizer::MultistoreOptimizer* optimizer,
                               const MisoTunerConfig& config,
                               const views::ViewCatalog& hv,
                               const views::ViewCatalog& dw,
                               const std::vector<plan::Plan>& window,
                               optimizer::WhatIfSession* session = nullptr);

}  // namespace miso::tuner

#endif  // MISO_TESTS_TUNER_FULL_POOL_TUNE_ORACLE_H_
