// The layer replay of the traced run (see layer_replay.cc).

#ifndef MISO_PERFBENCH_LAYER_REPLAY_H_
#define MISO_PERFBENCH_LAYER_REPLAY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "perfbench.h"

namespace miso::perfbench {

/// Spans and work counts of layer-replay replays. Spans and counts
/// accumulate over replays; `reorgs` and `tti_s` describe the latest one.
/// Span series (µs):
/// views.catalog_copy, views.fingerprint, server.plan_cache_lookup,
/// server.plan_cache_insert, optimizer.optimize, hv.execute, tuner.tune,
/// tuner.benefit, tuner.interaction, tuner.sparsify, tuner.knapsack_dw,
/// tuner.knapsack_hv, tuner.apply.
struct ReplayStats {
  SpanLog spans;
  int64_t sessions = 0;
  int64_t optimize_calls = 0;
  int64_t candidates_costed = 0;
  int64_t splits_enumerated = 0;
  int64_t views_harvested = 0;
  int64_t tunes = 0;
  int64_t whatif_probes = 0;
  int64_t whatif_hits = 0;
  int64_t whatif_misses = 0;
  int64_t candidates = 0;
  int64_t items = 0;
  int64_t knapsack_solves = 0;
  int64_t knapsack_dense = 0;
  int64_t chain_mismatches = 0;
  /// Design after every reorganization (ids left empty).
  std::vector<sim::SimConfig::ReorgSnapshot> reorgs;
  Seconds tti_s = 0;
};

/// Replays `stream` through a bench-built MS-MISO engine stack (faults
/// off), accumulating into `stats`. `wave_size` sets where the server's
/// per-wave catalog snapshot and key fingerprint are taken.
Status RunLayerReplay(const relation::Catalog* catalog,
                      const sim::SimConfig& cfg, int wave_size,
                      const std::vector<workload::WorkloadQuery>& stream,
                      ReplayStats* stats);

/// Runs the simulator on the same stream and checks the replay reached the
/// same hv_used / dw_used / moved bytes at every reorganization and the
/// same TTI, and that the tuner chain reproduced every Tune plan.
Status CheckReplayFidelity(const relation::Catalog* catalog,
                           const sim::SimConfig& cfg,
                           const std::vector<workload::WorkloadQuery>& stream,
                           const ReplayStats& stats);

}  // namespace miso::perfbench

#endif  // MISO_PERFBENCH_LAYER_REPLAY_H_
