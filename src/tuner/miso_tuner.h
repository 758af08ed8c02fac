#ifndef MISO_TUNER_MISO_TUNER_H_
#define MISO_TUNER_MISO_TUNER_H_

#include <vector>

#include "common/result.h"
#include "optimizer/multistore_optimizer.h"
#include "optimizer/whatif_cache.h"
#include "tuner/benefit.h"
#include "tuner/interaction.h"
#include "tuner/reorg_plan.h"
#include "tuner/sparsify.h"
#include "views/view_catalog.h"

namespace miso::tuner {

/// Parameters of the MISO tuner (paper §4 and §5.1 defaults).
struct MisoTunerConfig {
  /// View storage budgets Bh / Bd and per-reorganization transfer budget
  /// Bt, in bytes.
  Bytes hv_storage_budget = 0;
  Bytes dw_storage_budget = 0;
  Bytes transfer_budget = 0;

  /// Knapsack budget discretization d (complexity O(|V| * Bt/d * Bd/d +
  /// |V| * Bt/d * Bh/d), §4.4.2).
  Bytes discretization = kGiB;

  /// Predicted-future-benefit window: epoch length in queries and decay
  /// applied per epoch of age (§5.1 uses history 6, epoch 3).
  int epoch_length = 3;
  double benefit_decay = 0.6;

  InteractionConfig interaction;

  /// When true (default), the DW knapsack values items by their benefit
  /// with the members placed in DW, and the HV knapsack by their benefit
  /// in HV. When false, both phases use the paper-literal benefit "added
  /// to both stores". Ablated in bench_ablation_tuner.
  bool store_specific_benefit = true;

  /// When true (default, per §4.4), sparsification merges/prunes
  /// interacting views first. Disabled for ablation (every view becomes
  /// its own item and interactions are ignored).
  bool handle_interactions = true;

  /// When true (default), views that the knapsacks did not select are
  /// retained in their current store while free capacity remains there
  /// (most recently created first) instead of being dropped. Dropping a
  /// view that still fits buys nothing, and a view whose creator query
  /// just rotated out of the short history window would otherwise be
  /// evicted right before its next version arrives. Under budget pressure
  /// behavior is identical to paper-literal Algorithm 1 (unselected views
  /// are evicted). Disabled for ablation.
  bool retain_unselected_views = true;
};

/// The MISO tuner (Algorithm 1): computes a new multistore design from the
/// current designs of both stores and the recent workload window.
///
///   1. pool candidates V = Vh ∪ Vd;
///   2. over the candidates relevant to some window query, compute
///      decayed what-if benefits, pairwise interactions, the stable
///      partition, and sparsify into independent items (an irrelevant
///      candidate could only become a never-packed benefit-0 item);
///   3. pack the DW M-KNAPSACK (dims Bd x Bt; HV-resident items consume
///      transfer budget, DW-resident ones do not);
///   4. pack the HV M-KNAPSACK with the remaining transfer budget (dims
///      Bh x Bt_rem; items evicted from DW consume transfer);
///   5. emit the reorganization plan. Vh_new and Vd_new are disjoint.
class MisoTuner {
 public:
  MisoTuner(const optimizer::MultistoreOptimizer* optimizer,
            const MisoTunerConfig& config)
      : optimizer_(optimizer), config_(config) {}

  const MisoTunerConfig& config() const { return config_; }

  /// Installs (or clears, with nullptr) a shared what-if cost cache. The
  /// cache is borrowed, not owned, and persists across Tune calls — that
  /// persistence is the point: successive reorganizations share most of
  /// their window and candidate pool, so a warm cache answers most probes
  /// without touching the optimizer. The caller is responsible for
  /// `SetEpoch` whenever any cost-model knob changes. Caching never
  /// changes a Tune result, only its latency.
  void set_whatif_cache(optimizer::WhatIfCache* cache) { cache_ = cache; }
  optimizer::WhatIfCache* whatif_cache() const { return cache_; }

  /// Computes the reorganization for the given current designs and
  /// workload window (ordered oldest -> newest).
  Result<ReorgPlan> Tune(const views::ViewCatalog& hv,
                         const views::ViewCatalog& dw,
                         const std::vector<plan::Plan>& window) const;

 private:
  const optimizer::MultistoreOptimizer* optimizer_;
  MisoTunerConfig config_;
  optimizer::WhatIfCache* cache_ = nullptr;
  /// Variant-total memo threaded through every Tune's benefit analyzer.
  /// Unlike the WhatIfCache (keyed per whole probe, epoch-invalidated by
  /// the caller), these entries are keyed by the structural content of
  /// rewritten plan variants and depend only on the optimizer's immutable
  /// cost models — fixed for this tuner's lifetime — so persistence across
  /// Tune calls needs no invalidation and is exact: successive
  /// reorganizations share most of their window and candidate pool, hence
  /// most of their rewrite variants. Mutable because Tune is logically
  /// const (the memo changes only latency, never a result).
  mutable optimizer::WhatIfSession session_;
};

}  // namespace miso::tuner

#endif  // MISO_TUNER_MISO_TUNER_H_
