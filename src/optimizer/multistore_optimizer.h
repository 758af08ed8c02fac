#ifndef MISO_OPTIMIZER_MULTISTORE_OPTIMIZER_H_
#define MISO_OPTIMIZER_MULTISTORE_OPTIMIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "dw/dw_cost_model.h"
#include "hv/hv_cost_model.h"
#include "optimizer/multistore_plan.h"
#include "optimizer/split_enumerator.h"
#include "transfer/transfer_model.h"
#include "views/rewriter.h"
#include "views/view_catalog.h"

namespace miso::optimizer {

/// Per-call planning context. `dw_available = false` models a DW outage:
/// the optimizer degrades gracefully, re-planning the query as the best
/// HV-only split (HV views still usable) instead of erroring — queries
/// keep completing, just slower, and the degradation shows up in the
/// per-query cost anatomy rather than as a failure.
struct OptimizeOptions {
  bool dw_available = true;
};

/// Two-level memo shared by what-if probes, owned by the prober (the
/// tuner keeps one for its lifetime; a standalone `BenefitAnalyzer` keeps
/// a private one). Both levels are pure content-keyed memos, so entries
/// never need invalidation while the optimizer (and hence its cost
/// models) stays fixed:
///
///  1. *Probe* level — the probe's answer keyed by (query structure, DW
///     catalog content fingerprint, HV catalog content fingerprint). A
///     repeat probe skips everything, including the rewrites. Distinct
///     probes within one cold tuning pass rarely repeat (the analyzer's
///     own layers already dedup those), but successive reorganizations
///     re-probe mostly the same (query, candidate-set) combinations.
///  2. *Variant* level — best-split totals keyed by a structural hash of
///     each *rewritten* plan variant. Probes with different probe keys
///     still share most of their rewrite variants — the bare query recurs
///     in every probe of that query, and a single-store rewrite recurs
///     across every placement that splices the same views into the same
///     positions — so this level retires the bulk of a cold pass's
///     enumeration and costing work.
///
/// Exactness: a best-split total is a pure function of the variant's tree
/// (immutable nodes, const cost models), and the structural hash covers
/// every field the enumerator and the cost models read (kind, per-node
/// canonical signature, stats, DW-executability, ViewScan store/content,
/// UDF and filter cost parameters); the probe key adds the same
/// content-identity contract as `WhatIfCache::Fingerprint` (equal catalog
/// contents rewrite and cost identically).
///
/// Threading: safe for concurrent probes (the tuner's `Prewarm` fan-out).
/// A variant-level miss holds the lock across the solve, so each variant
/// is solved exactly once per session regardless of `MISO_THREADS` —
/// keeping the optimizer's split/candidate counters deterministic — at
/// the price of serializing concurrent misses. Probe-level entries are
/// only written after the answer is complete; concurrent same-key probes
/// are already deduped by the analyzer's job dedup.
class WhatIfSession {
 public:
  WhatIfSession() = default;
  WhatIfSession(const WhatIfSession&) = delete;
  WhatIfSession& operator=(const WhatIfSession&) = delete;

 private:
  friend class MultistoreOptimizer;
  friend class WhatIfSessionTestPeer;  // test-only: poisons memo entries

  /// Memo size bound for long-lived (tuner-lifetime) sessions; reaching it
  /// resets the memo (always safe — entries are pure recomputables). One
  /// tuning pass creates a few hundred distinct variants, so the bound
  /// spans many reorganizations while capping memory at a few MiB.
  static constexpr std::size_t kMaxEntries = 1 << 16;

  Mutex mu_;
  std::unordered_map<uint64_t, Result<Seconds>> probe_totals_
      MISO_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, Result<Seconds>> best_split_totals_
      MISO_GUARDED_BY(mu_);
};

/// The multistore query optimizer (paper §3.1). Given a query and the
/// current (or hypothetical) multistore design, it:
///
///  1. generates candidate rewrites — using both stores' views (DW
///     preferred), DW views only, HV views only, and no views (the rewrite
///     with DW views may admit no feasible split when a DW view sits below
///     an HV-only UDF, hence the fallbacks);
///  2. enumerates the feasible splits of each rewrite;
///  3. costs every (rewrite, split) pair with the store cost models plus
///     the transfer model, in common units (seconds);
///  4. returns the cheapest.
///
/// The same code path serves as the what-if optimizer: pass hypothetical
/// view catalogs to cost a design without materializing it (§3.1's
/// "what-if mode").
///
/// Candidate evaluation (step 3) optionally fans out over a `ThreadPool`
/// (`set_thread_pool`): every (rewrite, split) pair costs independently
/// against the immutable plan nodes and const cost models, each result
/// lands in its own slot, and the winner is reduced serially in candidate
/// order with the same strict-< comparison as the serial loop — so the
/// chosen plan and its costs are bit-identical for every thread count.
class MultistoreOptimizer {
 public:
  MultistoreOptimizer(const plan::NodeFactory* factory,
                      const hv::HvCostModel* hv_model,
                      const dw::DwCostModel* dw_model,
                      const transfer::TransferModel* transfer_model)
      : rewriter_(factory),
        hv_model_(hv_model),
        dw_model_(dw_model),
        transfer_model_(transfer_model) {}

  /// Best multistore plan for `query` under the design (dw_views,
  /// hv_views).
  Result<MultistorePlan> Optimize(const plan::Plan& query,
                                  const views::ViewCatalog& dw_views,
                                  const views::ViewCatalog& hv_views) const;

  /// As above, under explicit planning context (e.g. DW outage).
  Result<MultistorePlan> Optimize(const plan::Plan& query,
                                  const views::ViewCatalog& dw_views,
                                  const views::ViewCatalog& hv_views,
                                  const OptimizeOptions& options) const;

  /// Best HV-confined plan (no split). `use_views` selects whether HV
  /// views may be used (HV-OP variant) or not (plain HV-ONLY).
  Result<MultistorePlan> OptimizeHvOnly(const plan::Plan& query,
                                        const views::ViewCatalog& hv_views,
                                        bool use_views) const;

  /// Every feasible (rewrite-free) split of `query`, costed — the plan
  /// population behind Figure 3.
  Result<std::vector<MultistorePlan>> EnumerateAllPlans(
      const plan::Plan& query) const;

  /// What-if interface: total cost of the best plan under a hypothetical
  /// design (paper: cost(q, M)), answered through `session`'s memos. It
  /// equals `Optimize(query, dw_views, hv_views)->cost.Total()`; the memo
  /// only saves work. Verification also makes that `Optimize` call and
  /// fails the probe with V130 unless value and ok-ness match exactly.
  Result<Seconds> WhatIfCost(const plan::Plan& query,
                             const views::ViewCatalog& dw_views,
                             const views::ViewCatalog& hv_views,
                             WhatIfSession& session) const;

  /// Installs (or clears, with nullptr) the pool used to cost candidate
  /// splits concurrently. The pool is borrowed, not owned; it must
  /// outlive every Optimize/WhatIfCost call.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

 private:
  /// Memo of HV-side subtree costs shared by the candidates of one
  /// enumeration: the same cut subtree heads the HV side of many splits,
  /// and its cost is a pure function of the immutable subtree.
  using HvSubtreeCosts =
      std::unordered_map<const plan::OperatorNode*, Result<Seconds>>;

  /// Enumerates and costs all splits of `executed`, returning the
  /// cheapest; error when no feasible split exists.
  Result<MultistorePlan> BestSplit(const plan::Plan& executed) const;

  /// Every split of `executed`, costed into its own slot in enumeration
  /// order for any thread count; with `verify_each`, each plan verified.
  Result<std::vector<Result<MultistorePlan>>> CostAllSplits(
      const plan::Plan& executed, bool verify_each) const;

  /// Costs one concrete (rewritten plan, split) pair, reading HV subtree
  /// costs from `hv_costs` when given instead of re-walking them.
  Result<MultistorePlan> CostSplit(const plan::Plan& executed,
                                   const SplitCandidate& split,
                                   const HvSubtreeCosts* hv_costs) const;

  /// The rewrite variants of `query`, strongest first — both stores'
  /// views, DW views only, HV views only, none — without those provably
  /// equal to an earlier one (DESIGN.md §15.4). The order is the
  /// tie-break order of every caller's strict-< reduce.
  Result<std::vector<plan::Plan>> RewriteVariants(
      const plan::Plan& query, const views::ViewCatalog& dw_views,
      const views::ViewCatalog& hv_views) const;

  /// `WhatIfCost`'s answer through the probe memo, then the variant memo.
  Result<Seconds> SessionWhatIfCost(const plan::Plan& query,
                                    const views::ViewCatalog& dw_views,
                                    const views::ViewCatalog& hv_views,
                                    WhatIfSession& session) const;

  /// Best-split total of one rewrite variant through `session`'s memo
  /// (exactly-once per structural key).
  Result<Seconds> SessionBestSplitTotal(const plan::Plan& executed,
                                        WhatIfSession& session) const;

  views::Rewriter rewriter_;
  const hv::HvCostModel* hv_model_;
  const dw::DwCostModel* dw_model_;
  const transfer::TransferModel* transfer_model_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace miso::optimizer

#endif  // MISO_OPTIMIZER_MULTISTORE_OPTIMIZER_H_
