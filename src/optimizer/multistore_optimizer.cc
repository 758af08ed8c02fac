#include "optimizer/multistore_optimizer.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>

#include "common/hash.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "verify/error_codes.h"
#include "verify/plan_verifier.h"
#include "verify/verify_gate.h"

namespace miso::optimizer {

using plan::NodePtr;
using plan::OpKind;

namespace {

/// Depth of what-if probing on this thread. The tuner's benefit analyzer
/// costs thousands of hypothetical designs per reorg through the very
/// same `Optimize` path as real queries; without this guard every probe
/// would emit an `optimizer.plan_choice` trace line and drown the
/// decisions the trace exists to explain. Counters still count probes —
/// their totals are deterministic either way.
thread_local int t_whatif_depth = 0;

struct WhatIfScope {
  WhatIfScope() { ++t_whatif_depth; }
  ~WhatIfScope() { --t_whatif_depth; }
};

/// Batch size for parallel candidate costing. One `CostSplit` is a few
/// microseconds of tree-walking — far below the cost of scheduling a pool
/// task — so candidates are costed in batches: a typical query's whole
/// candidate list (tens of splits) runs inline, and only genuinely large
/// enumerations fan out. docs/PERFORMANCE.md records the calibration.
constexpr ParallelForOptions kCostingBatch{/*grain=*/16};

/// Structural identity of a (possibly rewritten) plan tree for the
/// `WhatIfSession` memo. Covers, per node, every field the split
/// enumerator and the cost models read — operator kind, the canonical
/// subexpression signature, output stats, DW-executability, the ViewScan
/// content signature and store, UDF cost parameters, and the filter
/// selectivity the DW index-pruning rule applies — recursively over the
/// children in order. Two trees with equal hashes therefore cost
/// identically in every split, so a memoized best-split total transfers
/// exactly (modulo 64-bit collisions, the `WhatIfCache::Fingerprint`
/// contract this repo already relies on).
uint64_t StructuralPlanHash(const NodePtr& node) {
  uint64_t h = HashCombine(static_cast<uint64_t>(node->kind()),
                           node->signature());
  h = HashCombine(h, static_cast<uint64_t>(node->stats().rows));
  h = HashCombine(h, static_cast<uint64_t>(node->stats().bytes));
  h = HashCombine(h, node->dw_executable() ? 1 : 0);
  switch (node->kind()) {
    case OpKind::kViewScan:
      h = HashCombine(h, node->view_scan().view_signature);
      h = HashCombine(h, static_cast<uint64_t>(node->view_scan().store));
      break;
    case OpKind::kUdf:
      h = HashCombine(h, std::bit_cast<uint64_t>(node->udf().cpu_factor));
      h = HashCombine(h, std::bit_cast<uint64_t>(node->udf().size_factor));
      h = HashCombine(h,
                      std::bit_cast<uint64_t>(node->udf().row_selectivity));
      break;
    case OpKind::kFilter:
      h = HashCombine(h, std::bit_cast<uint64_t>(
                             node->filter().predicate.Selectivity()));
      break;
    default:
      break;
  }
  for (const NodePtr& child : node->children()) {
    h = HashCombine(h, StructuralPlanHash(child));
  }
  return h;
}

/// The five-part cost anatomy of Fig. 3 — HV prefix, dump, network
/// transfer, DW load, DW suffix. `CostBreakdown` folds network+load into
/// one `transfer_load_s` figure; the transfer model's `TransferBreakdown`
/// recovers the split from the plan's working-set size.
void AddAnatomyFields(obs::TraceEvent& event, const MultistorePlan& plan,
                      const transfer::TransferModel& transfer_model) {
  const transfer::TransferBreakdown tb =
      transfer_model.WorkingSetTransfer(plan.transferred_bytes);
  event.Int("dw_ops", static_cast<int64_t>(plan.dw_side.size()))
      .Int("cut_inputs", static_cast<int64_t>(plan.cut_inputs.size()))
      .Int("transferred_bytes", static_cast<int64_t>(plan.transferred_bytes))
      .Double("hv_exec_s", plan.cost.hv_exec_s)
      .Double("dump_s", tb.dump_s)
      .Double("transfer_s", tb.network_s)
      .Double("load_s", tb.load_s)
      .Double("dw_exec_s", plan.cost.dw_exec_s)
      .Double("total_s", plan.cost.Total());
}

/// A what-if answer for a V130 diagnostic: the total to the last bit
/// (%.17g round-trips a double), or the error.
std::string DescribeTotal(const Result<Seconds>& total) {
  if (!total.ok()) return total.status().ToString();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g s", *total);
  return buf;
}

}  // namespace

Result<MultistorePlan> MultistoreOptimizer::CostSplit(
    const plan::Plan& executed, const SplitCandidate& split,
    const HvSubtreeCosts* hv_costs) const {
  // The same cut subtree heads many candidates of one enumeration, and its
  // HV cost is a pure function of the immutable subtree; when the caller
  // precomputed the shared memo, look the Result up instead of re-walking.
  const auto subtree_cost = [&](const NodePtr& node) -> Result<Seconds> {
    if (hv_costs != nullptr) {
      const auto it = hv_costs->find(node.get());
      if (it != hv_costs->end()) return it->second;
    }
    return hv_model_->SubtreeCost(node);
  };

  MultistorePlan ms;
  ms.executed = executed;
  ms.dw_side = split.dw_side;
  ms.cut_inputs = split.cut_inputs;

  // HV side: each cut input heads an HV-executed subtree; when the DW side
  // is empty the whole plan runs in HV.
  if (split.dw_side.empty()) {
    MISO_ASSIGN_OR_RETURN(Seconds hv_cost, subtree_cost(executed.root()));
    ms.cost.hv_exec_s = hv_cost;
    return ms;
  }

  for (const NodePtr& cut : split.cut_inputs) {
    ms.transferred_bytes += cut->stats().bytes;
    if (cut->kind() == OpKind::kScan || cut->kind() == OpKind::kViewScan) {
      // A bare Scan / HV ViewScan cut input does no computation, but
      // exporting HDFS-resident data still runs a map-only Hadoop job
      // (startup + task-wave floor + the read itself). This is exactly
      // why placing a view in DW beats dumping it on demand every query.
      const hv::HvConfig& hv_config = hv_model_->config();
      const Seconds read =
          static_cast<double>(cut->stats().bytes) /
          hv_config.ClusterRate(hv_config.inter_read_mbps);
      ms.cost.hv_exec_s += hv_config.job_startup_s +
                           std::max(read, hv_config.job_min_work_s);
    } else {
      MISO_ASSIGN_OR_RETURN(Seconds hv_cost, subtree_cost(cut));
      ms.cost.hv_exec_s += hv_cost;
    }
  }

  const transfer::TransferBreakdown tb =
      transfer_model_->WorkingSetTransfer(ms.transferred_bytes);
  ms.cost.dump_s = tb.dump_s;
  ms.cost.transfer_load_s = tb.network_s + tb.load_s;

  std::unordered_set<const plan::OperatorNode*> dw_set = ms.DwSideSet();
  std::unordered_set<const plan::OperatorNode*> temp_inputs;
  for (const NodePtr& cut : split.cut_inputs) temp_inputs.insert(cut.get());
  MISO_ASSIGN_OR_RETURN(Seconds dw_cost,
                        dw_model_->CostDwSide(dw_set, temp_inputs));
  ms.cost.dw_exec_s = dw_cost;
  return ms;
}

Result<std::vector<Result<MultistorePlan>>>
MultistoreOptimizer::CostAllSplits(const plan::Plan& executed,
                                   bool verify_each) const {
  MISO_ASSIGN_OR_RETURN(std::vector<SplitCandidate> candidates,
                        EnumerateSplits(executed.root(),
                                        /*max_candidates=*/100000, pool_));
  // One SubtreeCost per distinct non-leaf cut subtree (plus the root when
  // some candidate is HV-only), computed serially before the fan-out and
  // shared by every candidate it heads: dedup of pure recomputation, each
  // stored Result exactly what the per-candidate walk would produce.
  HvSubtreeCosts hv_costs;
  const auto precompute = [&](const NodePtr& node) {
    if (hv_costs.find(node.get()) == hv_costs.end()) {
      hv_costs.emplace(node.get(), hv_model_->SubtreeCost(node));
    }
  };
  for (const SplitCandidate& split : candidates) {
    if (split.dw_side.empty()) {
      precompute(executed.root());
      continue;
    }
    for (const NodePtr& cut : split.cut_inputs) {
      // Leaf cut inputs (Scan / ViewScan) use CostSplit's map-only export
      // formula, not SubtreeCost.
      if (cut->kind() != OpKind::kScan && cut->kind() != OpKind::kViewScan) {
        precompute(cut);
      }
    }
  }
  // Cost (and verify) every candidate into its own slot — independent
  // work over immutable inputs — so callers reduce serially in candidate
  // order, exactly as the serial loop would, for any thread count.
  std::vector<Result<MultistorePlan>> costed(
      candidates.size(), Status::Internal("candidate not costed"));
  ParallelFor(
      pool_, static_cast<int>(candidates.size()),
      [&](int i) {
        Result<MultistorePlan> one = CostSplit(
            executed, candidates[static_cast<size_t>(i)], &hv_costs);
        if (one.ok() && verify_each) {
          const Status verdict = verify::VerifyMultistorePlan(*one);
          if (!verdict.ok()) one = verdict;
        }
        costed[static_cast<size_t>(i)] = std::move(one);
      },
      kCostingBatch);
  if (obs::MetricsOn()) {
    obs::Metrics()
        .GetCounter(obs::names::kCandidatesCosted)
        ->Add(static_cast<int64_t>(costed.size()));
  }
  return costed;
}

Result<MultistorePlan> MultistoreOptimizer::BestSplit(
    const plan::Plan& executed) const {
  MISO_ASSIGN_OR_RETURN(std::vector<Result<MultistorePlan>> costed,
                        CostAllSplits(executed, /*verify_each=*/false));
  // The strict < keeps the earliest minimum, and errors surface for the
  // lowest-indexed failing candidate.
  Result<MultistorePlan> best =
      Status::Internal("no candidate produced a costable plan");
  for (Result<MultistorePlan>& candidate : costed) {
    if (!candidate.ok()) return candidate.status();
    if (!best.ok() || candidate->cost.Total() < best->cost.Total()) {
      best = std::move(candidate);
    }
  }
  return best;
}

Result<MultistorePlan> MultistoreOptimizer::Optimize(
    const plan::Plan& query, const views::ViewCatalog& dw_views,
    const views::ViewCatalog& hv_views) const {
  return Optimize(query, dw_views, hv_views, OptimizeOptions{});
}

Result<MultistorePlan> MultistoreOptimizer::Optimize(
    const plan::Plan& query, const views::ViewCatalog& dw_views,
    const views::ViewCatalog& hv_views, const OptimizeOptions& options) const {
  // Graceful degradation under a DW outage: no DW views, no split — the
  // whole query runs in HV, still exploiting HV-resident views.
  if (!options.dw_available) {
    return OptimizeHvOnly(query, hv_views, /*use_views=*/true);
  }
  MISO_ASSIGN_OR_RETURN(std::vector<plan::Plan> variants,
                        RewriteVariants(query, dw_views, hv_views));
  Result<MultistorePlan> best =
      Status::Internal("optimizer produced no plan");
  for (const plan::Plan& variant : variants) {
    Result<MultistorePlan> candidate = BestSplit(variant);
    if (!candidate.ok()) {
      if (candidate.status().code() == StatusCode::kFailedPrecondition) {
        continue;  // this rewrite admits no feasible split
      }
      return candidate.status();
    }
    if (!best.ok() || candidate->cost.Total() < best->cost.Total()) {
      best = std::move(candidate);
    }
  }
  // Debug-mode assertion: the winning plan must verify, including every
  // ViewScan resolving in the catalog of the store it claims (the split
  // enumerator already verified each candidate's shape).
  if (best.ok() && verify::Enabled()) {
    verify::PlanVerifierOptions options;
    options.hv_views = &hv_views;
    options.dw_views = &dw_views;
    MISO_RETURN_IF_ERROR(verify::VerifyMultistorePlan(*best, options));
  }
  // Serial point: Optimize runs on the calling thread (only candidate
  // costing fans out above), so emission here is deterministic.
  if (best.ok()) {
    if (obs::MetricsOn()) {
      obs::MetricsRegistry& registry = obs::Metrics();
      registry.GetCounter(obs::names::kOptimizeCalls)->Increment();
      // Like the plan_choice trace line below, the histogram skips what-if
      // probes: probes may execute on pool workers (the tuner's Prewarm
      // fan-out), and a histogram's floating-point sum is only
      // deterministic when observed serially. Counters commute, so
      // optimize_calls/whatif_probes stay probe-inclusive.
      if (t_whatif_depth == 0) {
        registry
            .GetHistogram(obs::names::kChosenPlanSeconds,
                          obs::SecondsBuckets())
            ->Observe(best->cost.Total());
      }
    }
    if (obs::TraceOn() && t_whatif_depth == 0) {
      obs::TraceEvent event(obs::names::kEvPlanChoice);
      event.Bool("hv_only", best->HvOnly());
      AddAnatomyFields(event, *best, *transfer_model_);
      obs::Emit(event);
    }
  }
  return best;
}

Result<MultistorePlan> MultistoreOptimizer::OptimizeHvOnly(
    const plan::Plan& query, const views::ViewCatalog& hv_views,
    bool use_views) const {
  plan::Plan executed = query;
  if (use_views) {
    MISO_ASSIGN_OR_RETURN(
        executed, rewriter_.RewriteSingleStore(query, hv_views, StoreKind::kHv,
                                               /*report=*/nullptr));
  }
  SplitCandidate hv_only;  // empty DW side
  Result<MultistorePlan> costed =
      CostSplit(executed, hv_only, /*hv_costs=*/nullptr);
  if (costed.ok() && verify::Enabled()) {
    verify::PlanVerifierOptions options;
    options.hv_views = &hv_views;
    MISO_RETURN_IF_ERROR(verify::VerifyMultistorePlan(*costed, options));
  }
  return costed;
}

Result<std::vector<MultistorePlan>> MultistoreOptimizer::EnumerateAllPlans(
    const plan::Plan& query) const {
  // Slots keep the enumeration order, so the returned population is
  // bit-identical to the serial path for any thread count.
  MISO_ASSIGN_OR_RETURN(std::vector<Result<MultistorePlan>> costed,
                        CostAllSplits(query, verify::Enabled()));
  std::vector<MultistorePlan> plans;
  plans.reserve(costed.size());
  for (Result<MultistorePlan>& one : costed) {
    if (!one.ok()) return one.status();
    plans.push_back(std::move(*one));
  }
  // The per-plan trace behind Fig. 3: one `plan_costed` line per feasible
  // split, emitted from this serial merge loop in enumeration order.
  if (obs::TraceOn() && t_whatif_depth == 0) {
    for (size_t i = 0; i < plans.size(); ++i) {
      obs::TraceEvent event(obs::names::kEvPlanCosted);
      event.Int("index", static_cast<int64_t>(i));
      event.Double("dw_fraction", plans[i].DwOperatorFraction());
      AddAnatomyFields(event, plans[i], *transfer_model_);
      obs::Emit(event);
    }
  }
  return plans;
}

Result<std::vector<plan::Plan>> MultistoreOptimizer::RewriteVariants(
    const plan::Plan& query, const views::ViewCatalog& dw_views,
    const views::ViewCatalog& hv_views) const {
  // A DW-view rewrite can be split-infeasible (DW view below an HV-only
  // UDF); later variants always admit at least the HV-only split. A
  // shallow HV match can shadow deeper DW matches in the combined rewrite
  // (the largest subtree is replaced first), hence the DW-only variant.
  // Provably equal variants are never built: an empty catalog matches
  // nothing, so it adds no variant of its own, and `TryStore` picks views
  // as a function of (node, catalog) only, so with the same catalog on
  // both stores the combined rewrite is the DW-only one. A rewrite that
  // changed nothing returns the query's own root, so pointer-equal roots
  // are one tree; keeping the first is what every strict-< reduce does.
  std::vector<plan::Plan> variants;
  variants.reserve(4);
  const auto add = [&variants](plan::Plan variant) {
    for (const plan::Plan& kept : variants) {
      if (kept.root() == variant.root()) return;
    }
    variants.push_back(std::move(variant));
  };
  const bool dw_empty = dw_views.empty();
  const bool hv_empty = hv_views.empty();
  if (!dw_empty && !hv_empty && &dw_views != &hv_views) {
    MISO_ASSIGN_OR_RETURN(plan::Plan with_both,
                          rewriter_.Rewrite(query, dw_views, hv_views,
                                            /*report=*/nullptr));
    add(std::move(with_both));
  }
  if (!dw_empty) {
    MISO_ASSIGN_OR_RETURN(
        plan::Plan with_dw,
        rewriter_.RewriteSingleStore(query, dw_views, StoreKind::kDw,
                                     /*report=*/nullptr));
    add(std::move(with_dw));
  }
  if (!hv_empty) {
    MISO_ASSIGN_OR_RETURN(
        plan::Plan with_hv,
        rewriter_.RewriteSingleStore(query, hv_views, StoreKind::kHv,
                                     /*report=*/nullptr));
    add(std::move(with_hv));
  }
  add(query);
  return variants;
}

Result<Seconds> MultistoreOptimizer::SessionBestSplitTotal(
    const plan::Plan& executed, WhatIfSession& session) const {
  const uint64_t key = StructuralPlanHash(executed.root());
  MutexLock lock(session.mu_);
  const auto it = session.best_split_totals_.find(key);
  if (it != session.best_split_totals_.end()) return it->second;
  // Solve under the lock: each key is enumerated and costed exactly once
  // per session regardless of thread count, so the optimizer's costing
  // counters stay deterministic. Deadlock-free: a worker holding the lock
  // runs BestSplit's nested ParallelFor inline (pool nesting detection),
  // and a non-worker caller never holds the lock while waiting on pool
  // futures it could starve — other probes merely queue behind the lock.
  Result<MultistorePlan> best = BestSplit(executed);
  const Result<Seconds> total = best.ok() ? Result<Seconds>(best->cost.Total())
                                          : Result<Seconds>(best.status());
  // Sessions may be tuner-lifetime (a long-running server re-tunes
  // indefinitely); bound the memo by resetting when full — always safe for
  // a pure memo, and one reorg's worth of distinct variants is hundreds.
  if (session.best_split_totals_.size() >= WhatIfSession::kMaxEntries) {
    session.best_split_totals_.clear();
  }
  session.best_split_totals_.emplace(key, total);
  return total;
}

Result<Seconds> MultistoreOptimizer::SessionWhatIfCost(
    const plan::Plan& query, const views::ViewCatalog& dw_views,
    const views::ViewCatalog& hv_views, WhatIfSession& session) const {
  // Probe-level memo: the answer is a pure function of (query tree, DW
  // catalog content, HV catalog content), so a repeat probe — typical
  // across successive tuning passes sharing window and candidates — skips
  // even the rewrites. The query side is its structural hash, not its
  // signature: queries equal up to filter selectivity share a signature
  // but not a cost.
  const uint64_t probe_key =
      HashCombine(StructuralPlanHash(query.root()),
                  HashCombine(dw_views.ContentFingerprint(),
                              hv_views.ContentFingerprint()));
  {
    MutexLock lock(session.mu_);
    const auto it = session.probe_totals_.find(probe_key);
    if (it != session.probe_totals_.end()) return it->second;
  }
  // Same variants and reduction as Optimize; only the total of each
  // variant's best split is needed, and that total is a pure function of
  // the variant tree, so each resolves through the variant memo.
  MISO_ASSIGN_OR_RETURN(std::vector<plan::Plan> variants,
                        RewriteVariants(query, dw_views, hv_views));
  Result<Seconds> best = Status::Internal("optimizer produced no plan");
  for (const plan::Plan& variant : variants) {
    Result<Seconds> total = SessionBestSplitTotal(variant, session);
    if (!total.ok()) {
      if (total.status().code() == StatusCode::kFailedPrecondition) {
        continue;  // this rewrite admits no feasible split
      }
      // Hard errors propagate unmemoized: they abort the tuning pass
      // anyway, and memoizing only complete answers keeps the probe map
      // trivially consistent.
      return total.status();
    }
    if (!best.ok() || *total < *best) best = total;
  }
  {
    MutexLock lock(session.mu_);
    if (session.probe_totals_.size() >= WhatIfSession::kMaxEntries) {
      session.probe_totals_.clear();
    }
    session.probe_totals_.emplace(probe_key, best);
  }
  return best;
}

Result<Seconds> MultistoreOptimizer::WhatIfCost(
    const plan::Plan& query, const views::ViewCatalog& dw_views,
    const views::ViewCatalog& hv_views, WhatIfSession& session) const {
  WhatIfScope probe;  // suppress per-probe plan_choice trace lines
  if (obs::MetricsOn()) {
    obs::Metrics().GetCounter(obs::names::kWhatIfProbes)->Increment();
  }
  const Result<Seconds> answer =
      SessionWhatIfCost(query, dw_views, hv_views, session);
  if (!verify::Enabled()) return answer;
  // Verification checks the memo's answer: Optimize re-plans the probe,
  // verifying its winner against the probe catalogs (V104 included). This
  // sits outside the variant loop, whose kFailedPrecondition skip would
  // swallow a verifier error.
  const Result<MultistorePlan> reference =
      Optimize(query, dw_views, hv_views);
  if (!reference.ok() &&
      verify::ExtractVerifyCode(reference.status()).has_value()) {
    return reference.status();
  }
  const Result<Seconds> expected =
      reference.ok() ? Result<Seconds>(reference->cost.Total())
                     : Result<Seconds>(reference.status());
  const bool agree = answer.ok() == expected.ok() &&
                     (!answer.ok() || std::bit_cast<uint64_t>(*answer) ==
                                          std::bit_cast<uint64_t>(*expected));
  if (agree) return answer;
  return verify::MakeVerifyError(
      verify::VerifyCode::kWhatIfAnswerDrift,
      "what-if probe of '" + query.query_name() + "' answered " +
          DescribeTotal(answer) + " from the session memo, but Optimize " +
          "gives " + DescribeTotal(expected));
}

}  // namespace miso::optimizer
