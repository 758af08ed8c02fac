#include "tuner/miso_tuner.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "tuner/knapsack.h"
#include "verify/design_verifier.h"
#include "verify/verify_gate.h"

namespace miso::tuner {

namespace {

/// True when `id` is among the members of any chosen item.
bool Chosen(const std::set<views::ViewId>& chosen, views::ViewId id) {
  return chosen.count(id) > 0;
}

}  // namespace

Result<ReorgPlan> MisoTuner::Tune(const views::ViewCatalog& hv,
                                  const views::ViewCatalog& dw,
                                  const std::vector<plan::Plan>& window) const {
  // miso-lint: allow(L003) miso.tuner.tune_ms is runtime-class wall-clock telemetry (docs/TELEMETRY.md)
  const auto tune_start = std::chrono::steady_clock::now();
  const optimizer::WhatIfCache::Stats cache_before =
      cache_ != nullptr ? cache_->GetStats() : optimizer::WhatIfCache::Stats{};

  // Candidate pool V = Vh ∪ Vd (disjoint by invariant), walked in place:
  // the first `hv_count` entries point into HV, the rest into DW, each in
  // catalog (id) order. The pointers stay valid for the whole pass — Tune
  // never mutates either catalog.
  std::vector<const views::View*> candidates;
  candidates.reserve(static_cast<size_t>(hv.size() + dw.size()));
  for (const auto& [id, view] : hv.views()) candidates.push_back(&view);
  const size_t hv_count = candidates.size();
  for (const auto& [id, view] : dw.views()) candidates.push_back(&view);

  ReorgPlan plan;
  if (candidates.empty()) return plan;

  BenefitAnalyzer analyzer(optimizer_, config_.epoch_length,
                           config_.benefit_decay, cache_, &session_);
  MISO_RETURN_IF_ERROR(analyzer.SetWindow(window));

  // Relevance first: only candidates that some window query can use are
  // copied out and valued. An irrelevant view's benefit rows are exactly
  // +0.0 under every placement (the same QueryShape::Relevant test drives
  // RelevantMask and ComputeRow's fast path), so it forms no interaction,
  // would be a singleton part, and its benefit-0 item would never be
  // packed; leaving it out keeps every other part, item and knapsack id
  // in the same relative order (DESIGN.md §15.5).
  std::vector<views::View> relevant;
  for (const views::View* view : candidates) {
    const std::vector<uint64_t> mask = analyzer.RelevantMask(*view);
    if (std::any_of(mask.begin(), mask.end(),
                    [](uint64_t word) { return word != 0; })) {
      relevant.push_back(*view);
    }
  }

  // Interaction handling -> independent candidate items.
  std::vector<CandidateItem> items;
  int64_t significant_interactions = 0;
  if (config_.handle_interactions) {
    MISO_ASSIGN_OR_RETURN(
        std::vector<Interaction> interactions,
        ComputeInteractions(relevant, &analyzer, config_.interaction,
                            optimizer_->thread_pool()));
    significant_interactions = static_cast<int64_t>(interactions.size());
    const std::vector<std::vector<int>> parts =
        StablePartition(static_cast<int>(relevant.size()), interactions);
    MISO_ASSIGN_OR_RETURN(
        items, SparsifySets(relevant, parts, interactions, &analyzer));
  } else {
    for (const views::View& v : relevant) {
      CandidateItem item;
      item.members = {v};
      item.size_bytes = v.size_bytes;
      MISO_ASSIGN_OR_RETURN(
          item.benefit_both,
          analyzer.PredictedBenefit(item.members, Placement::kBothStores));
      MISO_ASSIGN_OR_RETURN(
          item.benefit_dw,
          analyzer.PredictedBenefit(item.members, Placement::kDwOnly));
      MISO_ASSIGN_OR_RETURN(
          item.benefit_hv,
          analyzer.PredictedBenefit(item.members, Placement::kHvOnly));
      items.push_back(std::move(item));
    }
  }

  const Bytes d = config_.discretization;
  const int64_t bt_units = ToBudgetUnits(config_.transfer_budget, d);

  // ---- Phase 1: DW M-KNAPSACK (dims Bd x Bt). HV-resident member bytes
  // consume transfer budget; DW-resident bytes do not (§4.4.1).
  std::vector<MKnapsackItem> dw_items;
  dw_items.reserve(items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    const CandidateItem& item = items[k];
    MKnapsackItem ki;
    ki.id = static_cast<int>(k);
    ki.storage_units = ToBudgetUnits(item.size_bytes, d);
    Bytes transfer_bytes = 0;
    for (const views::View& member : item.members) {
      if (hv.Contains(member.id)) transfer_bytes += member.size_bytes;
    }
    ki.transfer_units = ToBudgetUnits(transfer_bytes, d);
    ki.benefit = config_.store_specific_benefit ? item.benefit_dw
                                                : item.benefit_both;
    dw_items.push_back(ki);
  }
  MISO_ASSIGN_OR_RETURN(
      MKnapsackSolution dw_solution,
      SolveMKnapsack(dw_items, ToBudgetUnits(config_.dw_storage_budget, d),
                     bt_units));

  std::set<views::ViewId> new_dw;
  std::vector<bool> packed_in_dw(items.size(), false);
  for (int id : dw_solution.chosen_ids) {
    packed_in_dw[static_cast<size_t>(id)] = true;
    for (const views::View& member : items[static_cast<size_t>(id)].members) {
      new_dw.insert(member.id);
    }
  }

  // Remaining transfer budget after the DW phase (§4.4.2): only actual
  // HV -> DW movements consumed Bt.
  const int64_t bt_remaining = bt_units - dw_solution.transfer_used;

  // ---- Phase 2: HV M-KNAPSACK over the items not packed into DW (keeps
  // Vh ∩ Vd = ∅). Members evicted from DW consume the remaining transfer
  // budget to move back; members already in HV move for free.
  std::vector<MKnapsackItem> hv_items;
  for (size_t k = 0; k < items.size(); ++k) {
    if (packed_in_dw[k]) continue;
    const CandidateItem& item = items[k];
    MKnapsackItem ki;
    ki.id = static_cast<int>(k);
    ki.storage_units = ToBudgetUnits(item.size_bytes, d);
    Bytes transfer_bytes = 0;
    for (const views::View& member : item.members) {
      if (dw.Contains(member.id)) transfer_bytes += member.size_bytes;
    }
    ki.transfer_units = ToBudgetUnits(transfer_bytes, d);
    ki.benefit = config_.store_specific_benefit ? item.benefit_hv
                                                : item.benefit_both;
    hv_items.push_back(ki);
  }
  MISO_ASSIGN_OR_RETURN(
      MKnapsackSolution hv_solution,
      SolveMKnapsack(hv_items, ToBudgetUnits(config_.hv_storage_budget, d),
                     std::max<int64_t>(0, bt_remaining)));

  std::set<views::ViewId> new_hv;
  for (int id : hv_solution.chosen_ids) {
    for (const views::View& member : items[static_cast<size_t>(id)].members) {
      new_hv.insert(member.id);
    }
  }

  // ---- Emit movements. Every candidate is walked, relevant or not, so
  // unchosen views are dropped or retained exactly as before.
  std::vector<const views::View*> hv_leftovers;
  std::vector<const views::View*> dw_leftovers;
  for (size_t k = 0; k < candidates.size(); ++k) {
    const views::View& view = *candidates[k];
    const bool was_hv = k < hv_count;
    if (Chosen(new_dw, view.id)) {
      if (was_hv) plan.move_to_dw.push_back(view);
    } else if (Chosen(new_hv, view.id)) {
      if (!was_hv) plan.move_to_hv.push_back(view);
    } else if (config_.retain_unselected_views) {
      (was_hv ? hv_leftovers : dw_leftovers).push_back(&view);
    } else {
      (was_hv ? plan.drop_from_hv : plan.drop_from_dw).push_back(view.id);
    }
  }

  // Retain unchosen views in place while their store has free capacity.
  // Smaller views first: keeping many small views yields a more diverse
  // design for the unknown future workload (§4.4's diversity rationale)
  // than keeping one recent giant. Ties break toward recency.
  auto newer_first = [](const views::View* a, const views::View* b) {
    if (a->size_bytes != b->size_bytes) return a->size_bytes < b->size_bytes;
    if (a->created_by_query != b->created_by_query) {
      return a->created_by_query > b->created_by_query;
    }
    return a->id > b->id;
  };
  auto retain_within = [&](std::vector<const views::View*>* leftovers,
                           const std::set<views::ViewId>& chosen,
                           Bytes budget,
                           std::vector<views::ViewId>* drops) {
    if (leftovers->empty()) return;
    Bytes used = 0;
    for (const views::View* view : candidates) {
      if (Chosen(chosen, view->id)) used += view->size_bytes;
    }
    std::sort(leftovers->begin(), leftovers->end(), newer_first);
    for (const views::View* view : *leftovers) {
      if (used + view->size_bytes <= budget) {
        used += view->size_bytes;  // silently retained (no movement)
      } else {
        drops->push_back(view->id);
      }
    }
  };
  retain_within(&hv_leftovers, new_hv, config_.hv_storage_budget,
                &plan.drop_from_hv);
  retain_within(&dw_leftovers, new_dw, config_.dw_storage_budget,
                &plan.drop_from_dw);

  MISO_LOG(kInfo) << "MISO tuner: " << candidates.size() << " candidates ("
                  << relevant.size() << " relevant), " << items.size()
                  << " items after sparsification; " << plan.Summary();

  // Telemetry, at this serial point (Tune runs on the calling thread; only
  // the analyzer's what-if probes fanned out above). The predicted benefit
  // is the sum both knapsack phases claim for the new design.
  const double predicted_benefit_s =
      dw_solution.total_benefit + hv_solution.total_benefit;
  if (obs::MetricsOn()) {
    obs::MetricsRegistry& registry = obs::Metrics();
    registry.GetCounter(obs::names::kTunerReorgs)->Increment();
    registry.GetCounter(obs::names::kTunerCandidates)
        ->Add(static_cast<int64_t>(candidates.size()));
    registry.GetCounter(obs::names::kKnapsackItems)
        ->Add(static_cast<int64_t>(items.size()));
    registry.GetCounter(obs::names::kInteractionsSignificant)
        ->Add(significant_interactions);
    registry.GetCounter(obs::names::kViewsMovedToDw)
        ->Add(static_cast<int64_t>(plan.move_to_dw.size()));
    registry.GetCounter(obs::names::kViewsMovedToHv)
        ->Add(static_cast<int64_t>(plan.move_to_hv.size()));
    registry.GetCounter(obs::names::kViewsDropped)
        ->Add(static_cast<int64_t>(plan.drop_from_hv.size() +
                                   plan.drop_from_dw.size()));
    registry.GetGauge(obs::names::kLastPredictedBenefit)
        ->Set(predicted_benefit_s);
    if (cache_ != nullptr) {
      // Per-Tune deltas of the shared cache's lifetime stats. All cache
      // accesses happen on this (serial) thread — Prewarm only fans out
      // the pure optimizer probes — so these deltas are model-class:
      // identical for every MISO_THREADS.
      const optimizer::WhatIfCache::Stats cache_after = cache_->GetStats();
      registry.GetCounter(obs::names::kWhatIfCacheHits)
          ->Add(cache_after.hits - cache_before.hits);
      registry.GetCounter(obs::names::kWhatIfCacheMisses)
          ->Add(cache_after.misses - cache_before.misses);
      registry.GetCounter(obs::names::kWhatIfCacheEvictions)
          ->Add(cache_after.evictions - cache_before.evictions);
    }
    // Wall-clock tuning latency: runtime-class by nature (it varies with
    // machine load and thread count) and therefore excluded from the
    // cross-thread-count determinism contract, like miso.pool.*.
    // miso-lint: allow(L003) miso.tuner.tune_ms is runtime-class wall-clock telemetry (docs/TELEMETRY.md)
    const auto tune_end = std::chrono::steady_clock::now();
    const double tune_ms =
        std::chrono::duration<double, std::milli>(tune_end - tune_start)
            .count();
    registry.GetHistogram(obs::names::kTunerTuneMs, obs::MillisBuckets())
        ->Observe(tune_ms);
  }
  if (obs::TraceOn() || obs::MetricsOn()) {
    const std::set<views::ViewId> dropped_hv(plan.drop_from_hv.begin(),
                                             plan.drop_from_hv.end());
    const std::set<views::ViewId> dropped_dw(plan.drop_from_dw.begin(),
                                             plan.drop_from_dw.end());
    int64_t retained = 0;
    if (obs::TraceOn()) {
      obs::Emit(obs::TraceEvent(obs::names::kEvTunerReorg)
                    .Int("candidates", static_cast<int64_t>(candidates.size()))
                    .Int("knapsack_items", static_cast<int64_t>(items.size()))
                    .Int("significant_interactions", significant_interactions)
                    .Int("chosen_dw", static_cast<int64_t>(new_dw.size()))
                    .Int("chosen_hv", static_cast<int64_t>(new_hv.size()))
                    .Int("moved_to_dw",
                         static_cast<int64_t>(plan.move_to_dw.size()))
                    .Int("moved_to_hv",
                         static_cast<int64_t>(plan.move_to_hv.size()))
                    .Int("dropped", static_cast<int64_t>(
                                        plan.drop_from_hv.size() +
                                        plan.drop_from_dw.size()))
                    .Double("predicted_benefit_s", predicted_benefit_s));
    }
    // One decision line per candidate view, in the deterministic pool
    // order (Vh then Vd, each catalog-sorted). "keep" = chosen where it
    // already lives; "retain" = unchosen but left in place under spare
    // capacity; "drop" = evicted.
    for (size_t k = 0; k < candidates.size(); ++k) {
      const views::View& view = *candidates[k];
      const bool was_hv = k < hv_count;
      const char* decision = nullptr;
      if (Chosen(new_dw, view.id)) {
        decision = was_hv ? "move_to_dw" : "keep_dw";
      } else if (Chosen(new_hv, view.id)) {
        decision = was_hv ? "keep_hv" : "move_to_hv";
      } else if (was_hv) {
        decision = dropped_hv.count(view.id) > 0 ? "drop_hv" : "retain_hv";
      } else {
        decision = dropped_dw.count(view.id) > 0 ? "drop_dw" : "retain_dw";
      }
      if (decision[0] == 'r') ++retained;
      if (obs::TraceOn()) {
        obs::Emit(obs::TraceEvent(obs::names::kEvViewDecision)
                      .Int("view_id", static_cast<int64_t>(view.id))
                      .Int("size_bytes", static_cast<int64_t>(view.size_bytes))
                      .Str("decision", decision));
      }
    }
    if (obs::MetricsOn()) {
      obs::Metrics().GetCounter(obs::names::kViewsRetained)->Add(retained);
    }
  }

  // Debug-mode assertion (always on under ctest): the emitted design must
  // respect Bh/Bd/Bt and disjointness, and every merged (sparsified) item
  // must be placed atomically.
  if (verify::Enabled()) {
    std::vector<std::vector<views::ViewId>> merged_groups;
    for (const CandidateItem& item : items) {
      if (item.members.size() < 2) continue;
      std::vector<views::ViewId> group;
      for (const views::View& member : item.members) group.push_back(member.id);
      merged_groups.push_back(std::move(group));
    }
    MISO_RETURN_IF_ERROR(
        verify::VerifyAtomicPlacement(merged_groups, new_dw, new_hv));
    verify::DesignBudgets budgets;
    budgets.hv_storage = config_.hv_storage_budget;
    budgets.dw_storage = config_.dw_storage_budget;
    budgets.transfer = config_.transfer_budget;
    budgets.discretization = config_.discretization;
    MISO_RETURN_IF_ERROR(verify::VerifyReorgPlan(plan, hv, dw, budgets));
  }
  return plan;
}

}  // namespace miso::tuner
