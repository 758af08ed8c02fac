#include "full_pool_tune_oracle.h"

#include <algorithm>
#include <set>
#include <utility>

#include "tuner/benefit.h"
#include "tuner/interaction.h"
#include "tuner/knapsack.h"
#include "tuner/sparsify.h"

namespace miso::tuner {

Result<ReorgPlan> FullPoolTune(const optimizer::MultistoreOptimizer* optimizer,
                               const MisoTunerConfig& config,
                               const views::ViewCatalog& hv,
                               const views::ViewCatalog& dw,
                               const std::vector<plan::Plan>& window,
                               optimizer::WhatIfSession* session) {
  // Candidate pool V = Vh ∪ Vd, every view copied out, HV first.
  std::vector<views::View> candidates = hv.AllViews();
  for (views::View& view : dw.AllViews()) candidates.push_back(std::move(view));
  std::set<views::ViewId> in_hv;
  std::set<views::ViewId> in_dw;
  for (const views::View& view : hv.AllViews()) in_hv.insert(view.id);
  for (const views::View& view : dw.AllViews()) in_dw.insert(view.id);

  ReorgPlan plan;
  if (candidates.empty()) return plan;

  BenefitAnalyzer analyzer(optimizer, config.epoch_length,
                           config.benefit_decay, /*cache=*/nullptr, session);
  MISO_RETURN_IF_ERROR(analyzer.SetWindow(window));

  std::vector<CandidateItem> items;
  if (config.handle_interactions) {
    MISO_ASSIGN_OR_RETURN(
        std::vector<Interaction> interactions,
        ComputeInteractions(candidates, &analyzer, config.interaction));
    const std::vector<std::vector<int>> parts =
        StablePartition(static_cast<int>(candidates.size()), interactions);
    MISO_ASSIGN_OR_RETURN(
        items, SparsifySets(candidates, parts, interactions, &analyzer));
  } else {
    for (const views::View& view : candidates) {
      CandidateItem item;
      item.members = {view};
      item.size_bytes = view.size_bytes;
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

  const Bytes d = config.discretization;
  // One knapsack phase over the items not excluded; `from` is the store
  // whose resident members pay transfer to reach the phase's store.
  auto phase_items = [&](const std::set<views::ViewId>& from, bool dw_phase,
                         const std::vector<int>& excluded) {
    std::vector<MKnapsackItem> out;
    for (size_t k = 0; k < items.size(); ++k) {
      if (std::find(excluded.begin(), excluded.end(), static_cast<int>(k)) !=
          excluded.end()) {
        continue;
      }
      const CandidateItem& item = items[k];
      MKnapsackItem ki;
      ki.id = static_cast<int>(k);
      ki.storage_units = ToBudgetUnits(item.size_bytes, d);
      Bytes transfer_bytes = 0;
      for (const views::View& member : item.members) {
        if (from.count(member.id) > 0) transfer_bytes += member.size_bytes;
      }
      ki.transfer_units = ToBudgetUnits(transfer_bytes, d);
      ki.benefit = !config.store_specific_benefit ? item.benefit_both
                   : dw_phase                     ? item.benefit_dw
                                                  : item.benefit_hv;
      out.push_back(ki);
    }
    return out;
  };
  auto members_of = [&](const MKnapsackSolution& solution) {
    std::set<views::ViewId> ids;
    for (int id : solution.chosen_ids) {
      for (const views::View& member :
           items[static_cast<size_t>(id)].members) {
        ids.insert(member.id);
      }
    }
    return ids;
  };

  const int64_t bt_units = ToBudgetUnits(config.transfer_budget, d);
  MISO_ASSIGN_OR_RETURN(
      MKnapsackSolution dw_solution,
      SolveMKnapsack(phase_items(in_hv, /*dw_phase=*/true, {}),
                     ToBudgetUnits(config.dw_storage_budget, d), bt_units));
  MISO_ASSIGN_OR_RETURN(
      MKnapsackSolution hv_solution,
      SolveMKnapsack(
          phase_items(in_dw, /*dw_phase=*/false, dw_solution.chosen_ids),
          ToBudgetUnits(config.hv_storage_budget, d),
          std::max<int64_t>(0, bt_units - dw_solution.transfer_used)));
  const std::set<views::ViewId> new_dw = members_of(dw_solution);
  const std::set<views::ViewId> new_hv = members_of(hv_solution);

  std::vector<views::View> hv_leftovers;
  std::vector<views::View> dw_leftovers;
  for (const views::View& view : candidates) {
    const bool was_hv = in_hv.count(view.id) > 0;
    const bool was_dw = in_dw.count(view.id) > 0;
    if (new_dw.count(view.id) > 0) {
      if (was_hv) plan.move_to_dw.push_back(view);
    } else if (new_hv.count(view.id) > 0) {
      if (was_dw) plan.move_to_hv.push_back(view);
    } else if (config.retain_unselected_views) {
      if (was_hv) hv_leftovers.push_back(view);
      if (was_dw) dw_leftovers.push_back(view);
    } else {
      if (was_hv) plan.drop_from_hv.push_back(view.id);
      if (was_dw) plan.drop_from_dw.push_back(view.id);
    }
  }

  // Retention: smallest first, ties toward recency, while capacity lasts.
  auto retain_within = [&](std::vector<views::View>* leftovers,
                           const std::set<views::ViewId>& chosen,
                           Bytes budget,
                           std::vector<views::ViewId>* drops) {
    Bytes used = 0;
    for (const views::View& view : candidates) {
      if (chosen.count(view.id) > 0) used += view.size_bytes;
    }
    std::sort(leftovers->begin(), leftovers->end(),
              [](const views::View& a, const views::View& b) {
                if (a.size_bytes != b.size_bytes) {
                  return a.size_bytes < b.size_bytes;
                }
                if (a.created_by_query != b.created_by_query) {
                  return a.created_by_query > b.created_by_query;
                }
                return a.id > b.id;
              });
    for (const views::View& view : *leftovers) {
      if (used + view.size_bytes <= budget) {
        used += view.size_bytes;
      } else {
        drops->push_back(view.id);
      }
    }
  };
  retain_within(&hv_leftovers, new_hv, config.hv_storage_budget,
                &plan.drop_from_hv);
  retain_within(&dw_leftovers, new_dw, config.dw_storage_budget,
                &plan.drop_from_dw);
  return plan;
}

}  // namespace miso::tuner
