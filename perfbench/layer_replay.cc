// The layer replay: a bench-side pass of a workload stream that builds
// the engine stack itself and calls each layer's public functions in the
// engine's order (the simulator's MS-MISO loop, wave 1, stop-the-world),
// with a span around every call. Two fidelity checks keep the spans
// honest: the replay's design after every reorganization must equal what
// `sim::MultistoreSimulator::Run` reports on the same stream, and the
// tuner component chain must reproduce every `MisoTuner::Tune` plan.

#include "layer_replay.h"

#include <algorithm>
#include <memory>
#include <set>

#include "common/hash.h"
#include "common/store_kind.h"
#include "common/thread_pool.h"
#include "dw/dw_store.h"
#include "dw/resource_model.h"
#include "hv/hv_store.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "optimizer/multistore_optimizer.h"
#include "optimizer/whatif_cache.h"
#include "plan/node_factory.h"
#include "server/plan_cache.h"
#include "transfer/transfer_model.h"
#include "tuner/benefit.h"
#include "tuner/interaction.h"
#include "tuner/knapsack.h"
#include "tuner/miso_tuner.h"
#include "tuner/reorg_journal.h"
#include "tuner/sparsify.h"

namespace miso::perfbench {

namespace {

using views::View;
using views::ViewCatalog;
using views::ViewId;

int64_t CounterValue(const char* name) {
  return obs::Metrics().GetCounter(name)->value();
}

/// True when an M-KNAPSACK with these budgets takes the dense path
/// (`SolveMKnapsack`'s dispatch rule).
bool DenseSolve(int64_t storage_units, int64_t transfer_units) {
  return storage_units >= 0 && transfer_units >= 0 &&
         storage_units < tuner::kDenseKnapsackPlaneLimit &&
         transfer_units < tuner::kDenseKnapsackPlaneLimit &&
         (storage_units + 1) * (transfer_units + 1) <=
             tuner::kDenseKnapsackPlaneLimit;
}

/// `MisoTuner::Tune`, recomposed from the tuner's public components with
/// a span around each: BenefitAnalyzer::SetWindow -> ComputeInteractions
/// -> StablePartition/SparsifySets -> SolveMKnapsack (DW) -> SolveMKnapsack
/// (HV) -> movement emission.
Result<tuner::ReorgPlan> ChainTune(
    const optimizer::MultistoreOptimizer* opt,
    const tuner::MisoTunerConfig& config, optimizer::WhatIfCache* cache,
    optimizer::WhatIfSession* session, const ViewCatalog& hv,
    const ViewCatalog& dw, const std::vector<plan::Plan>& window,
    ReplayStats* stats) {
  std::vector<View> candidates = hv.AllViews();
  const size_t hv_count = candidates.size();
  {
    const std::vector<View> dw_views = dw.AllViews();
    candidates.insert(candidates.end(), dw_views.begin(), dw_views.end());
  }
  std::set<ViewId> in_hv;
  std::set<ViewId> in_dw;
  for (size_t k = 0; k < candidates.size(); ++k) {
    (k < hv_count ? in_hv : in_dw).insert(candidates[k].id);
  }
  tuner::ReorgPlan plan;
  if (candidates.empty()) return plan;
  stats->candidates += static_cast<int64_t>(candidates.size());

  SpanLog& spans = stats->spans;
  tuner::BenefitAnalyzer analyzer(opt, config.epoch_length,
                                  config.benefit_decay, cache, session);
  MISO_RETURN_IF_ERROR(SpanLog::Time(&spans.Series("tuner.benefit"),
                                     [&] { return analyzer.SetWindow(window); }));
  MISO_ASSIGN_OR_RETURN(
      const std::vector<tuner::Interaction> interactions,
      SpanLog::Time(&spans.Series("tuner.interaction"), [&] {
        return tuner::ComputeInteractions(candidates, &analyzer,
                                          config.interaction,
                                          opt->thread_pool());
      }));
  MISO_ASSIGN_OR_RETURN(
      const std::vector<tuner::CandidateItem> items,
      SpanLog::Time(&spans.Series("tuner.sparsify"), [&] {
        const std::vector<std::vector<int>> parts = tuner::StablePartition(
            static_cast<int>(candidates.size()), interactions);
        return tuner::SparsifySets(candidates, parts, interactions, &analyzer);
      }));
  stats->items += static_cast<int64_t>(items.size());

  const Bytes d = config.discretization;
  const int64_t bt_units = tuner::ToBudgetUnits(config.transfer_budget, d);
  // Knapsack items of one phase: `from` holds the members whose move
  // consumes transfer budget; `skip` the items the DW phase already took.
  auto knapsack_items = [&](const std::set<ViewId>& from, bool dw_phase,
                            const std::vector<int>& skip) {
    std::vector<tuner::MKnapsackItem> out;
    for (size_t k = 0; k < items.size(); ++k) {
      if (std::find(skip.begin(), skip.end(), static_cast<int>(k)) !=
          skip.end()) {
        continue;
      }
      const tuner::CandidateItem& item = items[k];
      tuner::MKnapsackItem ki;
      ki.id = static_cast<int>(k);
      ki.storage_units = tuner::ToBudgetUnits(item.size_bytes, d);
      Bytes transfer_bytes = 0;
      for (const View& member : item.members) {
        if (from.count(member.id) > 0) transfer_bytes += member.size_bytes;
      }
      ki.transfer_units = tuner::ToBudgetUnits(transfer_bytes, d);
      ki.benefit = !config.store_specific_benefit ? item.benefit_both
                   : dw_phase                     ? item.benefit_dw
                                                  : item.benefit_hv;
      out.push_back(ki);
    }
    return out;
  };
  auto solve = [&](const char* span, const std::vector<tuner::MKnapsackItem>& in,
                   int64_t storage_units, int64_t transfer_units) {
    stats->knapsack_solves += 1;
    if (DenseSolve(storage_units, transfer_units)) stats->knapsack_dense += 1;
    return SpanLog::Time(&spans.Series(span), [&] {
      return tuner::SolveMKnapsack(in, storage_units, transfer_units);
    });
  };

  const int64_t dw_storage_units =
      tuner::ToBudgetUnits(config.dw_storage_budget, d);
  MISO_ASSIGN_OR_RETURN(
      const tuner::MKnapsackSolution dw_solution,
      solve("tuner.knapsack_dw", knapsack_items(in_hv, true, {}),
            dw_storage_units, bt_units));
  std::set<ViewId> new_dw;
  for (int id : dw_solution.chosen_ids) {
    for (const View& m : items[static_cast<size_t>(id)].members) {
      new_dw.insert(m.id);
    }
  }
  const int64_t bt_remaining = bt_units - dw_solution.transfer_used;
  MISO_ASSIGN_OR_RETURN(
      const tuner::MKnapsackSolution hv_solution,
      solve("tuner.knapsack_hv",
            knapsack_items(in_dw, false, dw_solution.chosen_ids),
            tuner::ToBudgetUnits(config.hv_storage_budget, d),
            std::max<int64_t>(0, bt_remaining)));
  std::set<ViewId> new_hv;
  for (int id : hv_solution.chosen_ids) {
    for (const View& m : items[static_cast<size_t>(id)].members) {
      new_hv.insert(m.id);
    }
  }

  // Movement emission, with unchosen views retained in place while their
  // store has room (smaller first, then newer).
  std::vector<View> hv_leftovers;
  std::vector<View> dw_leftovers;
  for (const View& view : candidates) {
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
  auto retain_within = [&](std::vector<View>* leftovers,
                           const std::set<ViewId>& chosen, Bytes budget,
                           std::vector<ViewId>* drops) {
    if (leftovers->empty()) return;
    Bytes used = 0;
    for (const View& view : candidates) {
      if (chosen.count(view.id) > 0) used += view.size_bytes;
    }
    std::sort(leftovers->begin(), leftovers->end(),
              [](const View& a, const View& b) {
                if (a.size_bytes != b.size_bytes) {
                  return a.size_bytes < b.size_bytes;
                }
                if (a.created_by_query != b.created_by_query) {
                  return a.created_by_query > b.created_by_query;
                }
                return a.id > b.id;
              });
    for (const View& view : *leftovers) {
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

std::vector<ViewId> SortedIds(const std::vector<View>& views) {
  std::vector<ViewId> ids;
  for (const View& v : views) ids.push_back(v.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ViewId> Sorted(std::vector<ViewId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool SamePlan(const tuner::ReorgPlan& a, const tuner::ReorgPlan& b) {
  return SortedIds(a.move_to_dw) == SortedIds(b.move_to_dw) &&
         SortedIds(a.move_to_hv) == SortedIds(b.move_to_hv) &&
         Sorted(a.drop_from_hv) == Sorted(b.drop_from_hv) &&
         Sorted(a.drop_from_dw) == Sorted(b.drop_from_dw);
}

tuner::MisoTunerConfig TunerConfigOf(const sim::SimConfig& cfg) {
  tuner::MisoTunerConfig tc;
  tc.hv_storage_budget = cfg.hv_storage_budget;
  tc.dw_storage_budget = cfg.dw_storage_budget;
  tc.transfer_budget = cfg.transfer_budget;
  tc.epoch_length = cfg.epoch_length;
  tc.benefit_decay = cfg.benefit_decay;
  tc.store_specific_benefit = cfg.store_specific_benefit;
  tc.handle_interactions = cfg.handle_interactions;
  tc.retain_unselected_views = cfg.retain_unselected_views;
  return tc;
}

}  // namespace

Status RunLayerReplay(const relation::Catalog* catalog,
                      const sim::SimConfig& cfg, int wave_size,
                      const std::vector<workload::WorkloadQuery>& stream,
                      ReplayStats* stats) {
  if (!cfg.handle_interactions) {
    return Status::InvalidArgument("layer replay needs handle_interactions");
  }
  // Registry counters are read around single calls (optimizer work
  // counts, what-if probes); the gate is on for the replay only.
  obs::ScopedMetrics metrics_on(true);
  SpanLog& spans = stats->spans;
  stats->reorgs.clear();

  plan::NodeFactory factory(catalog);
  hv::HvStore hv_store(cfg.hv, cfg.hv_storage_budget);
  dw::DwStore dw_store(cfg.dw, cfg.dw_storage_budget);
  transfer::TransferModel mover(cfg.transfer);
  optimizer::MultistoreOptimizer opt(&factory, &hv_store.cost_model(),
                                     &dw_store.cost_model(), &mover);
  dw::ResourceLedger ledger(cfg.background, cfg.contention);
  const int threads =
      cfg.threads > 0 ? cfg.threads : ThreadPool::DefaultThreadCount();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  opt.set_thread_pool(pool.get());

  const tuner::MisoTunerConfig tuner_config = TunerConfigOf(cfg);
  tuner::MisoTuner miso_tuner(&opt, tuner_config);
  const uint64_t cost_epoch =
      optimizer::WhatIfCache::EpochOf(cfg.hv, cfg.dw, cfg.transfer);
  optimizer::WhatIfCache whatif_cache(cfg.whatif_cache_bytes);
  whatif_cache.SetEpoch(cost_epoch);
  miso_tuner.set_whatif_cache(&whatif_cache);
  // The chain keeps its own cache and variant memo with the same history
  // as the tuner's, so each component sees the warmth Tune would.
  optimizer::WhatIfCache chain_cache(cfg.whatif_cache_bytes);
  chain_cache.SetEpoch(cost_epoch);
  optimizer::WhatIfSession chain_session;
  server::PlanCache plan_cache;

  // The server's per-wave speculative snapshots, reused across waves.
  ViewCatalog hv_snapshot;
  ViewCatalog dw_snapshot;
  uint64_t hv_fp = 0;
  uint64_t dw_fp = 0;
  bool key_stale = true;

  Seconds now = 0;
  uint64_t next_view_id = 1;
  std::vector<plan::Plan> history;
  for (size_t qi = 0; qi < stream.size(); ++qi) {
    const workload::WorkloadQuery& wq = stream[qi];
    if (qi % static_cast<size_t>(wave_size) == 0) {
      SpanLog::Time(&spans.Series("views.catalog_copy"), [&] {
        hv_snapshot = hv_store.catalog();
        dw_snapshot = dw_store.catalog();
      });
      key_stale = true;
    }
    if (key_stale) {
      SpanLog::Time(&spans.Series("views.fingerprint"), [&] {
        hv_fp = hv_store.catalog().ContentFingerprint();
        dw_fp = dw_store.catalog().ContentFingerprint();
      });
      key_stale = false;
    }

    // Plan: plan-cache lookup, the optimizer on a miss, then insert.
    server::PlanCacheKey key;
    key.query_signature = wq.plan.signature();
    key.hv_fingerprint = hv_fp;
    key.dw_fingerprint = dw_fp;
    const server::PlanCache::Entry* hit = SpanLog::Time(
        &spans.Series("server.plan_cache_lookup"),
        [&] { return plan_cache.Lookup(key); });
    optimizer::MultistorePlan ms;
    if (hit != nullptr) {
      ms = hit->plan;
    } else {
      const int64_t costed = CounterValue(obs::names::kCandidatesCosted);
      const int64_t splits = CounterValue(obs::names::kSplitsEnumerated);
      MISO_ASSIGN_OR_RETURN(
          ms, SpanLog::Time(&spans.Series("optimizer.optimize"), [&] {
            return opt.Optimize(wq.plan, dw_store.catalog(),
                                hv_store.catalog());
          }));
      stats->optimize_calls += 1;
      stats->candidates_costed +=
          CounterValue(obs::names::kCandidatesCosted) - costed;
      stats->splits_enumerated +=
          CounterValue(obs::names::kSplitsEnumerated) - splits;
      server::PlanCache::Entry entry;
      entry.plan = ms;
      SpanLog::Time(&spans.Series("server.plan_cache_insert"), [&] {
        plan_cache.Insert(key, std::move(entry));
      });
    }

    // Execute: HV jobs (harvesting opportunistic views), then the
    // simulator's clock accounting.
    std::vector<plan::NodePtr> hv_roots;
    if (ms.HvOnly()) {
      hv_roots.push_back(ms.executed.root());
    } else {
      for (const plan::NodePtr& cut : ms.cut_inputs) {
        if (cut->kind() != plan::OpKind::kScan &&
            cut->kind() != plan::OpKind::kViewScan) {
          hv_roots.push_back(cut);
        }
      }
    }
    std::vector<View> produced;
    for (size_t ri = 0; ri < hv_roots.size(); ++ri) {
      MISO_ASSIGN_OR_RETURN(
          hv::HvExecution exec,
          SpanLog::Time(&spans.Series("hv.execute"), [&] {
            return hv_store.Execute(
                hv_roots[ri], static_cast<int>(qi), now, &next_view_id,
                /*exclude_signature=*/wq.plan.signature(), nullptr, nullptr,
                HashCombine(static_cast<uint64_t>(qi) + 1,
                            static_cast<uint64_t>(ri)));
          }));
      for (View& v : exec.produced_views) produced.push_back(std::move(v));
    }
    Seconds exec_time = ms.cost.hv_exec_s + ms.cost.dump_s;
    if (ms.cost.transfer_load_s > 0) {
      exec_time += ledger.RecordActivity(
          dw::DwActivityKind::kWorkingSetTransfer, now + exec_time,
          ms.cost.transfer_load_s, /*io_demand=*/1.2, /*cpu_demand=*/0.3);
    }
    if (ms.cost.dw_exec_s > 0) {
      exec_time += ledger.RecordActivity(
          dw::DwActivityKind::kQueryExec, now + exec_time, ms.cost.dw_exec_s,
          /*io_demand=*/0.25, /*cpu_demand=*/0.35);
    }
    now += exec_time;
    stats->views_harvested += static_cast<int64_t>(produced.size());
    if (!produced.empty()) key_stale = true;
    for (View& v : produced) {
      MISO_RETURN_IF_ERROR(hv_store.catalog().AddUnchecked(std::move(v)));
    }
    for (const plan::NodePtr& node : ms.executed.PostOrder()) {
      if (node->kind() != plan::OpKind::kViewScan) continue;
      ViewCatalog& store = node->view_scan().store == StoreKind::kDw
                               ? dw_store.catalog()
                               : hv_store.catalog();
      store.TouchView(node->view_scan().view_id, static_cast<int>(qi));
    }
    history.push_back(wq.plan);
    stats->sessions += 1;

    // Reorganization: chain, Tune, the fidelity comparison, then the
    // journal create + apply and the movement charge.
    const bool boundary = cfg.reorg_every > 0 &&
                          (static_cast<int>(qi) + 1) % cfg.reorg_every == 0 &&
                          qi + 1 < stream.size();
    if (!boundary) continue;
    const size_t start =
        history.size() > static_cast<size_t>(cfg.history_window)
            ? history.size() - static_cast<size_t>(cfg.history_window)
            : 0;
    const std::vector<plan::Plan> window(
        history.begin() + static_cast<long>(start), history.end());
    MISO_ASSIGN_OR_RETURN(
        const tuner::ReorgPlan chained,
        ChainTune(&opt, tuner_config, &chain_cache, &chain_session,
                  hv_store.catalog(), dw_store.catalog(), window, stats));
    const int64_t probes = CounterValue(obs::names::kWhatIfProbes);
    const optimizer::WhatIfCache::Stats before = whatif_cache.GetStats();
    MISO_ASSIGN_OR_RETURN(
        const tuner::ReorgPlan reorg,
        SpanLog::Time(&spans.Series("tuner.tune"), [&] {
          return miso_tuner.Tune(hv_store.catalog(), dw_store.catalog(),
                                 window);
        }));
    const optimizer::WhatIfCache::Stats after = whatif_cache.GetStats();
    stats->tunes += 1;
    stats->whatif_probes += CounterValue(obs::names::kWhatIfProbes) - probes;
    stats->whatif_hits += after.hits - before.hits;
    stats->whatif_misses += after.misses - before.misses;
    if (!SamePlan(chained, reorg)) stats->chain_mismatches += 1;

    Seconds reorg_time = cfg.tune_compute_s;
    const Bytes to_dw = reorg.BytesToDw();
    const Bytes to_hv = reorg.BytesToHv();
    if (to_dw > 0) {
      reorg_time += ledger.RecordActivity(
          dw::DwActivityKind::kReorgTransfer, now + reorg_time,
          mover.ViewTransferToDw(to_dw).Total(), /*io_demand=*/1.3,
          /*cpu_demand=*/0.3);
    }
    if (to_hv > 0) {
      reorg_time += ledger.RecordActivity(
          dw::DwActivityKind::kReorgTransfer, now + reorg_time,
          mover.ViewTransferToHv(to_hv).Total(), /*io_demand=*/0.8,
          /*cpu_demand=*/0.2);
    }
    MISO_RETURN_IF_ERROR(SpanLog::Time(&spans.Series("tuner.apply"), [&] {
      Result<tuner::ReorgJournal> journal = tuner::ReorgJournal::Create(
          reorg, hv_store.catalog(), dw_store.catalog());
      if (!journal.ok()) return journal.status();
      return journal->Apply(&hv_store.catalog(), &dw_store.catalog()).status();
    }));
    now += reorg_time;
    plan_cache.Invalidate();
    key_stale = true;

    sim::SimConfig::ReorgSnapshot snapshot;
    snapshot.query_index = static_cast<int>(qi);
    snapshot.reorg_index = static_cast<int>(stats->reorgs.size());
    snapshot.hv_used = hv_store.catalog().used_bytes();
    snapshot.dw_used = dw_store.catalog().used_bytes();
    snapshot.moved_to_dw = to_dw;
    snapshot.moved_to_hv = to_hv;
    stats->reorgs.push_back(snapshot);
  }
  stats->tti_s = now;
  return Status();
}

Status CheckReplayFidelity(const relation::Catalog* catalog,
                           const sim::SimConfig& cfg,
                           const std::vector<workload::WorkloadQuery>& stream,
                           const ReplayStats& stats) {
  std::vector<sim::SimConfig::ReorgSnapshot> observed;
  sim::SimConfig config = cfg;
  config.reorg_observer = [&observed](const sim::SimConfig::ReorgSnapshot& s) {
    observed.push_back(s);
  };
  sim::MultistoreSimulator simulator(catalog, config);
  MISO_ASSIGN_OR_RETURN(const sim::RunReport report, simulator.Run(stream));
  if (observed.size() != stats.reorgs.size()) {
    return Status::Internal("layer replay: " +
                            std::to_string(stats.reorgs.size()) +
                            " reorganizations, simulator " +
                            std::to_string(observed.size()));
  }
  for (size_t i = 0; i < observed.size(); ++i) {
    const sim::SimConfig::ReorgSnapshot& want = observed[i];
    const sim::SimConfig::ReorgSnapshot& got = stats.reorgs[i];
    if (want.hv_used != got.hv_used || want.dw_used != got.dw_used ||
        want.moved_to_dw != got.moved_to_dw ||
        want.moved_to_hv != got.moved_to_hv) {
      return Status::Internal("layer replay diverges from the simulator at "
                              "reorganization " + std::to_string(i));
    }
  }
  if (report.Tti() != stats.tti_s) {
    return Status::Internal("layer replay TTI differs from the simulator's");
  }
  if (stats.chain_mismatches != 0) {
    return Status::Internal("tuner component chain differs from Tune on " +
                            std::to_string(stats.chain_mismatches) +
                            " reorganizations");
  }
  return Status();
}

}  // namespace miso::perfbench
