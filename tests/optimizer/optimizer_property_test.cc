// Property sweeps of the multistore optimizer over the entire paper
// workload: every query, with and without a populated design, must obey
// the structural cost invariants.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "hv/hv_store.h"
#include "optimizer/multistore_optimizer.h"
#include "workload/evolutionary.h"

namespace miso::optimizer {
namespace {

using plan::NodePtr;
using plan::OpKind;
using testing_util::PaperCatalog;

/// Fixture: the 32 workload plans plus catalogs populated from the first
/// eight queries' opportunistic views.
class OptimizerPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  struct Shared {
    Shared()
        : factory(&PaperCatalog()),
          hv_model(hv::HvConfig{}),
          dw_model(dw::DwConfig{}),
          transfer_model(transfer::TransferConfig{}),
          optimizer(&factory, &hv_model, &dw_model, &transfer_model),
          hv_views(100 * kTiB),
          dw_views(400 * kGiB) {
      auto w = workload::EvolutionaryWorkload::Generate(
          &PaperCatalog(), workload::WorkloadConfig{});
      queries = w->Plans();
      hv::HvStore store(hv::HvConfig{}, 100 * kTiB);
      uint64_t next_id = 1;
      for (int i = 0; i < 8; ++i) {
        auto exec = store.Execute(queries[static_cast<size_t>(i)].root(), i,
                                  0, &next_id,
                                  queries[static_cast<size_t>(i)].signature());
        for (views::View& v : exec->produced_views) {
          if (v.size_bytes < 2 * kGiB && dw_views.used_bytes() < 50 * kGiB) {
            dw_views.AddUnchecked(std::move(v));
          } else {
            hv_views.AddUnchecked(std::move(v));
          }
        }
      }
    }

    plan::NodeFactory factory;
    hv::HvCostModel hv_model;
    dw::DwCostModel dw_model;
    transfer::TransferModel transfer_model;
    MultistoreOptimizer optimizer;
    views::ViewCatalog hv_views;
    views::ViewCatalog dw_views;
    std::vector<plan::Plan> queries;
  };

  static Shared& shared() {
    static auto* s = new Shared();
    return *s;
  }
};

TEST_P(OptimizerPropertyTest, BestPlanInvariants) {
  Shared& s = shared();
  const plan::Plan& q = s.queries[static_cast<size_t>(GetParam())];

  auto best = s.optimizer.Optimize(q, s.dw_views, s.hv_views);
  ASSERT_TRUE(best.ok()) << q.query_name();

  // Cost components are non-negative and consistent.
  EXPECT_GE(best->cost.hv_exec_s, 0);
  EXPECT_GE(best->cost.dump_s, 0);
  EXPECT_GE(best->cost.transfer_load_s, 0);
  EXPECT_GE(best->cost.dw_exec_s, 0);
  EXPECT_GT(best->cost.Total(), 0);

  // Never worse than the no-views HV-only execution.
  views::ViewCatalog empty(0);
  auto hv_only = s.optimizer.OptimizeHvOnly(q, empty, false);
  ASSERT_TRUE(hv_only.ok());
  EXPECT_LE(best->cost.Total(), hv_only->cost.Total() + 1e-6)
      << q.query_name();

  // Never worse than ignoring the design entirely.
  auto no_views = s.optimizer.Optimize(q, empty, empty);
  ASSERT_TRUE(no_views.ok());
  EXPECT_LE(best->cost.Total(), no_views->cost.Total() + 1e-6);

  // Transfer accounting matches the cut.
  Bytes cut_bytes = 0;
  for (const NodePtr& cut : best->cut_inputs) {
    cut_bytes += cut->stats().bytes;
  }
  EXPECT_EQ(best->transferred_bytes, cut_bytes);
  if (best->HvOnly()) {
    EXPECT_EQ(best->cost.dw_exec_s, 0);
    EXPECT_EQ(best->cost.dump_s, 0);
  }
  if (best->transferred_bytes == 0) {
    EXPECT_DOUBLE_EQ(best->cost.dump_s, 0);
    EXPECT_DOUBLE_EQ(best->cost.transfer_load_s, 0);
  }

  // DW-side nodes are all DW-executable; no DW view ends up on the HV
  // side of the executed plan.
  std::unordered_set<const plan::OperatorNode*> dw_side = best->DwSideSet();
  for (const NodePtr& node : best->executed.PostOrder()) {
    if (dw_side.count(node.get()) > 0) {
      EXPECT_TRUE(node->dw_executable());
    } else if (node->kind() == OpKind::kViewScan) {
      EXPECT_EQ(node->view_scan().store, StoreKind::kHv);
    }
  }

  // The rewrite preserved semantic identity.
  EXPECT_EQ(best->executed.signature(), q.signature());
}

TEST_P(OptimizerPropertyTest, MonotoneInDesign) {
  // Adding views can only help: cost with the design <= cost without.
  Shared& s = shared();
  const plan::Plan& q = s.queries[static_cast<size_t>(GetParam())];
  views::ViewCatalog empty(0);
  WhatIfSession session;
  auto with = s.optimizer.WhatIfCost(q, s.dw_views, s.hv_views, session);
  auto hv_only_views = s.optimizer.WhatIfCost(q, empty, s.hv_views, session);
  auto without = s.optimizer.WhatIfCost(q, empty, empty, session);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(hv_only_views.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_LE(*with, *hv_only_views + 1e-6);
  EXPECT_LE(*hv_only_views, *without + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadQueries, OptimizerPropertyTest,
                         ::testing::Range(0, 32));

}  // namespace
}  // namespace miso::optimizer
