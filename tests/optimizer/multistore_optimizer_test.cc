#include "optimizer/multistore_optimizer.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "hv/mr_job.h"
#include "plan/node_factory.h"
#include "views/view.h"

namespace miso::optimizer {
namespace {

using plan::NodePtr;
using plan::OpKind;
using testing_util::PaperCatalog;
using views::View;
using views::ViewCatalog;
using views::ViewFromNode;

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest()
      : factory_(&PaperCatalog()),
        hv_model_(hv::HvConfig{}),
        dw_model_(dw::DwConfig{}),
        transfer_model_(transfer::TransferConfig{}),
        optimizer_(&factory_, &hv_model_, &dw_model_, &transfer_model_) {}

  static NodePtr FindNode(const plan::Plan& p, OpKind kind) {
    for (const NodePtr& node : p.PostOrder()) {
      if (node->kind() == kind) return node;
    }
    return nullptr;
  }

  View Harvest(const NodePtr& node, views::ViewId id) {
    View v = ViewFromNode(*node);
    v.id = id;
    return v;
  }

  plan::NodeFactory factory_;
  hv::HvCostModel hv_model_;
  dw::DwCostModel dw_model_;
  transfer::TransferModel transfer_model_;
  MultistoreOptimizer optimizer_;
  ViewCatalog empty_{0};
};

TEST_F(OptimizerTest, EmptyDesignPicksCheapestSplit) {
  auto plan = testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                            false);
  auto best = optimizer_.Optimize(*plan, empty_, empty_);
  ASSERT_TRUE(best.ok());
  // The best plan can never be worse than HV-only.
  auto hv_only = optimizer_.OptimizeHvOnly(*plan, empty_, false);
  ASSERT_TRUE(hv_only.ok());
  EXPECT_LE(best->cost.Total(), hv_only->cost.Total());
}

TEST_F(OptimizerTest, HvOnlyPlanHasNoDwComponents) {
  auto plan = testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                            false);
  auto ms = optimizer_.OptimizeHvOnly(*plan, empty_, false);
  ASSERT_TRUE(ms.ok());
  EXPECT_TRUE(ms->HvOnly());
  EXPECT_EQ(ms->cost.dw_exec_s, 0);
  EXPECT_EQ(ms->cost.dump_s, 0);
  EXPECT_EQ(ms->transferred_bytes, 0);
  EXPECT_GT(ms->cost.hv_exec_s, 0);
}

TEST_F(OptimizerTest, EnumerateAllPlansMatchesFigure3Shape) {
  // DW-compatible UDFs so early (pre-join) splits exist, as in Figure 3.
  auto plan = testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                            true);
  auto plans = optimizer_.EnumerateAllPlans(*plan);
  ASSERT_TRUE(plans.ok());
  ASSERT_GT(plans->size(), 3u);

  Seconds best = 1e18;
  Seconds worst = 0;
  Seconds hv_only = 0;
  for (const MultistorePlan& p : *plans) {
    best = std::min(best, p.cost.Total());
    worst = std::max(worst, p.cost.Total());
    if (p.HvOnly()) hv_only = p.cost.Total();
  }
  ASSERT_GT(hv_only, 0);
  // Figure 3: the best split is modestly better than HV-only; the worst
  // (earliest) split is far more expensive.
  EXPECT_LE(best, hv_only);
  EXPECT_GE(best, 0.7 * hv_only);
  EXPECT_GT(worst, 1.2 * hv_only);
}

TEST_F(OptimizerTest, DwViewEnablesFullyDwPlan) {
  auto plan = testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                            /*udf_dw_compatible=*/true);
  // Materialize the second join's output into DW; only udf2/agg remain...
  // here: materialize the UDF output (everything below the landmarks join).
  NodePtr udf = FindNode(*plan, OpKind::kUdf);
  NodePtr lm_filter;
  for (const NodePtr& node : plan->PostOrder()) {
    if (node->kind() == OpKind::kFilter &&
        node->output_schema().HasField("region")) {
      lm_filter = node;
    }
  }
  ASSERT_NE(udf, nullptr);
  ASSERT_NE(lm_filter, nullptr);

  ViewCatalog dw(kTiB);
  ASSERT_TRUE(dw.Add(Harvest(udf, 1)).ok());
  ASSERT_TRUE(dw.Add(Harvest(lm_filter, 2)).ok());

  auto best = optimizer_.Optimize(*plan, dw, empty_);
  ASSERT_TRUE(best.ok());
  EXPECT_TRUE(best->FullyDw())
      << "all leaves answered from DW views, suffix all DW-executable";
  EXPECT_EQ(best->cost.hv_exec_s, 0);
  EXPECT_LT(best->cost.Total(), 100)
      << "a fully-DW repeat runs in seconds, not kiloseconds";
}

TEST_F(OptimizerTest, DwViewBelowHvOnlyUdfFallsBack) {
  auto plan = testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                            /*udf_dw_compatible=*/false);
  // The twitter-side filtered view in DW sits below the HV-only UDF: the
  // DW rewrite admits no feasible split, so the optimizer must fall back
  // (and never error).
  NodePtr tw_filter;
  for (const NodePtr& node : plan->PostOrder()) {
    if (node->kind() == OpKind::kFilter &&
        node->output_schema().HasField("topic")) {
      tw_filter = node;
    }
  }
  ASSERT_NE(tw_filter, nullptr);
  ViewCatalog dw(kTiB);
  ASSERT_TRUE(dw.Add(Harvest(tw_filter, 1)).ok());

  auto best = optimizer_.Optimize(*plan, dw, empty_);
  ASSERT_TRUE(best.ok());
  // The chosen plan cannot read the DW view from HV; it must not contain
  // a DW-resident ViewScan on the HV side.
  for (const NodePtr& node : best->executed.PostOrder()) {
    if (node->kind() == OpKind::kViewScan) {
      EXPECT_EQ(node->view_scan().store, StoreKind::kDw);
    }
  }
}

TEST_F(OptimizerTest, HvViewsReduceHvCost) {
  auto plan = testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                            false);
  NodePtr udf = FindNode(*plan, OpKind::kUdf);
  ViewCatalog hv(kTiB);
  ASSERT_TRUE(hv.Add(Harvest(udf, 1)).ok());

  auto with_views = optimizer_.OptimizeHvOnly(*plan, hv, /*use_views=*/true);
  auto without = optimizer_.OptimizeHvOnly(*plan, hv, /*use_views=*/false);
  ASSERT_TRUE(with_views.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_LT(with_views->cost.Total(), 0.5 * without->cost.Total());
}

TEST_F(OptimizerTest, WhatIfCostMatchesOptimize) {
  auto plan = testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                            false);
  auto best = optimizer_.Optimize(*plan, empty_, empty_);
  WhatIfSession session;
  auto what_if = optimizer_.WhatIfCost(*plan, empty_, empty_, session);
  ASSERT_TRUE(best.ok());
  ASSERT_TRUE(what_if.ok());
  EXPECT_EQ(*what_if, best->cost.Total());
}

TEST_F(OptimizerTest, TransferredBytesMatchCutInputs) {
  auto plan = testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                            false);
  auto plans = optimizer_.EnumerateAllPlans(*plan);
  ASSERT_TRUE(plans.ok());
  for (const MultistorePlan& p : *plans) {
    Bytes expected = 0;
    for (const NodePtr& cut : p.cut_inputs) expected += cut->stats().bytes;
    EXPECT_EQ(p.transferred_bytes, expected);
    if (p.HvOnly()) {
      EXPECT_EQ(p.transferred_bytes, 0);
    }
  }
}

TEST_F(OptimizerTest, DwOperatorFractionConsistent) {
  auto plan = testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                            true);
  auto plans = optimizer_.EnumerateAllPlans(*plan);
  ASSERT_TRUE(plans.ok());
  for (const MultistorePlan& p : *plans) {
    const double frac = p.DwOperatorFraction();
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
    if (p.HvOnly()) {
      EXPECT_DOUBLE_EQ(frac, 0.0);
    }
  }
}

}  // namespace
}  // namespace miso::optimizer
