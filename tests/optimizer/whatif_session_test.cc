// WhatIfSession exactness: the memoized what-if path (`WhatIfCost`) must
// return bit-identical totals to `Optimize` for every catalog shape the
// tuner probes with — same catalog in both stores, single-store, empty,
// and two genuinely different catalogs — on both the miss (first probe)
// and hit (repeat probe) sides of both memo levels, with verification on
// and off. Under verification a wrong memo answer fails with V130. The
// session is an optimization layer only; see DESIGN.md §15.4 for the
// exactness argument and docs/PERFORMANCE.md for why it exists.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.h"
#include "dw/dw_cost_model.h"
#include "hv/hv_cost_model.h"
#include "hv/hv_store.h"
#include "optimizer/multistore_optimizer.h"
#include "plan/node_factory.h"
#include "transfer/transfer_model.h"
#include "verify/error_codes.h"
#include "verify/verify_gate.h"
#include "views/view_catalog.h"

namespace miso::optimizer {

// Befriended by WhatIfSession: overwrites memoized answers so a test can
// show which check catches a wrong one.
class WhatIfSessionTestPeer {
 public:
  /// Sets every probe-level answer to `total`; returns how many there were.
  static size_t PoisonProbeTotals(WhatIfSession& session, Seconds total) {
    MutexLock lock(session.mu_);
    for (auto& [key, answer] : session.probe_totals_) answer = total;
    return session.probe_totals_.size();
  }
};

namespace {

using testing_util::PaperCatalog;
using views::View;
using views::ViewCatalog;

class WhatIfSessionTest : public ::testing::Test {
 protected:
  WhatIfSessionTest()
      : factory_(&PaperCatalog()),
        hv_model_(hv::HvConfig{}),
        dw_model_(dw::DwConfig{}),
        transfer_model_(transfer::TransferConfig{}),
        optimizer_(&factory_, &hv_model_, &dw_model_, &transfer_model_),
        empty_(kTiB) {
    // Harvest realistic opportunistic views from a few executed queries
    // (the same way the tuner's candidate pool is built).
    const char* topics[] = {"c%", "d%", "m%"};
    uint64_t next_id = 1;
    for (int q = 0; q < 3; ++q) {
      auto plan = *testing_util::MakeAnalystPlan(
          &PaperCatalog(), "s" + std::to_string(q), topics[q], 0.1,
          /*dw_udfs=*/true);
      hv::HvStore store(hv::HvConfig{}, kTiB * 100);
      auto exec = store.Execute(plan.root(), q, 0, &next_id,
                                plan.signature());
      EXPECT_TRUE(exec.ok()) << exec.status().ToString();
      for (View& v : exec->produced_views) views_.push_back(std::move(v));
      queries_.push_back(std::move(plan));
    }
    // The first query again up to one filter's selectivity: the same
    // signature, a different cost — the probe memo must tell them apart.
    queries_.push_back(*testing_util::MakeAnalystPlan(
        &PaperCatalog(), "s0_wide", topics[0], 0.3, /*dw_udfs=*/true));
    EXPECT_EQ(queries_[0].signature(), queries_.back().signature());
  }

  ViewCatalog CatalogOf(const std::vector<View>& views) const {
    ViewCatalog catalog(kTiB * 100);
    for (const View& v : views) EXPECT_TRUE(catalog.AddUnchecked(v).ok());
    return catalog;
  }

  plan::NodeFactory factory_;
  hv::HvCostModel hv_model_;
  dw::DwCostModel dw_model_;
  transfer::TransferModel transfer_model_;
  MultistoreOptimizer optimizer_;
  ViewCatalog empty_;
  std::vector<plan::Plan> queries_;
  std::vector<View> views_;
};

TEST_F(WhatIfSessionTest, SessionTotalsMatchThePlainPathExactly) {
  ASSERT_GE(views_.size(), 2u);
  const ViewCatalog hypothetical = CatalogOf(views_);
  const ViewCatalog first = CatalogOf({views_[0]});
  const ViewCatalog second = CatalogOf({views_[1]});

  // Both gate states: verification adds the answer check on top of the
  // memo, it never replaces it.
  for (bool verified : {false, true}) {
    verify::ScopedVerification gate(verified);
    WhatIfSession session;
    for (const plan::Plan& q : queries_) {
      struct Shape {
        const char* name;
        const ViewCatalog* dw;
        const ViewCatalog* hv;
      };
      // Every catalog shape the benefit analyzer produces, plus genuinely
      // different catalogs per store (exercises the combined rewrite).
      const Shape shapes[] = {
          {"both stores, same catalog", &hypothetical, &hypothetical},
          {"dw only", &hypothetical, &empty_},
          {"hv only", &empty_, &hypothetical},
          {"empty design", &empty_, &empty_},
          {"different catalogs", &first, &second},
      };
      for (const Shape& shape : shapes) {
        SCOPED_TRACE(std::string(q.query_name()) + ": " + shape.name +
                     (verified ? " (verified)" : ""));
        auto plain = optimizer_.Optimize(q, *shape.dw, *shape.hv);
        ASSERT_TRUE(plain.ok()) << plain.status().ToString();
        // Miss side: first probe of this shape through the session.
        auto miss = optimizer_.WhatIfCost(q, *shape.dw, *shape.hv, session);
        ASSERT_TRUE(miss.ok()) << miss.status().ToString();
        EXPECT_EQ(plain->cost.Total(), *miss);
        // Hit side: repeat probe answered from the probe-level memo.
        auto hit = optimizer_.WhatIfCost(q, *shape.dw, *shape.hv, session);
        ASSERT_TRUE(hit.ok()) << hit.status().ToString();
        EXPECT_EQ(plain->cost.Total(), *hit);
      }
    }
  }
}

TEST_F(WhatIfSessionTest, ProbeMemoKeysOnContentNotObjectIdentity) {
  // Two catalogs built independently from the same views (fresh objects,
  // re-numbered ids) must share memo entries — and, more importantly,
  // share answers: cost identity is content identity.
  std::vector<View> renumbered = views_;
  for (size_t i = 0; i < renumbered.size(); ++i) {
    renumbered[i].id = 1000 + i;
  }
  const ViewCatalog a = CatalogOf(views_);
  const ViewCatalog b = CatalogOf(renumbered);
  EXPECT_EQ(a.ContentFingerprint(), b.ContentFingerprint());

  for (bool verified : {false, true}) {
    verify::ScopedVerification gate(verified);
    WhatIfSession session;
    for (const plan::Plan& q : queries_) {
      SCOPED_TRACE(std::string(q.query_name()) +
                   (verified ? " (verified)" : ""));
      auto via_a = optimizer_.WhatIfCost(q, a, a, session);
      auto via_b = optimizer_.WhatIfCost(q, b, b, session);
      ASSERT_TRUE(via_a.ok() && via_b.ok());
      EXPECT_EQ(*via_a, *via_b);
      auto plain = optimizer_.Optimize(q, a, a);
      ASSERT_TRUE(plain.ok());
      EXPECT_EQ(plain->cost.Total(), *via_a);
    }
  }
}

TEST_F(WhatIfSessionTest, VerificationCatchesAPoisonedMemoEntry) {
  // One wrong memo entry is exactly the failure the answer check exists
  // for: with verification off the memo's word is final and the wrong
  // total goes out; with it on, the probe fails with V130.
  const ViewCatalog hypothetical = CatalogOf(views_);
  const plan::Plan& q = queries_[0];
  auto truth = optimizer_.Optimize(q, hypothetical, hypothetical);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  const Seconds poison = truth->cost.Total() + 1.0;

  WhatIfSession session;
  {
    verify::ScopedVerification off(false);
    ASSERT_TRUE(
        optimizer_.WhatIfCost(q, hypothetical, hypothetical, session).ok());
    ASSERT_EQ(WhatIfSessionTestPeer::PoisonProbeTotals(session, poison), 1u);
    auto unchecked =
        optimizer_.WhatIfCost(q, hypothetical, hypothetical, session);
    ASSERT_TRUE(unchecked.ok()) << unchecked.status().ToString();
    EXPECT_EQ(*unchecked, poison);
  }
  verify::ScopedVerification on(true);
  auto checked = optimizer_.WhatIfCost(q, hypothetical, hypothetical, session);
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(verify::ExtractVerifyCode(checked.status()),
            verify::VerifyCode::kWhatIfAnswerDrift)
      << checked.status().ToString();
}

}  // namespace
}  // namespace miso::optimizer
