// Grain-sweep determinism: a full tuning pass and a full optimizer
// enumeration must be byte-identical for every combination of
// MISO_THREADS {1, 2, 8} and MISO_PARALLEL_GRAIN {1, 16, 256}. Batching
// many body indices into one pool task (ParallelForOptions::grain) may
// only change how work is packed onto workers — never which probes run,
// what any of them returns, or how results are reduced (reductions are
// serial in index order). This pins the contract documented in
// docs/PERFORMANCE.md and DESIGN.md §15.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../test_util.h"
#include "common/thread_pool.h"
#include "hv/hv_store.h"
#include "tuner/miso_tuner.h"
#include "tuner/reorg_plan.h"
#include "verify/verify_gate.h"

namespace miso::tuner {
namespace {

using testing_util::PaperCatalog;
using views::View;
using views::ViewCatalog;

/// Saves/restores one environment variable around a test body.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    old_value_ = had_old_ ? old : "";
    setenv(name, value.c_str(), /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_value_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_value_;
};

/// Exact equality of two reorganization plans: same views, same order,
/// same bytes. Catalog ids are deterministic, so id-level equality pins
/// the whole decision.
void ExpectIdenticalReorg(const ReorgPlan& a, const ReorgPlan& b) {
  ASSERT_EQ(a.move_to_dw.size(), b.move_to_dw.size());
  for (size_t i = 0; i < a.move_to_dw.size(); ++i) {
    EXPECT_EQ(a.move_to_dw[i].id, b.move_to_dw[i].id);
    EXPECT_EQ(a.move_to_dw[i].size_bytes, b.move_to_dw[i].size_bytes);
  }
  ASSERT_EQ(a.move_to_hv.size(), b.move_to_hv.size());
  for (size_t i = 0; i < a.move_to_hv.size(); ++i) {
    EXPECT_EQ(a.move_to_hv[i].id, b.move_to_hv[i].id);
  }
  EXPECT_EQ(a.drop_from_hv, b.drop_from_hv);
  EXPECT_EQ(a.drop_from_dw, b.drop_from_dw);
  EXPECT_EQ(a.BytesToDw(), b.BytesToDw());
  EXPECT_EQ(a.BytesToHv(), b.BytesToHv());
}

class GrainIdentityTest : public ::testing::Test {
 protected:
  GrainIdentityTest()
      : factory_(&PaperCatalog()),
        hv_model_(hv::HvConfig{}),
        dw_model_(dw::DwConfig{}),
        transfer_model_(transfer::TransferConfig{}),
        optimizer_(&factory_, &hv_model_, &dw_model_, &transfer_model_),
        hv_(100 * kTiB),
        dw_(400 * kGiB) {
    // A small but interaction-rich window: overlapping topics so several
    // candidate pairs share benefited queries.
    const char* topics[] = {"c%", "c%", "d%", "m%"};
    uint64_t next_id = 1;
    for (int q = 0; q < 4; ++q) {
      auto plan = *testing_util::MakeAnalystPlan(
          &PaperCatalog(), "g" + std::to_string(q), topics[q], 0.1,
          /*dw_udfs=*/true);
      hv::HvStore store(hv::HvConfig{}, kTiB * 100);
      auto exec =
          store.Execute(plan.root(), q, 0, &next_id, plan.signature());
      EXPECT_TRUE(exec.ok()) << exec.status().ToString();
      for (View& v : exec->produced_views) {
        EXPECT_TRUE(hv_.AddUnchecked(std::move(v)).ok());
      }
      window_.push_back(std::move(plan));
    }
  }

  Result<ReorgPlan> TuneOnce(ThreadPool* pool) {
    optimizer_.set_thread_pool(pool);
    MisoTunerConfig config;
    config.hv_storage_budget = 100 * kTiB;
    config.dw_storage_budget = 400 * kGiB;
    config.transfer_budget = 10 * kGiB;
    MisoTuner tuner(&optimizer_, config);
    auto plan = tuner.Tune(hv_, dw_, window_);
    optimizer_.set_thread_pool(nullptr);
    return plan;
  }

  plan::NodeFactory factory_;
  hv::HvCostModel hv_model_;
  dw::DwCostModel dw_model_;
  transfer::TransferModel transfer_model_;
  optimizer::MultistoreOptimizer optimizer_;
  ViewCatalog hv_;
  ViewCatalog dw_;
  std::vector<plan::Plan> window_;
};

TEST_F(GrainIdentityTest, TuningIsByteIdenticalAcrossThreadsAndGrains) {
  // Reference: the serial legacy path — no pool, grain 1.
  ReorgPlan reference;
  {
    ScopedEnv grain_env("MISO_PARALLEL_GRAIN", "1");
    auto plan = TuneOnce(nullptr);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    reference = std::move(*plan);
  }

  for (int threads : {1, 2, 8}) {
    for (int grain : {1, 16, 256}) {
      ScopedEnv grain_env("MISO_PARALLEL_GRAIN", std::to_string(grain));
      ThreadPool pool(threads);
      auto plan = TuneOnce(&pool);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " grain=" + std::to_string(grain));
      ExpectIdenticalReorg(reference, *plan);
    }
  }
}

TEST_F(GrainIdentityTest, TuningIsIdenticalWithAndWithoutVerification) {
  // ctest pins MISO_VERIFY=1, under which every what-if probe answered by
  // the WhatIfSession memo is also re-planned by Optimize and checked.
  // With verification off the same memo path runs unchecked — and must
  // reach the very same reorganization. A second Tune through the same
  // tuner re-answers every probe from the now-warm session memo, so it
  // pins the hit side too.
  auto verified = TuneOnce(nullptr);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();

  verify::ScopedVerification off(false);
  MisoTunerConfig config;
  config.hv_storage_budget = 100 * kTiB;
  config.dw_storage_budget = 400 * kGiB;
  config.transfer_budget = 10 * kGiB;
  MisoTuner tuner(&optimizer_, config);
  auto cold = tuner.Tune(hv_, dw_, window_);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ExpectIdenticalReorg(*verified, *cold);

  auto warm = tuner.Tune(hv_, dw_, window_);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectIdenticalReorg(*verified, *warm);
}

TEST_F(GrainIdentityTest, OptimizerCostsAreBitIdenticalAcrossGrains) {
  // The optimizer's candidate costing fans out through the same batched
  // ParallelFor; its winning plan cost must not move by an ULP.
  auto reference = optimizer_.Optimize(window_[0], dw_, hv_);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (int threads : {2, 8}) {
    for (int grain : {1, 16, 256}) {
      ScopedEnv grain_env("MISO_PARALLEL_GRAIN", std::to_string(grain));
      ThreadPool pool(threads);
      optimizer_.set_thread_pool(&pool);
      auto plan = optimizer_.Optimize(window_[0], dw_, hv_);
      optimizer_.set_thread_pool(nullptr);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " grain=" + std::to_string(grain));
      EXPECT_EQ(reference->executed.signature(), plan->executed.signature());
      EXPECT_EQ(reference->cost.hv_exec_s, plan->cost.hv_exec_s);
      EXPECT_EQ(reference->cost.dump_s, plan->cost.dump_s);
      EXPECT_EQ(reference->cost.transfer_load_s, plan->cost.transfer_load_s);
      EXPECT_EQ(reference->cost.dw_exec_s, plan->cost.dw_exec_s);
      EXPECT_EQ(reference->transferred_bytes, plan->transferred_bytes);
    }
  }
}

}  // namespace
}  // namespace miso::tuner
