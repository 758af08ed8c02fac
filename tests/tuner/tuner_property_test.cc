// Property/stress tests for the tuner's packing machinery: randomized
// small M-KNAPSACK instances are cross-checked against brute-force subset
// enumeration (which is exact for n <= 12), and sparsification invariants
// are exercised over randomized candidate sets. Seeds are fixed, so every
// run replays the same instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "../test_util.h"
#include "knapsack_dense_oracle.h"
#include "tuner/interaction.h"
#include "tuner/knapsack.h"
#include "tuner/sparsify.h"
#include "views/view.h"

namespace miso::tuner {
namespace {

using plan::NodePtr;
using plan::OpKind;
using testing_util::PaperCatalog;
using views::View;

struct BruteForceResult {
  double best_benefit = 0;
  bool chosen_feasible = false;
  double chosen_benefit = 0;
};

/// Exhaustive 0/1 enumeration over all 2^n subsets. Also re-validates the
/// solver's reported chosen set against the raw items.
BruteForceResult BruteForce(const std::vector<MKnapsackItem>& items,
                            int64_t storage_budget, int64_t transfer_budget,
                            const MKnapsackSolution& solution) {
  BruteForceResult result;
  const int n = static_cast<int>(items.size());
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    int64_t storage = 0;
    int64_t transfer = 0;
    double benefit = 0;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) {
        storage += items[static_cast<size_t>(i)].storage_units;
        transfer += items[static_cast<size_t>(i)].transfer_units;
        benefit += items[static_cast<size_t>(i)].benefit;
      }
    }
    if (storage <= storage_budget && transfer <= transfer_budget) {
      result.best_benefit = std::max(result.best_benefit, benefit);
    }
  }

  int64_t storage = 0;
  int64_t transfer = 0;
  for (int id : solution.chosen_ids) {
    const MKnapsackItem* item = nullptr;
    for (const MKnapsackItem& candidate : items) {
      if (candidate.id == id) item = &candidate;
    }
    if (item == nullptr) return result;  // unknown id: infeasible
    storage += item->storage_units;
    transfer += item->transfer_units;
    result.chosen_benefit += item->benefit;
  }
  result.chosen_feasible =
      storage <= storage_budget && transfer <= transfer_budget &&
      storage == solution.storage_used && transfer == solution.transfer_used;
  return result;
}

TEST(KnapsackPropertyTest, MatchesBruteForceOnRandomInstances) {
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<int> n_dist(0, 12);
  std::uniform_int_distribution<int64_t> storage_dist(0, 6);
  std::uniform_int_distribution<int64_t> transfer_dist(0, 4);
  std::uniform_real_distribution<double> benefit_dist(-2.0, 10.0);
  std::bernoulli_distribution zero_transfer(0.4);  // §4.4.1 Case 2 items
  std::uniform_int_distribution<int64_t> budget_dist(0, 14);

  for (int instance = 0; instance < 250; ++instance) {
    const int n = n_dist(rng);
    std::vector<MKnapsackItem> items;
    items.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      MKnapsackItem item;
      item.id = i;
      item.storage_units = storage_dist(rng);
      item.transfer_units = zero_transfer(rng) ? 0 : transfer_dist(rng);
      item.benefit = benefit_dist(rng);
      items.push_back(item);
    }
    const int64_t storage_budget = budget_dist(rng);
    const int64_t transfer_budget = budget_dist(rng) / 2;

    auto solution = SolveMKnapsack(items, storage_budget, transfer_budget);
    ASSERT_TRUE(solution.ok())
        << "instance " << instance << ": " << solution.status().ToString();

    const BruteForceResult expected =
        BruteForce(items, storage_budget, transfer_budget, *solution);
    SCOPED_TRACE("instance=" + std::to_string(instance) + " n=" +
                 std::to_string(n) + " B=" + std::to_string(storage_budget) +
                 " T=" + std::to_string(transfer_budget));
    // The DP must be exactly optimal; both sides sum the same doubles so
    // only association order can differ.
    EXPECT_NEAR(solution->total_benefit, expected.best_benefit,
                1e-9 * std::max(1.0, expected.best_benefit));
    EXPECT_TRUE(expected.chosen_feasible)
        << "reported chosen set is infeasible or misaccounted";
    EXPECT_NEAR(solution->total_benefit, expected.chosen_benefit,
                1e-9 * std::max(1.0, std::fabs(expected.chosen_benefit)));
    for (int id : solution->chosen_ids) {
      EXPECT_GT(items[static_cast<size_t>(id)].benefit, 0)
          << "non-positive-benefit items must never be packed";
    }
  }
}

TEST(KnapsackPropertyTest, SparseAndDenseSolversAreBitIdentical) {
  // SolveMKnapsack (the sparse frontier DP) is specified as a drop-in for
  // the §4.4.1 grid recurrence: on every instance it must return the
  // exact chosen set and the exact total (EXPECT_EQ on doubles, no
  // tolerance) of the dense oracle. Random instances plus the degenerate
  // budgets 0, 1, and INT64_MAX (the latter checked against brute force
  // instead), then tuner-shaped instances.
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> n_dist(0, 12);
  std::uniform_int_distribution<int64_t> storage_dist(0, 6);
  std::uniform_int_distribution<int64_t> transfer_dist(0, 4);
  std::uniform_real_distribution<double> benefit_dist(-2.0, 10.0);
  std::uniform_int_distribution<int64_t> budget_dist(0, 14);

  for (int instance = 0; instance < 200; ++instance) {
    const int n = n_dist(rng);
    std::vector<MKnapsackItem> items;
    items.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      MKnapsackItem item;
      item.id = i;
      item.storage_units = storage_dist(rng);
      item.transfer_units = transfer_dist(rng);
      item.benefit = benefit_dist(rng);
      items.push_back(item);
    }
    int64_t storage_budget = budget_dist(rng);
    int64_t transfer_budget = budget_dist(rng) / 2;
    if (instance % 5 == 1) storage_budget = 0;
    if (instance % 5 == 2) storage_budget = 1;
    if (instance % 7 == 3) transfer_budget = 0;
    if (instance % 7 == 4) transfer_budget = 1;
    SCOPED_TRACE("instance=" + std::to_string(instance) + " n=" +
                 std::to_string(n) + " B=" + std::to_string(storage_budget) +
                 " T=" + std::to_string(transfer_budget));

    auto dense = SolveMKnapsackDense(items, storage_budget, transfer_budget);
    auto sparse = SolveMKnapsack(items, storage_budget, transfer_budget);
    ASSERT_TRUE(dense.ok()) << dense.status().ToString();
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    EXPECT_EQ(sparse->chosen_ids, dense->chosen_ids);
    EXPECT_EQ(sparse->total_benefit, dense->total_benefit);
    EXPECT_EQ(sparse->storage_used, dense->storage_used);
    EXPECT_EQ(sparse->transfer_used, dense->transfer_used);

    // Unbounded budgets: dense cannot allocate the plane, so validate the
    // sparse result against brute force — it must pack exactly the
    // positive-benefit items.
    const int64_t huge = std::numeric_limits<int64_t>::max();
    auto unbounded = SolveMKnapsack(items, huge, huge);
    ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
    std::vector<int> positives;
    double positive_total = 0;
    for (const MKnapsackItem& item : items) {
      if (item.benefit > 0) {
        positives.push_back(item.id);
        positive_total += item.benefit;
      }
    }
    EXPECT_EQ(unbounded->chosen_ids, positives);
    EXPECT_EQ(unbounded->total_benefit, positive_total);
  }

  // Tuner-shaped instances: the DW and HV phases send 40-330 items of
  // which only 9-14 have positive benefit; those use 21-53 storage units
  // of Bd = 400 or Bh = 4096 and 0-53 transfer units against Bt = 10.
  // Non-positive items carry arbitrary weights; twin positive items
  // (same weights and benefit) probe the skip-on-tie rule.
  std::uniform_int_distribution<int> tuner_n_dist(40, 330);
  std::uniform_int_distribution<int> positive_dist(9, 14);
  std::uniform_int_distribution<int64_t> positive_storage_dist(1, 4);
  std::uniform_int_distribution<int64_t> positive_transfer_dist(0, 8);
  std::uniform_int_distribution<int64_t> other_storage_dist(0, 40);
  std::uniform_int_distribution<int64_t> other_transfer_dist(0, 12);
  std::uniform_real_distribution<double> tuner_benefit_dist(1e-3, 1e3);
  for (int instance = 0; instance < 100; ++instance) {
    const int n = tuner_n_dist(rng);
    const int positive = positive_dist(rng);
    const int64_t storage_budget = instance % 2 == 0 ? 400 : 4096;
    const int64_t transfer_budget = 10;
    std::vector<int> order(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<MKnapsackItem> items(static_cast<size_t>(n));
    MKnapsackItem twin;
    for (int i = 0; i < n; ++i) {
      const int id = order[static_cast<size_t>(i)];
      MKnapsackItem& item = items[static_cast<size_t>(id)];
      item.id = id;
      if (i < positive) {
        if (i % 4 == 3) {
          item.storage_units = twin.storage_units;
          item.transfer_units = twin.transfer_units;
          item.benefit = twin.benefit;
        } else {
          item.storage_units = positive_storage_dist(rng);
          // About half of a phase's items already reside in the target
          // store and move for free.
          item.transfer_units = i % 2 == 0 ? 0 : positive_transfer_dist(rng);
          item.benefit = tuner_benefit_dist(rng);
        }
        if (i % 4 == 1) twin = item;
      } else {
        item.storage_units = other_storage_dist(rng);
        item.transfer_units = other_transfer_dist(rng);
        item.benefit = i % 3 == 0 ? 0.0 : -tuner_benefit_dist(rng);
      }
    }
    SCOPED_TRACE("tuner-shaped instance=" + std::to_string(instance) +
                 " n=" + std::to_string(n) + " positive=" +
                 std::to_string(positive) + " B=" +
                 std::to_string(storage_budget));

    auto dense = SolveMKnapsackDense(items, storage_budget, transfer_budget);
    auto sparse = SolveMKnapsack(items, storage_budget, transfer_budget);
    ASSERT_TRUE(dense.ok()) << dense.status().ToString();
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    EXPECT_EQ(sparse->chosen_ids, dense->chosen_ids);
    EXPECT_EQ(sparse->total_benefit, dense->total_benefit);
    EXPECT_EQ(sparse->storage_used, dense->storage_used);
    EXPECT_EQ(sparse->transfer_used, dense->transfer_used);
  }
}

TEST(KnapsackPropertyTest, ToBudgetUnitsIsACeilingDivision) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<int64_t> size_dist(0, int64_t{1} << 40);
  std::uniform_int_distribution<int64_t> unit_dist(1, int64_t{1} << 30);
  for (int i = 0; i < 1000; ++i) {
    const int64_t size = size_dist(rng);
    const int64_t unit = unit_dist(rng);
    const int64_t units = ToBudgetUnits(size, unit);
    // Enough units to hold the size, but not one more than needed.
    EXPECT_GE(units * unit, size);
    EXPECT_LT((units - 1) * unit, size);
    if (size == 0) {
      EXPECT_EQ(units, 0);
    }
  }
}

class SparsifyPropertyTest : public ::testing::Test {
 protected:
  SparsifyPropertyTest()
      : factory_(&PaperCatalog()),
        hv_model_(hv::HvConfig{}),
        dw_model_(dw::DwConfig{}),
        transfer_model_(transfer::TransferConfig{}),
        optimizer_(&factory_, &hv_model_, &dw_model_, &transfer_model_),
        analyzer_(&optimizer_, 3, 0.6) {}

  plan::NodeFactory factory_;
  hv::HvCostModel hv_model_;
  dw::DwCostModel dw_model_;
  transfer::TransferModel transfer_model_;
  optimizer::MultistoreOptimizer optimizer_;
  BenefitAnalyzer analyzer_;
};

TEST_F(SparsifyPropertyTest, InvariantsHoldOverRandomizedCandidateSets) {
  std::mt19937 rng(4242);
  std::uniform_real_distribution<double> selectivity(0.05, 0.6);
  const char* patterns[] = {"c%", "z%", "a%", "m%"};

  for (int round = 0; round < 6; ++round) {
    // A few analyst plans with randomized parameters; harvest every
    // materializable operator as a candidate view.
    std::vector<plan::Plan> window;
    std::vector<View> candidates;
    views::ViewId next_id = 1;
    const int num_queries = 2 + static_cast<int>(rng() % 2);
    for (int q = 0; q < num_queries; ++q) {
      auto p = testing_util::MakeAnalystPlan(
          &PaperCatalog(), "q" + std::to_string(round) + "_" +
                               std::to_string(q),
          patterns[rng() % 4], selectivity(rng), true);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      for (const NodePtr& node : p->PostOrder()) {
        if (node->kind() == OpKind::kUdf || node->kind() == OpKind::kJoin) {
          View v = views::ViewFromNode(*node);
          v.id = next_id++;
          candidates.push_back(std::move(v));
        }
      }
      window.push_back(std::move(*p));
    }
    ASSERT_TRUE(analyzer_.SetWindow(window).ok());

    auto interactions =
        ComputeInteractions(candidates, &analyzer_, InteractionConfig{});
    ASSERT_TRUE(interactions.ok()) << interactions.status().ToString();
    auto parts = StablePartition(static_cast<int>(candidates.size()),
                                 *interactions);
    auto items = SparsifySets(candidates, parts, *interactions, &analyzer_);
    ASSERT_TRUE(items.ok()) << items.status().ToString();

    SCOPED_TRACE("round=" + std::to_string(round));
    // Exactly one knapsack item per part.
    ASSERT_EQ(items->size(), parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      const CandidateItem& item = (*items)[p];
      // Members come from the item's own part, without duplicates.
      std::set<views::ViewId> part_ids;
      for (int idx : parts[p]) {
        part_ids.insert(candidates[static_cast<size_t>(idx)].id);
      }
      std::set<views::ViewId> member_ids;
      Bytes sum = 0;
      for (const View& member : item.members) {
        EXPECT_TRUE(part_ids.count(member.id) > 0)
            << "member " << member.id << " not in part " << p;
        EXPECT_TRUE(member_ids.insert(member.id).second)
            << "member " << member.id << " duplicated";
        sum += member.size_bytes;
      }
      EXPECT_FALSE(item.members.empty());
      EXPECT_EQ(item.size_bytes, sum);
      // Benefits are clamped savings: finite and non-negative, and the
      // joint benefit can never lose to a single placement's benefit.
      for (double b : {item.benefit_both, item.benefit_dw, item.benefit_hv}) {
        EXPECT_TRUE(std::isfinite(b));
        EXPECT_GE(b, 0);
      }
    }
  }
}

}  // namespace
}  // namespace miso::tuner
