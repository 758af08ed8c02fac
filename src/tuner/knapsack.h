#ifndef MISO_TUNER_KNAPSACK_H_
#define MISO_TUNER_KNAPSACK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace miso::tuner {

/// One item of the multidimensional knapsack (M-KNAPSACK, paper §4.4):
/// after interaction handling, each item is a single candidate view or a
/// merged group of positively-interacting views.
struct MKnapsackItem {
  /// Caller-side identifier (index into the candidate list).
  int id = 0;
  /// Storage-budget units consumed if packed (discretized, >= 0).
  int64_t storage_units = 0;
  /// Transfer-budget units consumed if packed (0 when the item already
  /// resides in the target store — paper §4.4.1 Case 2).
  int64_t transfer_units = 0;
  /// Expected (predicted future) benefit of packing the item.
  double benefit = 0;
};

/// Solution of one M-KNAPSACK instance.
struct MKnapsackSolution {
  std::vector<int> chosen_ids;
  double total_benefit = 0;
  int64_t storage_used = 0;
  int64_t transfer_used = 0;
};

/// Solves the 0/1 two-dimensional knapsack exactly as the recurrences of
/// §4.4.1: an item consuming transfer must fit in both dimensions; an item
/// with transfer_units == 0 only needs storage. Items with non-positive
/// benefit are never packed; choices are reconstructed so the caller
/// learns the exact packed set.
///
/// A sparse frontier DP (DESIGN.md §15.2). Per item prefix it keeps only
/// the non-dominated (storage, transfer, value) states — a state is
/// dropped when another uses no more of either budget and achieves at
/// least its value — with a suffix-slack clamp that collapses a budget
/// dimension entirely once the remaining items cannot overflow it (the
/// common tuner regime: Bd or Bh far above the candidate bytes).
/// Non-positive items are skipped outright. Memory and time scale with
/// the frontier, not the (B+1) x (T+1) budget grid, so any budget works
/// (including INT64_MAX). The solution is bit-identical to the §4.4.1
/// grid DP (same chosen set, same total down to the last ULP), pinned
/// against a dense reference in the tests.
///
/// The frontier is small when few items have positive benefit or a
/// dimension is slack (the tuner's instances: a frontier of at most ~11
/// states). Many positive items under tight budgets in both dimensions
/// grow it toward the full grid, where a dense sweep would be faster.
///
/// Errors on negative budgets or items with negative weights.
Result<MKnapsackSolution> SolveMKnapsack(
    const std::vector<MKnapsackItem>& items, int64_t storage_budget_units,
    int64_t transfer_budget_units);

/// The (B+1) x (T+1) plane size, in cells, at or below which the
/// retired dense/sparse dispatch sent a solve to the dense grid DP. No
/// production solve depends on it. perfbench still classifies solves by
/// it, and the dense reference DP in the tests refuses to allocate a
/// plane larger than this.
inline constexpr int64_t kDenseKnapsackPlaneLimit = 8192;

/// Discretizes a byte size into budget units of `unit_bytes`, rounding up
/// (a view never fits a budget it exceeds). Zero stays zero.
int64_t ToBudgetUnits(int64_t size_bytes, int64_t unit_bytes);

}  // namespace miso::tuner

#endif  // MISO_TUNER_KNAPSACK_H_
