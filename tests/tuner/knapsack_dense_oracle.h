#ifndef MISO_TESTS_TUNER_KNAPSACK_DENSE_ORACLE_H_
#define MISO_TESTS_TUNER_KNAPSACK_DENSE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "tuner/knapsack.h"

namespace miso::tuner {

/// Reference oracle for `SolveMKnapsack`: the paper's §4.4.1 recurrence
/// as a dense rolling-row grid DP over the (B+1) x (T+1) plane, with one
/// take-bit per (item, cell) for reconstruction. It is the literal form
/// of the recurrence, so the sparse production solver is pinned to it
/// bit for bit (same chosen set, same total down to the last ULP).
///
/// Budget beyond the total weight of the positive-benefit items never
/// binds, so the oracle first clamps each budget to that total (an exact
/// reduction: every cell past it holds the same value and take-bit as the
/// cell at it). It refuses, with InvalidArgument, a clamped plane larger
/// than `kDenseKnapsackPlaneLimit` cells.
///
/// Errors on negative budgets or items with negative weights, like
/// `SolveMKnapsack`.
Result<MKnapsackSolution> SolveMKnapsackDense(
    const std::vector<MKnapsackItem>& items, int64_t storage_budget_units,
    int64_t transfer_budget_units);

}  // namespace miso::tuner

#endif  // MISO_TESTS_TUNER_KNAPSACK_DENSE_ORACLE_H_
