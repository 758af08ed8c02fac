#include "knapsack_dense_oracle.h"

#include <algorithm>
#include <utility>

namespace miso::tuner {

namespace {

/// `budget` clamped to the total `weight` of the positive-benefit items.
int64_t PackableBudget(const std::vector<MKnapsackItem>& items,
                       int64_t budget, int64_t MKnapsackItem::*weight) {
  int64_t total = 0;
  for (const MKnapsackItem& item : items) {
    if (item.benefit <= 0) continue;
    const int64_t w = item.*weight;
    total = w >= budget - total ? budget : total + w;
  }
  return total;
}

}  // namespace

Result<MKnapsackSolution> SolveMKnapsackDense(
    const std::vector<MKnapsackItem>& items, int64_t storage_budget_units,
    int64_t transfer_budget_units) {
  if (storage_budget_units < 0 || transfer_budget_units < 0) {
    return Status::InvalidArgument("knapsack budgets must be non-negative");
  }
  for (const MKnapsackItem& item : items) {
    if (item.storage_units < 0 || item.transfer_units < 0) {
      return Status::InvalidArgument("knapsack item weights must be >= 0");
    }
  }

  const int n = static_cast<int>(items.size());
  const int64_t kB = PackableBudget(items, storage_budget_units,
                                    &MKnapsackItem::storage_units);
  const int64_t kT = PackableBudget(items, transfer_budget_units,
                                    &MKnapsackItem::transfer_units);
  // Both factors are bounded first, so the product cannot overflow.
  if (kB >= kDenseKnapsackPlaneLimit || kT >= kDenseKnapsackPlaneLimit ||
      (kB + 1) * (kT + 1) > kDenseKnapsackPlaneLimit) {
    return Status::InvalidArgument(
        "dense oracle plane exceeds kDenseKnapsackPlaneLimit cells");
  }
  const size_t plane =
      static_cast<size_t>(kB + 1) * static_cast<size_t>(kT + 1);

  // value[b * (T+1) + t]: best benefit using items[0..k) with b storage and
  // t transfer remaining capacity consumed at most. Rolling layers with a
  // per-(item, cell) take/skip bit for reconstruction.
  std::vector<double> value(plane, 0.0);
  std::vector<double> next(plane, 0.0);
  // take[k][cell]: whether item k is taken at that capacity.
  std::vector<std::vector<bool>> take(static_cast<size_t>(n));

  auto idx = [kT](int64_t b, int64_t t) {
    return static_cast<size_t>(b) * static_cast<size_t>(kT + 1) +
           static_cast<size_t>(t);
  };

  for (int k = 0; k < n; ++k) {
    const MKnapsackItem& item = items[static_cast<size_t>(k)];
    take[static_cast<size_t>(k)].assign(plane, false);
    for (int64_t b = 0; b <= kB; ++b) {
      for (int64_t t = 0; t <= kT; ++t) {
        const size_t cell = idx(b, t);
        double best = value[cell];  // skip item k
        const bool fits = item.storage_units <= b &&
                          item.transfer_units <= t;
        if (fits && item.benefit > 0) {
          const double with =
              value[idx(b - item.storage_units, t - item.transfer_units)] +
              item.benefit;
          if (with > best) {
            best = with;
            take[static_cast<size_t>(k)][cell] = true;
          }
        }
        next[cell] = best;
      }
    }
    std::swap(value, next);
  }

  // Reconstruct choices from the last item backwards; the total is the
  // left-fold of the chosen benefits in item order.
  std::vector<int> chosen;
  int64_t b = kB;
  int64_t t = kT;
  for (int k = n - 1; k >= 0; --k) {
    if (take[static_cast<size_t>(k)][idx(b, t)]) {
      chosen.push_back(k);
      b -= items[static_cast<size_t>(k)].storage_units;
      t -= items[static_cast<size_t>(k)].transfer_units;
    }
  }
  std::reverse(chosen.begin(), chosen.end());
  MKnapsackSolution solution;
  for (int k : chosen) {
    const MKnapsackItem& item = items[static_cast<size_t>(k)];
    solution.chosen_ids.push_back(item.id);
    solution.total_benefit += item.benefit;
    solution.storage_used += item.storage_units;
    solution.transfer_used += item.transfer_units;
  }
  return solution;
}

}  // namespace miso::tuner
