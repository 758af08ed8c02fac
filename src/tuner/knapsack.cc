#include "tuner/knapsack.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace miso::tuner {

namespace {

Status ValidateInstance(const std::vector<MKnapsackItem>& items,
                        int64_t storage_budget_units,
                        int64_t transfer_budget_units) {
  if (storage_budget_units < 0 || transfer_budget_units < 0) {
    return Status::InvalidArgument("knapsack budgets must be non-negative");
  }
  for (const MKnapsackItem& item : items) {
    if (item.storage_units < 0 || item.transfer_units < 0) {
      return Status::InvalidArgument("knapsack item weights must be >= 0");
    }
  }
  return Status::OK();
}

/// Builds the solution from the chosen item indices (ascending). The
/// total is the left-fold sum of the chosen benefits in item order —
/// exactly the floating-point expression the dense DP accumulates along
/// its take-chain, so both report bit-identical totals.
MKnapsackSolution MakeSolution(const std::vector<MKnapsackItem>& items,
                               const std::vector<int>& chosen_ascending) {
  MKnapsackSolution solution;
  for (int k : chosen_ascending) {
    const MKnapsackItem& item = items[static_cast<size_t>(k)];
    solution.chosen_ids.push_back(item.id);
    solution.total_benefit += item.benefit;
    solution.storage_used += item.storage_units;
    solution.transfer_used += item.transfer_units;
  }
  return solution;
}

// ---- Sparse frontier DP (DESIGN.md §15.2) -------------------------------
//
// "The dense DP" below is the §4.4.1 recurrence swept over the whole
// (B+1) x (T+1) plane, one rolling row per item. It survives only as the
// tests' reference oracle (tests/tuner/knapsack_dense_oracle.cc), and
// each equivalence claimed below is what the oracle tests pin.

/// One reachable state: the canonical value of some feasible subset of an
/// item prefix at its (possibly slack-clamped, see below) budget use.
struct FrontierState {
  int64_t storage = 0;
  int64_t transfer = 0;
  double value = 0;
};

/// Sweep order for pruning: storage asc, then transfer asc, then value
/// desc — every state's potential dominators precede it.
bool StateOrder(const FrontierState& a, const FrontierState& b) {
  if (a.storage != b.storage) return a.storage < b.storage;
  if (a.transfer != b.transfer) return a.transfer < b.transfer;
  return a.value > b.value;
}

/// Removes every weakly dominated state: drop s when some other state
/// uses no more storage, no more transfer, and has value >= s.value.
/// Dropping such states can never change a `QueryFrontier` answer (the
/// dominator answers every query s answered, at least as well), which is
/// what keeps the sparse solver bit-identical to the dense grid.
///
/// Input must be sorted by `StateOrder`. One sweep with a staircase of
/// (transfer, best value at <= that transfer) over the already-kept
/// states: transfer strictly ascending, value strictly ascending.
std::vector<FrontierState> Prune(const std::vector<FrontierState>& sorted) {
  std::vector<FrontierState> kept;
  std::vector<std::pair<int64_t, double>> stair;
  for (const FrontierState& s : sorted) {
    auto it = std::upper_bound(
        stair.begin(), stair.end(), s.transfer,
        [](int64_t t, const std::pair<int64_t, double>& e) {
          return t < e.first;
        });
    if (it != stair.begin() && std::prev(it)->second >= s.value) {
      continue;  // dominated by an earlier (<= storage, <= transfer) state
    }
    kept.push_back(s);
    auto pos = std::lower_bound(
        stair.begin(), stair.end(), s.transfer,
        [](const std::pair<int64_t, double>& e, int64_t t) {
          return e.first < t;
        });
    auto last = pos;
    while (last != stair.end() && last->second <= s.value) ++last;
    pos = stair.erase(pos, last);
    stair.insert(pos, {s.transfer, s.value});
  }
  return kept;
}

/// f(b, t) over a pruned frontier: the best value among states fitting
/// both remaining budgets. The empty subset (value 0) always fits. This
/// is the same max over the same candidate values the dense DP's cell
/// (b, t) holds, compared with the same strict >.
double QueryFrontier(const std::vector<FrontierState>& frontier, int64_t b,
                     int64_t t) {
  double best = 0.0;
  for (const FrontierState& s : frontier) {
    if (s.storage > b) break;  // sorted by storage ascending
    if (s.transfer <= t && s.value > best) best = s.value;
  }
  return best;
}

int64_t SaturatingAdd(int64_t a, int64_t b) {
  return a > std::numeric_limits<int64_t>::max() - b
             ? std::numeric_limits<int64_t>::max()
             : a + b;
}

/// The suffix-slack clamp floor for one dimension: once the takeable
/// items at index >= k can consume at most `suffix` more units, every
/// state using <= budget - suffix units behaves identically forever
/// (any remaining subset still fits on top of it, and reconstruction
/// queries never probe below budget - suffix). Clamping such states up
/// to the floor lets dominance collapse them to one representative —
/// this is what makes a slack dimension (budget >= total weight)
/// disappear from the state space entirely.
int64_t ClampFloor(int64_t budget, int64_t suffix) {
  return suffix >= budget ? 0 : budget - suffix;
}

}  // namespace

int64_t ToBudgetUnits(int64_t size_bytes, int64_t unit_bytes) {
  if (size_bytes <= 0) return 0;
  return (size_bytes + unit_bytes - 1) / unit_bytes;
}

Result<MKnapsackSolution> SolveMKnapsack(
    const std::vector<MKnapsackItem>& items, int64_t storage_budget_units,
    int64_t transfer_budget_units) {
  MISO_RETURN_IF_ERROR(ValidateInstance(items, storage_budget_units,
                                        transfer_budget_units));

  const int n = static_cast<int>(items.size());
  const int64_t kB = storage_budget_units;
  const int64_t kT = transfer_budget_units;

  // Takeable-suffix weights (items with benefit <= 0 are never packed,
  // by the same rule the dense recurrence applies, so they do not count
  // against the slack clamp). Saturating: a saturated suffix simply
  // means "no clamp yet", which is always safe.
  std::vector<int64_t> suffix_b(static_cast<size_t>(n) + 1, 0);
  std::vector<int64_t> suffix_t(static_cast<size_t>(n) + 1, 0);
  for (int k = n - 1; k >= 0; --k) {
    const MKnapsackItem& item = items[static_cast<size_t>(k)];
    const bool takeable = item.benefit > 0;
    suffix_b[static_cast<size_t>(k)] =
        SaturatingAdd(suffix_b[static_cast<size_t>(k) + 1],
                      takeable ? item.storage_units : 0);
    suffix_t[static_cast<size_t>(k)] =
        SaturatingAdd(suffix_t[static_cast<size_t>(k) + 1],
                      takeable ? item.transfer_units : 0);
  }

  // frontiers[frontier_of[k]] is g_k: the pruned frontier over items
  // [0..k), the exact sparse image of the dense DP's rolling row before
  // item k is processed. Skipped (benefit <= 0) items share their
  // predecessor's frontier — they change neither the row nor the clamp
  // floors.
  std::vector<std::vector<FrontierState>> frontiers;
  frontiers.push_back({FrontierState{}});  // g_0: only the empty subset
  std::vector<size_t> frontier_of(static_cast<size_t>(std::max(n, 1)), 0);

  for (int k = 0; k < n; ++k) {
    frontier_of[static_cast<size_t>(k)] = frontiers.size() - 1;
    const MKnapsackItem& item = items[static_cast<size_t>(k)];
    if (item.benefit <= 0) continue;  // g_{k+1} == g_k

    const std::vector<FrontierState>& cur = frontiers.back();
    // Clamp floors of the *next* step: states below the floor in a
    // dimension are indistinguishable there from states at the floor.
    const int64_t floor_b =
        ClampFloor(kB, suffix_b[static_cast<size_t>(k) + 1]);
    const int64_t floor_t =
        ClampFloor(kT, suffix_t[static_cast<size_t>(k) + 1]);

    std::vector<FrontierState> merged;
    merged.reserve(cur.size() * 2);
    for (const FrontierState& s : cur) {
      // Skip-copy of s into g_{k+1}, re-clamped to the new floors.
      FrontierState skip = s;
      skip.storage = std::max(skip.storage, floor_b);
      skip.transfer = std::max(skip.transfer, floor_t);
      merged.push_back(skip);
      // Take-child of s: item k on top of s. A clamped parent always
      // fits (its floor was budget minus a suffix that includes item k),
      // so this test only ever rejects genuinely infeasible children.
      if (item.storage_units <= kB - s.storage &&
          item.transfer_units <= kT - s.transfer) {
        FrontierState with = s;
        with.storage = std::max(with.storage + item.storage_units, floor_b);
        with.transfer = std::max(with.transfer + item.transfer_units, floor_t);
        with.value = s.value + item.benefit;
        merged.push_back(with);
      }
    }
    std::sort(merged.begin(), merged.end(), StateOrder);
    frontiers.push_back(Prune(merged));
  }

  // Reconstruction: the same backwards walk as the dense solver, with
  // each take[k] bit recomputed from g_k — take exactly when packing
  // item k strictly beats skipping it at the current remaining budgets.
  std::vector<int> chosen;
  int64_t b = kB;
  int64_t t = kT;
  for (int k = n - 1; k >= 0; --k) {
    const MKnapsackItem& item = items[static_cast<size_t>(k)];
    if (item.benefit <= 0) continue;
    if (item.storage_units > b || item.transfer_units > t) continue;
    const std::vector<FrontierState>& g =
        frontiers[frontier_of[static_cast<size_t>(k)]];
    const double skip = QueryFrontier(g, b, t);
    const double with =
        QueryFrontier(g, b - item.storage_units, t - item.transfer_units) +
        item.benefit;
    if (with > skip) {
      chosen.push_back(k);
      b -= item.storage_units;
      t -= item.transfer_units;
    }
  }
  std::reverse(chosen.begin(), chosen.end());
  return MakeSolution(items, chosen);
}

}  // namespace miso::tuner
