#ifndef MISO_VIEWS_VIEW_CATALOG_H_
#define MISO_VIEWS_VIEW_CATALOG_H_

#include <map>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/units.h"
#include "views/view.h"

namespace miso::views {

/// The set of materialized views resident in one store, with view-storage
/// budget accounting (`Bh` / `Bd` of the paper).
///
/// Budget semantics follow §3.1: the DW budget is strictly enforced on
/// every insertion, while HV deployments are "less tightly managed" — new
/// opportunistic views may exceed the budget between reorganizations, and
/// the budget is re-imposed by the tuner. `Add` enforces; `AddUnchecked`
/// admits over budget.
class ViewCatalog {
 public:
  ViewCatalog() = default;
  explicit ViewCatalog(Bytes storage_budget) : budget_(storage_budget) {}

  Bytes budget() const { return budget_; }
  void set_budget(Bytes budget) { budget_ = budget; }
  Bytes used_bytes() const { return used_; }
  Bytes available_bytes() const { return budget_ - used_; }
  bool OverBudget() const { return used_ > budget_; }
  int size() const { return static_cast<int>(views_.size()); }
  bool empty() const { return views_.empty(); }

  /// Adds a view, enforcing the storage budget.
  Status Add(View view);

  /// Adds a view even if it exceeds the budget (HV between reorgs).
  Status AddUnchecked(View view);

  Status Remove(ViewId id);
  bool Contains(ViewId id) const;
  Result<View> Find(ViewId id) const;

  /// View materializing exactly the subexpression with this signature.
  std::optional<View> FindExact(uint64_t signature) const;

  /// All views whose root is a Filter over the subexpression with signature
  /// `base_signature` (candidates for subsumption rewriting).
  std::vector<View> FindByBase(uint64_t base_signature) const;

  /// All views, ordered by id (deterministic iteration).
  std::vector<View> AllViews() const;

  /// Read-only view of the members, ordered by id — `AllViews` without
  /// the copy. References are invalidated by any mutation of the catalog.
  const std::map<ViewId, View>& views() const { return views_; }

  /// Order-independent hash of the catalog's rewrite-relevant content
  /// (each member's `View::ContentFingerprint`; ids excluded). Two
  /// catalogs with equal fingerprints rewrite every query identically and
  /// hence cost identically — the key contract of the optimizer's what-if
  /// probe memo (`WhatIfSession`).
  uint64_t ContentFingerprint() const;

  /// Marks `id` as used by query `query_index` (for LRU policies).
  void TouchView(ViewId id, int query_index);
  /// Query index of the last use, or creation index if never used.
  int LastUsed(ViewId id) const;

  void Clear();

 private:
  std::map<ViewId, View> views_;   // ordered: deterministic iteration
  std::map<ViewId, int> last_used_;
  Bytes budget_ = 0;
  Bytes used_ = 0;
};

}  // namespace miso::views

#endif  // MISO_VIEWS_VIEW_CATALOG_H_
