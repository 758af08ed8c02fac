#include "tuner/benefit.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "verify/design_verifier.h"
#include "verify/verify_gate.h"

namespace miso::tuner {

namespace {

/// Budget large enough that hypothetical catalogs never reject a view.
constexpr Bytes kUnboundedBudget = kTiB * 1024;

views::ViewCatalog MakeHypotheticalCatalog(
    const std::vector<views::View>& set) {
  views::ViewCatalog catalog(kUnboundedBudget);
  for (const views::View& view : set) {
    catalog.AddUnchecked(view);  // ids are unique within a candidate set
  }
  return catalog;
}

}  // namespace

std::size_t BenefitAnalyzer::SetKeyHash::operator()(const SetKey& key) const {
  uint64_t h = HashCombine(key.ids_hash, key.count);
  h = HashCombine(h, key.placement);
  return static_cast<std::size_t>(h);
}

BenefitAnalyzer::SetKey BenefitAnalyzer::KeyOf(
    const std::vector<views::View>& set, Placement placement) {
  std::vector<views::ViewId> ids;
  ids.reserve(set.size());
  for (const views::View& view : set) ids.push_back(view.id);
  std::sort(ids.begin(), ids.end());
  SetKey key;
  key.ids_hash = kFnvOffsetBasis;
  for (views::ViewId id : ids) key.ids_hash = HashCombine(key.ids_hash, id);
  key.count = static_cast<uint32_t>(ids.size());
  key.placement = static_cast<uint32_t>(placement);
  return key;
}

optimizer::WhatIfKey BenefitAnalyzer::ProbeKey(
    std::size_t query_index, const std::vector<views::View>& set,
    Placement placement) const {
  const uint64_t fp =
      optimizer::WhatIfCache::Fingerprint(shapes_[query_index], set);
  const uint64_t empty_fp = optimizer::WhatIfCache::EmptyFingerprint();
  optimizer::WhatIfKey key;
  key.query_signature = window_[query_index].signature();
  key.dw_fingerprint = placement == Placement::kHvOnly ? empty_fp : fp;
  key.hv_fingerprint = placement == Placement::kDwOnly ? empty_fp : fp;
  return key;
}

Result<Seconds> BenefitAnalyzer::Probe(std::size_t query_index,
                                       const std::vector<views::View>& set,
                                       Placement placement) const {
  const views::ViewCatalog empty(kUnboundedBudget);
  const views::ViewCatalog hypothetical = MakeHypotheticalCatalog(set);
  const views::ViewCatalog& dw =
      placement == Placement::kHvOnly ? empty : hypothetical;
  const views::ViewCatalog& hv =
      placement == Placement::kDwOnly ? empty : hypothetical;
  return optimizer_->WhatIfCost(window_[query_index], dw, hv, *session_);
}

Status BenefitAnalyzer::SetWindow(std::vector<plan::Plan> window) {
  window_ = std::move(window);
  shapes_.clear();
  shapes_.reserve(window_.size());
  for (const plan::Plan& q : window_) {
    shapes_.push_back(optimizer::QueryShape::Of(q));
  }
  base_costs_.clear();
  memo_.clear();
  base_costs_.reserve(window_.size());
  const views::ViewCatalog empty(kUnboundedBudget);
  const uint64_t empty_fp = optimizer::WhatIfCache::EmptyFingerprint();
  for (const plan::Plan& q : window_) {
    Seconds cost = 0;
    optimizer::WhatIfKey key;
    key.query_signature = q.signature();
    key.dw_fingerprint = empty_fp;
    key.hv_fingerprint = empty_fp;
    std::optional<Seconds> hit =
        cache_ != nullptr ? cache_->Lookup(key) : std::nullopt;
    if (hit.has_value()) {
      cost = *hit;
    } else {
      // Base-cost probes also seed the session's variant memo: the bare
      // query is the empty design's only rewrite variant and recurs in
      // every later probe of the same query.
      MISO_ASSIGN_OR_RETURN(
          cost, optimizer_->WhatIfCost(q, empty, empty, *session_));
      if (cache_ != nullptr) cache_->Insert(key, cost);
    }
    base_costs_.push_back(cost);
  }
  return Status::OK();
}

double BenefitAnalyzer::Weight(int pos) const {
  if (window_.empty() || epoch_len_ <= 0) return 1.0;
  // pos counts from the oldest query; age 0 = the newest epoch.
  const int from_newest = static_cast<int>(window_.size()) - 1 - pos;
  const int epoch_age = from_newest / epoch_len_;
  return std::pow(decay_, epoch_age);
}

std::vector<views::View> BenefitAnalyzer::RelevantSubset(
    std::size_t query_index, const std::vector<views::View>& set) const {
  std::vector<views::View> subset;
  for (const views::View& view : set) {
    if (shapes_[query_index].Relevant(view)) subset.push_back(view);
  }
  return subset;
}

std::vector<uint64_t> BenefitAnalyzer::RelevantMask(
    const views::View& view) const {
  std::vector<uint64_t> mask((window_.size() + 63) / 64, 0);
  for (std::size_t q = 0; q < window_.size(); ++q) {
    if (shapes_[q].Relevant(view)) mask[q / 64] |= uint64_t{1} << (q % 64);
  }
  return mask;
}

Result<std::vector<double>> BenefitAnalyzer::ComputeRow(
    const std::vector<views::View>& set, Placement placement) {
  std::vector<double> benefits(window_.size(), 0.0);
  // The hypothetical catalogs are only materialized if some query actually
  // needs a probe (all-hit and all-irrelevant rows build nothing).
  std::optional<views::ViewCatalog> hypothetical;
  const views::ViewCatalog empty(kUnboundedBudget);
  for (std::size_t i = 0; i < window_.size(); ++i) {
    // Relevance fast path: a query no member view can rewrite keeps its
    // base cost exactly, so its benefit is 0 — no probe, no cache access.
    if (!shapes_[i].AnyRelevant(set)) continue;
    // Subset reduction: the cost depends only on the relevant members, so
    // a memoized row for exactly that subset already holds this query's
    // benefit (typical when singles were prewarmed before pairs).
    if (const std::vector<views::View> subset = RelevantSubset(i, set);
        subset.size() < set.size()) {
      if (auto it = memo_.find(KeyOf(subset, placement)); it != memo_.end()) {
        benefits[i] = it->second[i];
        continue;
      }
    }
    Seconds cost = 0;
    std::optional<optimizer::WhatIfKey> key;
    if (cache_ != nullptr) key = ProbeKey(i, set, placement);
    std::optional<Seconds> hit =
        cache_ != nullptr ? cache_->Lookup(*key) : std::nullopt;
    if (hit.has_value()) {
      cost = *hit;
    } else {
      if (!hypothetical.has_value()) {
        hypothetical = MakeHypotheticalCatalog(set);
      }
      const views::ViewCatalog& dw =
          placement == Placement::kHvOnly ? empty : *hypothetical;
      const views::ViewCatalog& hv =
          placement == Placement::kDwOnly ? empty : *hypothetical;
      MISO_ASSIGN_OR_RETURN(
          cost, optimizer_->WhatIfCost(window_[i], dw, hv, *session_));
      if (cache_ != nullptr) cache_->Insert(*key, cost);
    }
    benefits[i] = std::max(0.0, base_costs_[i] - cost);
  }
  return benefits;
}

Result<std::vector<double>> BenefitAnalyzer::PerQueryBenefit(
    const std::vector<views::View>& set, Placement placement) {
  const SetKey key = KeyOf(set, placement);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  MISO_ASSIGN_OR_RETURN(std::vector<double> benefits,
                        ComputeRow(set, placement));
  memo_.emplace(key, benefits);
  return benefits;
}

Status BenefitAnalyzer::Prewarm(
    ThreadPool* pool, const std::vector<std::vector<views::View>>& sets,
    Placement placement) {
  // Stage 1, serial: walk (set, query) in deterministic order, resolving
  // each needed cost to the fast path, a cache hit, or a pending probe.
  // Probes dedupe by WhatIfKey — two pairs with equal keys have equal
  // costs by construction — and keep first-occurrence order, so the job
  // list (and every counter touched here) is independent of `pool`.
  struct RowFix {
    std::size_t query = 0;
    std::size_t probe = 0;
  };
  struct PendingRow {
    SetKey key;
    std::vector<double> benefits;
    std::vector<RowFix> fixes;
  };
  struct ProbeJob {
    optimizer::WhatIfKey key;
    std::size_t set_index = 0;
    std::size_t query_index = 0;
  };
  std::vector<PendingRow> rows;
  std::vector<ProbeJob> jobs;
  std::unordered_map<optimizer::WhatIfKey, std::size_t,
                     optimizer::WhatIfKeyHash>
      job_of;
  std::unordered_set<SetKey, SetKeyHash> pending_keys;

  for (std::size_t s = 0; s < sets.size(); ++s) {
    const std::vector<views::View>& set = sets[s];
    const SetKey key = KeyOf(set, placement);
    if (memo_.count(key) > 0 || !pending_keys.insert(key).second) continue;
    PendingRow row;
    row.key = key;
    row.benefits.assign(window_.size(), 0.0);
    for (std::size_t q = 0; q < window_.size(); ++q) {
      if (!shapes_[q].AnyRelevant(set)) continue;
      // Subset reduction, mirroring ComputeRow: an already-memoized row
      // for the relevant subset answers the query without a probe job.
      if (const std::vector<views::View> subset = RelevantSubset(q, set);
          subset.size() < set.size()) {
        if (auto mit = memo_.find(KeyOf(subset, placement));
            mit != memo_.end()) {
          row.benefits[q] = mit->second[q];
          continue;
        }
      }
      const optimizer::WhatIfKey pk = ProbeKey(q, set, placement);
      if (cache_ != nullptr) {
        if (std::optional<Seconds> hit = cache_->Lookup(pk)) {
          row.benefits[q] = std::max(0.0, base_costs_[q] - *hit);
          continue;
        }
      }
      auto [it, inserted] = job_of.emplace(pk, jobs.size());
      if (inserted) jobs.push_back(ProbeJob{pk, s, q});
      row.fixes.push_back(RowFix{q, it->second});
    }
    rows.push_back(std::move(row));
  }

  // Stage 2: the pure optimizer probes fan out, each writing only its own
  // slot (the ParallelFor determinism contract). Probes are batched: one
  // what-if probe is tens of microseconds, so a handful per task amortizes
  // the submit overhead while still spreading a big prewarm across workers.
  std::vector<Result<Seconds>> costs(jobs.size(),
                                     Status::Internal("probe not run"));
  ParallelFor(
      pool, static_cast<int>(jobs.size()),
      [&](int i) {
        const ProbeJob& job = jobs[static_cast<std::size_t>(i)];
        costs[static_cast<std::size_t>(i)] =
            Probe(job.query_index, sets[job.set_index], placement);
      },
      ParallelForOptions{/*grain=*/4});

  // Stage 3, serial: surface the lowest-ordered failure (the same error a
  // serial pass would hit first) and publish costs to the shared cache in
  // job order.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!costs[i].ok()) return costs[i].status();
    if (cache_ != nullptr) cache_->Insert(jobs[i].key, *costs[i]);
  }

  // Stage 4, serial: assemble and memoize the benefit rows in set order.
  for (PendingRow& row : rows) {
    for (const RowFix& fix : row.fixes) {
      row.benefits[fix.query] =
          std::max(0.0, base_costs_[fix.query] - *costs[fix.probe]);
    }
    memo_.emplace(row.key, std::move(row.benefits));
  }
  return Status::OK();
}

Result<double> BenefitAnalyzer::PredictedBenefit(
    const std::vector<views::View>& set, Placement placement) {
  MISO_ASSIGN_OR_RETURN(std::vector<double> benefits,
                        PerQueryBenefit(set, placement));
  double total = 0;
  for (std::size_t i = 0; i < benefits.size(); ++i) {
    total += Weight(static_cast<int>(i)) * benefits[i];
  }
  // Debug-mode assertion (always on under ctest): the decayed-benefit
  // bookkeeping — clamped per-query savings, decay^epoch_age weights,
  // and their weighted sum — must cross-check against an independent
  // recomputation (V208).
  if (verify::Enabled()) {
    verify::BenefitLedger ledger;
    ledger.epoch_length = epoch_len_;
    ledger.decay = decay_;
    ledger.per_query_benefit = benefits;
    ledger.weights.reserve(benefits.size());
    for (std::size_t i = 0; i < benefits.size(); ++i) {
      ledger.weights.push_back(Weight(static_cast<int>(i)));
    }
    ledger.predicted_total = total;
    MISO_RETURN_IF_ERROR(verify::VerifyBenefitLedger(ledger));
  }
  return total;
}

}  // namespace miso::tuner
