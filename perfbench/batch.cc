// paper_batch: every system variant through the batch simulator over a
// fixed set of workload seeds (the §5.2 / Figure 4 configuration).

#include <algorithm>
#include <iterator>
#include <random>
#include <utility>

#include "obs/metrics.h"
#include "perfbench.h"

namespace miso::perfbench {

namespace {

constexpr sim::SystemVariant kVariants[] = {
    sim::SystemVariant::kHvOnly, sim::SystemVariant::kDwOnly,
    sim::SystemVariant::kMsBasic, sim::SystemVariant::kHvOp,
    sim::SystemVariant::kMsMiso, sim::SystemVariant::kMsLru,
    sim::SystemVariant::kMsOff, sim::SystemVariant::kMsOra};
constexpr size_t kNumVariants = sizeof(kVariants) / sizeof(kVariants[0]);
static_assert(kNumVariants == std::size(kVariantKeys));

sim::RunReport MustRun(const relation::Catalog& catalog,
                       const sim::SimConfig& config,
                       const std::vector<workload::WorkloadQuery>& queries) {
  sim::MultistoreSimulator simulator(&catalog, config);
  Result<sim::RunReport> report = simulator.Run(queries);
  if (!report.ok()) Die("paper_batch: Run failed: " + report.status().ToString());
  return std::move(*report);
}

}  // namespace

BatchPass RunBatchPass(const WorkloadSpec& spec, uint64_t seed, bool traced) {
  BatchPass p;
  const Clock::time_point setup_start = Clock::now();
  const relation::Catalog catalog = relation::MakePaperCatalog();
  std::vector<std::vector<workload::WorkloadQuery>> workloads;
  for (uint64_t workload_seed : spec.workload_seeds) {
    WorkloadSpec one = spec;
    one.workload_seeds = {workload_seed};
    workloads.push_back(GeneratePool(&catalog, one, &p.generate_ms));
  }
  // Fixed warm-up, part of set-up: one MS-MISO run of the first seed.
  MustRun(catalog, PaperSimConfig(sim::SystemVariant::kMsMiso), workloads[0]);
  p.setup_s = MsBetween(setup_start, Clock::now()) / 1000.0;

  // The visiting order is shuffled by the benchmark seed; every Run is
  // self-contained, so the reports cannot depend on it.
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t s = 0; s < workloads.size(); ++s) {
    for (size_t v = 0; v < kNumVariants; ++v) order.emplace_back(s, v);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  if (traced) obs::Metrics().Reset();
  std::vector<std::vector<sim::RunReport>> reports(
      workloads.size(), std::vector<sim::RunReport>(kNumVariants));
  int64_t queries = 0;
  p.run_ms.assign(order.size(), 0);
  const Clock::time_point pass_start = Clock::now();
  for (const auto& [s, v] : order) {
    sim::SimConfig config = PaperSimConfig(kVariants[v]);
    config.metrics = traced;
    const Clock::time_point start = Clock::now();
    reports[s][v] = MustRun(catalog, config, workloads[s]);
    const double ms = MsBetween(start, Clock::now());
    p.run_ms[s * kNumVariants + v] = ms;
    p.run_ms_by_variant[kVariantKeys[v]].push_back(ms);
    queries += static_cast<int64_t>(workloads[s].size());
  }
  p.queries_per_s = static_cast<double>(queries) /
                    (MsBetween(pass_start, Clock::now()) / 1000.0);
  p.runs = static_cast<int64_t>(order.size());
  p.queries = queries;

  // Output checks: MS-MISO beats the four single-store / untuned
  // baselines on every seed (Figure 4's ordering).
  const size_t miso = 4;
  double tti_sum = 0;
  uint64_t digest = 0;
  for (size_t s = 0; s < workloads.size(); ++s) {
    const double miso_tti = reports[s][miso].Tti();
    tti_sum += miso_tti;
    for (size_t v = 0; v < miso; ++v) {
      if (!(miso_tti < reports[s][v].Tti())) {
        Die("paper_batch: MS-MISO TTI not below " + reports[s][v].variant_name +
            " on workload seed " + std::to_string(spec.workload_seeds[s]));
      }
    }
    for (size_t v = 0; v < kNumVariants; ++v) {
      digest = digest * 1099511628211ULL ^ ReportDigest(reports[s][v]);
    }
  }
  p.ms_miso_mean_tti_s = tti_sum / static_cast<double>(workloads.size());
  p.digest = digest;
  return p;
}

}  // namespace miso::perfbench
