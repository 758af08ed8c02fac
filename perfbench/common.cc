// Statistics, spans, output, and the workload table of the benchmark.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "common/units.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "sim/report_io.h"

namespace miso::perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double HistogramPercentile(const std::string& name,
                           const std::vector<double>& bounds, double p) {
  const obs::Histogram* h = obs::Metrics().GetHistogram(name, bounds);
  const std::vector<int64_t> counts = h->BucketCounts();
  const int64_t total = h->count();
  if (total == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(total);
  double seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double lo = b == 0 ? 0 : bounds[b - 1];
    if (b == bounds.size()) return lo;  // overflow bucket
    if (seen + static_cast<double>(counts[b]) >= rank) {
      const double frac = (rank - seen) / static_cast<double>(counts[b]);
      return lo + (bounds[b] - lo) * frac;
    }
    seen += static_cast<double>(counts[b]);
  }
  return bounds.back();
}

const std::vector<double>& SpanLog::Get(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = us_.find(name);
  return it == us_.end() ? kEmpty : it->second;
}

double SpanLog::TotalUs(const std::string& name) const {
  const std::vector<double>& series = Get(name);
  return std::accumulate(series.begin(), series.end(), 0.0);
}

void Output::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) Die("metric " + name + " is not finite");
  rows_.push_back({name, value, unit});
  std::printf("%-44s %14.6g %-7s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

void Output::Print(int64_t attempted) const {
  std::string json = "{\"correct\": true, \"attempted\": ";
  json += std::to_string(attempted) + ", \"failed\": 0";
  json += ", \"metrics\": {";
  for (size_t i = 0; i < rows_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", rows_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + rows_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + rows_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Die(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// ---- Workloads. ------------------------------------------------------------

namespace {

WorkloadSpec MakeSpec(WorkloadKind kind) {
  WorkloadSpec spec;
  spec.kind = kind;
  switch (kind) {
    case WorkloadKind::kWarmReplay:
      spec.name = "warm_replay";
      spec.workload_seeds = {42};
      spec.warmup_sessions = 512;
      spec.closed_sessions = 8192;
      spec.open_sessions = 8192;
      spec.open_rate_per_s = 20000;
      spec.replay_sessions = 2048;
      break;
    case WorkloadKind::kEvolvingStream:
      spec.name = "evolving_stream";
      spec.workload_seeds = {1, 2, 3, 4};
      spec.warmup_sessions = 512;
      spec.closed_sessions = 2048;
      spec.open_sessions = 1024;
      spec.open_rate_per_s = 500;
      spec.replay_sessions = 512;
      break;
    case WorkloadKind::kPaperBatch:
      spec.name = "paper_batch";
      spec.workload_seeds = {1, 2, 3, 4, 5, 6, 7, 8};
      break;
    case WorkloadKind::kChaosOverload:
      spec.name = "chaos_overload";
      spec.workload_seeds = {42};
      spec.warmup_sessions = 512;
      spec.closed_sessions = 4096;
      spec.open_sessions = 2048;
      spec.open_rate_per_s = 2000;
      spec.replay_sessions = 1024;
      break;
  }
  return spec;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (WorkloadKind kind :
       {WorkloadKind::kWarmReplay, WorkloadKind::kEvolvingStream,
        WorkloadKind::kPaperBatch, WorkloadKind::kChaosOverload}) {
    WorkloadSpec candidate = MakeSpec(kind);
    if (candidate.name == name) {
      *spec = std::move(candidate);
      return true;
    }
  }
  return false;
}

sim::SimConfig PaperSimConfig(sim::SystemVariant variant) {
  sim::SimConfig config;
  config.variant = variant;
  config.hv_storage_budget = 4 * kTiB;    // 2x of 2 TB base data
  config.dw_storage_budget = 400 * kGiB;  // 2x of 200 GB relevant data
  config.transfer_budget = 10 * kGiB;
  config.fault.profile = fault::FaultProfile::kOff;
  return config;
}

server::ServerConfig WorkloadSpec::ServerConfigFor() const {
  server::ServerConfig config;
  config.sim = PaperSimConfig(sim::SystemVariant::kMsMiso);
  config.wave_size = 8;
  config.admission_capacity = 64;
  config.plan_cache = true;
  config.pipeline_waves = true;
  config.expected_sessions = total_sessions();
  switch (kind) {
    case WorkloadKind::kWarmReplay:
      config.sim.reorg_every = 0;
      config.online_reorg = false;
      break;
    case WorkloadKind::kEvolvingStream:
      config.sim.reorg_every = 16;
      config.online_reorg = true;
      break;
    case WorkloadKind::kChaosOverload:
      // BM_ServerOverloadShed's breaker-on configuration: the harsh end of
      // the chaos profile, a 2-attempt retry budget, a never-shed gold
      // tier and a batch tier whose deadline the stream outlives.
      config.sim.reorg_every = 16;
      config.online_reorg = true;
      config.sim.fault.profile = fault::FaultProfile::kChaos;
      config.sim.fault.seed = 5;
      config.sim.fault.rate = 0.3;
      config.sim.fault.retry.max_attempts = 2;
      config.overload.admission_deadlines = true;
      config.overload.classes = {{"gold", 0}, {"batch", 30000}};
      config.overload.classifier = [](const workload::WorkloadQuery&,
                                      int session_id) {
        return session_id % 2;
      };
      config.overload.breaker = true;
      config.overload.breaker_failure_threshold = 2;
      config.overload.breaker_cooldown_s = 100000;
      config.overload.breaker_half_open_successes = 2;
      break;
    case WorkloadKind::kPaperBatch:
      break;
  }
  return config;
}

std::vector<workload::WorkloadQuery> GeneratePool(
    const relation::Catalog* catalog, const WorkloadSpec& spec,
    std::vector<double>* generate_ms) {
  std::vector<workload::WorkloadQuery> pool;
  for (uint64_t seed : spec.workload_seeds) {
    workload::WorkloadConfig config;
    config.seed = seed;
    const Clock::time_point start = Clock::now();
    Result<workload::EvolutionaryWorkload> generated =
        workload::EvolutionaryWorkload::Generate(catalog, config);
    if (generate_ms != nullptr) {
      generate_ms->push_back(MsBetween(start, Clock::now()));
    }
    if (!generated.ok()) {
      Die("workload generation failed: " + generated.status().ToString());
    }
    pool.insert(pool.end(), generated->queries().begin(),
                generated->queries().end());
  }
  return pool;
}

std::vector<workload::WorkloadQuery> CycledStream(
    const std::vector<workload::WorkloadQuery>& pool, int n) {
  std::vector<workload::WorkloadQuery> stream;
  stream.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    stream.push_back(pool[static_cast<size_t>(i) % pool.size()]);
  }
  return stream;
}

uint64_t ReportDigest(const sim::RunReport& report) {
  sim::RunReport model = report;
  model.waves_speculative = 0;
  model.waves_replanned = 0;
  const std::string json = sim::ReportToJson(model);
  uint64_t hash = 1469598103934665603ULL;
  for (const char c : json) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace miso::perfbench
