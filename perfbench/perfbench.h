// Shared declarations of the repository benchmark (README.md in this
// directory): the four workloads, the measurement helpers, and the two
// run kinds — the timed serving/batch runs and the traced layer run.

#ifndef MISO_PERFBENCH_PERFBENCH_H_
#define MISO_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "relation/catalog.h"
#include "server/miso_server.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workload/evolutionary.h"

namespace miso::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Statistics. ---------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}
/// Percentile of a registry histogram, interpolated inside the bucket the
/// rank falls in (the overflow bucket reports its lower bound).
double HistogramPercentile(const std::string& name,
                           const std::vector<double>& bounds, double p);

// ---- Spans. --------------------------------------------------------------

/// In-memory span recorder: every span is a (layer call, duration) sample,
/// kept per name and summarized when the run ends.
class SpanLog {
 public:
  std::vector<double>& Series(const std::string& name) { return us_[name]; }
  const std::vector<double>& Get(const std::string& name) const;
  double TotalUs(const std::string& name) const;

  /// Runs `fn`, appending its wall duration (µs) to `series`.
  template <typename Fn>
  static auto Time(std::vector<double>* series, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      series->push_back(MsBetween(start, Clock::now()) * 1000.0);
    } else {
      auto result = fn();
      series->push_back(MsBetween(start, Clock::now()) * 1000.0);
      return result;
    }
  }

 private:
  std::map<std::string, std::vector<double>> us_;
};

// ---- Output. -------------------------------------------------------------

/// Collects named metrics; prints a readable line per metric (with the
/// sample count behind every percentile) and, last, the result JSON. A run
/// that reaches `Print` passed every check: a failed check dies first, and
/// so does any aborted session, hence `correct` true and `failed` 0.
class Output {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// `name`: value (n=samples) — for percentiles and medians.
  void AddSampled(const std::string& name, double value,
                  const std::string& unit, size_t samples) {
    Add(name, value, unit, "n=" + std::to_string(samples));
  }
  void Print(int64_t attempted) const;

 private:
  struct Row {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Fails the run (prints the reason to stderr, exits non-zero, no JSON).
[[noreturn]] void Die(const std::string& message);

// ---- Workloads. ----------------------------------------------------------

enum class WorkloadKind { kWarmReplay, kEvolvingStream, kPaperBatch, kChaosOverload };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kWarmReplay;
  std::string name;
  /// Evolutionary-workload seeds whose queries form the cycled pool (a
  /// serving workload) or the batch (paper_batch).
  std::vector<uint64_t> workload_seeds;
  /// Serving workloads: a repeat serves `warmup + closed + open` sessions
  /// through one server — warm-up (part of set-up), then the closed-loop
  /// saturation phase, then the open-loop Poisson phase.
  int warmup_sessions = 0;
  int closed_sessions = 0;
  int open_sessions = 0;
  double open_rate_per_s = 0;
  /// Sessions the layer replay replays in the traced run.
  int replay_sessions = 0;

  bool serving() const { return kind != WorkloadKind::kPaperBatch; }
  int total_sessions() const {
    return warmup_sessions + closed_sessions + open_sessions;
  }
  /// The engine configuration (§5.2 budgets plus the workload's knobs).
  server::ServerConfig ServerConfigFor() const;
};

/// Looks a workload up by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// The paper's §5.2 engine configuration: Bh = Bd = 2x, Bt = 10 GB,
/// reorganize every 3 queries, faults off, tracing off.
sim::SimConfig PaperSimConfig(sim::SystemVariant variant);

/// Generates the workload's query pool (in seed order), timing each
/// generation into `generate_ms` when non-null.
std::vector<workload::WorkloadQuery> GeneratePool(
    const relation::Catalog* catalog, const WorkloadSpec& spec,
    std::vector<double>* generate_ms);

/// `n` sessions cycling through `pool`.
std::vector<workload::WorkloadQuery> CycledStream(
    const std::vector<workload::WorkloadQuery>& pool, int n);

/// Model-class digest of a report: FNV-1a of `sim::ReportToJson` with the
/// runtime-class `waves_speculative` / `waves_replanned` cleared.
uint64_t ReportDigest(const sim::RunReport& report);

// ---- Serving runs. -------------------------------------------------------

/// What one repeat of a serving workload measured.
struct ServingRepeat {
  double setup_s = 0;
  double closed_sessions_per_s = 0;
  /// Open-loop phase, completed sessions only: due -> reduce (ms).
  std::vector<double> latency_ms;
  int64_t sent = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t failed = 0;
  int64_t aborted = 0;
  uint64_t digest = 0;
  sim::RunReport report;
  // Traced repeats only (open-loop phase).
  std::vector<double> submit_ms;   // time blocked in Submit
  std::vector<double> sojourn_ms;  // Submit return -> reduce_observer
  std::vector<double> lag_ms;      // generator lateness vs the due time
  int epoch_observations = 0;
  std::vector<double> generate_ms;
};

/// One repeat: set-up (catalog, workload, server, warm-up), the
/// closed-loop phase and the open-loop phase, then Finish and the output
/// checks. `traced` turns the engine's metrics registry on and records
/// the Submit / observer-hook spans.
ServingRepeat RunServingRepeat(const WorkloadSpec& spec, uint64_t seed,
                               bool traced);

// ---- Batch runs (paper_batch). ---------------------------------------------

/// Metric-name spelling of the eight system variants, in `SystemVariant`
/// order (sim.run_ms.<key>).
inline constexpr const char* kVariantKeys[] = {
    "hv_only", "dw_only", "ms_basic", "hv_op",
    "ms_miso", "ms_lru",  "ms_off",   "ms_ora"};

struct BatchPass {
  double setup_s = 0;
  double queries_per_s = 0;
  /// Wall time of each Run, indexed seed-major: [seed * 8 + variant].
  std::vector<double> run_ms;
  /// Per-variant Run wall times, keyed by `kVariantKeys`.
  std::map<std::string, std::vector<double>> run_ms_by_variant;
  double ms_miso_mean_tti_s = 0;
  int64_t runs = 0;
  int64_t queries = 0;  // simulated queries, summed over runs
  uint64_t digest = 0;
  std::vector<double> generate_ms;
};

/// Set-up (catalog, workloads, one warm-up seed) then one pass: every
/// variant over every seed, in an order shuffled by `seed`. Checks that
/// MS-MISO beats HV-ONLY, DW-ONLY, MS-BASIC and HV-OP on every seed.
BatchPass RunBatchPass(const WorkloadSpec& spec, uint64_t seed, bool traced);

// ---- Traced layer run. -----------------------------------------------------

/// Runs the layer replay and the traced server (or batch) run for one
/// workload and adds every per-layer metric to `out`; dies when a
/// fidelity or output check fails. `attempted` receives the sessions (or
/// simulator runs) the run sent.
void RunTraced(const WorkloadSpec& spec, uint64_t seed, Output* out,
               int64_t* attempted);

}  // namespace miso::perfbench

#endif  // MISO_PERFBENCH_PERFBENCH_H_
