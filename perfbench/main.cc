// miso_perfbench: the repository benchmark (README.md in this directory).
//
//   miso_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with all telemetry off;
// --trace 1 runs the layer replay and the traced server run and prints
// the per-layer metrics. Either way the last stdout line is the result
// JSON; any failed check exits non-zero without printing it.

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "perfbench.h"

extern char** environ;

namespace miso::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') args.seconds = 0;
    } else if (flag == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !have_seed ||
      !(args.seconds > 0) || args.trace < 0) {
    Die("usage: miso_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1");
  }
  return args;
}

/// Run-validity guards: a Release build, no engine debug/telemetry/fault
/// switches in the environment, two engine worker threads, quiet logger.
void GuardRun() {
#ifndef NDEBUG
  Die("refusing to measure a build with assertions on (not Release)");
#endif
  if (std::strcmp(MISO_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    Die(std::string("refusing to measure a non-Release build (") +
        MISO_PERFBENCH_BUILD_TYPE + ")");
  }
  // MISO_VERIFY also bypasses the optimizer's WhatIfSession memo, so it
  // changes the tuner's cost, not only its checks.
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    const std::string key = entry.substr(0, entry.find('='));
    if (key == "MISO_VERIFY" || key == "MISO_METRICS" || key == "MISO_TRACE" ||
        key.rfind("MISO_FAULT_", 0) == 0) {
      Die("refusing to run with " + key + " set");
    }
  }
  setenv("MISO_THREADS", "2", /*overwrite=*/1);
  Logger::SetThreshold(LogLevel::kWarning);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// End-to-end metrics of a serving workload: repeats until `seconds`
/// have passed (at least four), every repeat's digest identical.
void TimedServing(const WorkloadSpec& spec, const Args& args, Output* out,
                  int64_t* attempted) {
  std::vector<double> setup_s;
  std::vector<double> rates;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  size_t latency_samples = 0;
  ServingRepeat first;
  const Clock::time_point start = Clock::now();
  for (int rep = 0;
       rep < 4 || MsBetween(start, Clock::now()) < args.seconds * 1000; ++rep) {
    ServingRepeat r = RunServingRepeat(spec, args.seed + rep, false);
    std::printf("repeat %d: setup %.4f s, %.1f sessions/s, latency p50 %.4f "
                "p99 %.4f ms\n",
                rep, r.setup_s, r.closed_sessions_per_s,
                Percentile(r.latency_ms, 50), Percentile(r.latency_ms, 99));
    if (rep > 0 && r.digest != first.digest) {
      Die(spec.name + ": report digest differs between repeats");
    }
    setup_s.push_back(r.setup_s);
    // The first repeat also warms the process (allocator, page faults):
    // its set-up counts, its throughput and latency do not.
    if (rep > 0) {
      rates.push_back(r.closed_sessions_per_s);
      p50_ms.push_back(Percentile(r.latency_ms, 50));
      p99_ms.push_back(Percentile(r.latency_ms, 99));
      latency_samples = r.latency_ms.size();
    }
    *attempted += r.sent;
    if (rep == 0) first = std::move(r);
  }
  std::printf("%s: %zu repeats of %d sessions, report digest %016llx\n",
              spec.name.c_str(), setup_s.size(), spec.total_sessions(),
              static_cast<unsigned long long>(first.digest));
  out->AddSampled("setup_s", Median(setup_s), "s", setup_s.size());
  out->AddSampled("sessions_per_s", Median(rates), "1/s", rates.size());
  // Percentiles per repeat. The p50 is the median over repeats. The p99
  // is the best (lowest) repeat's: at these service times the tail of a
  // repeat is set by host stalls (vCPU wake-ups, neighbours), which only
  // ever add latency, while the engine's own tail shows in every repeat.
  const std::string per_repeat = "n=" + std::to_string(latency_samples) +
                                 " per repeat, " +
                                 std::to_string(p99_ms.size()) + " repeats";
  out->Add("latency_p50_ms", Median(p50_ms), "ms", per_repeat + ", median");
  out->Add("latency_p99_ms", *std::min_element(p99_ms.begin(), p99_ms.end()),
           "ms", per_repeat + ", best repeat");
  out->Add("served_share",
           static_cast<double>(first.completed) / static_cast<double>(first.sent),
           "ratio",
           std::to_string(first.shed) + " shed, " +
               std::to_string(first.failed) + " failed of " +
               std::to_string(first.sent));
  out->Add("tti_sim_s", first.report.Tti(), "sim_s");
}

/// End-to-end metrics of paper_batch: passes until `seconds` have passed.
void TimedBatch(const WorkloadSpec& spec, const Args& args, Output* out,
                int64_t* attempted) {
  std::vector<double> setup_s;
  std::vector<double> rates;
  std::vector<std::vector<double>> run_ms;  // per (seed, variant), per pass
  BatchPass first;
  const Clock::time_point start = Clock::now();
  for (int rep = 0;
       rep < 4 || MsBetween(start, Clock::now()) < args.seconds * 1000; ++rep) {
    BatchPass p = RunBatchPass(spec, args.seed + rep, false);
    std::printf("pass %d: setup %.4f s, %.1f queries/s\n", rep, p.setup_s,
                p.queries_per_s);
    if (rep > 0 && p.digest != first.digest) {
      Die(spec.name + ": report digest differs between passes");
    }
    setup_s.push_back(p.setup_s);
    if (rep > 0) {  // the first pass also warms the process
      rates.push_back(p.queries_per_s);
      run_ms.resize(p.run_ms.size());
      for (size_t c = 0; c < p.run_ms.size(); ++c) run_ms[c].push_back(p.run_ms[c]);
    }
    *attempted += p.runs;
    if (rep == 0) first = std::move(p);
  }
  std::printf("%s: %zu passes of %lld runs, report digest %016llx\n",
              spec.name.c_str(), setup_s.size(),
              static_cast<long long>(first.runs),
              static_cast<unsigned long long>(first.digest));
  // Each (seed, variant) simulation's median Run time over the passes;
  // the percentiles are over those 64 medians.
  std::vector<double> median_ms;
  for (const std::vector<double>& samples : run_ms) {
    median_ms.push_back(Median(samples));
  }
  out->AddSampled("setup_s", Median(setup_s), "s", setup_s.size());
  out->AddSampled("sessions_per_s", Median(rates), "1/s", rates.size());
  const std::string per_run = "n=" + std::to_string(median_ms.size()) +
                              " simulations, median of " +
                              std::to_string(rates.size()) + " passes each";
  out->Add("latency_p50_ms", Percentile(median_ms, 50), "ms", per_run);
  out->Add("latency_p99_ms", Percentile(median_ms, 99), "ms", per_run);
  out->Add("served_share", 1.0, "ratio", "every simulator run completed");
  out->Add("tti_sim_s", first.ms_miso_mean_tti_s, "sim_s",
           "MS-MISO mean over " + std::to_string(spec.workload_seeds.size()) +
               " workload seeds");
}

}  // namespace
}  // namespace miso::perfbench

int main(int argc, char** argv) {
  using namespace miso::perfbench;
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) Die("unknown workload " + args.workload);
  GuardRun();

  Output out;
  int64_t attempted = 0;
  if (args.trace == 1) {
    RunTraced(spec, args.seed, &out, &attempted);
  } else {
    if (spec.serving()) {
      TimedServing(spec, args, &out, &attempted);
    } else {
      TimedBatch(spec, args, &out, &attempted);
    }
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  out.Print(attempted);
  return 0;
}
