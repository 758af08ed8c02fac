// Serving workloads: one repeat = set-up, closed-loop saturation phase,
// open-loop Poisson phase, Finish, output checks.

#include <atomic>
#include <future>
#include <memory>
#include <random>
#include <thread>

#include "obs/metrics.h"
#include "perfbench.h"
#include "server/miso_server.h"

namespace miso::perfbench {

namespace {

/// Busy-waits (sleeping while far away) until `due`. The generator is the
/// benchmark's one load thread; spinning the last stretch keeps its
/// lateness well under a millisecond.
void WaitUntil(Clock::time_point due) {
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= due) return;
    const auto remaining = due - now;
    if (remaining > std::chrono::microseconds(400)) {
      std::this_thread::sleep_for(remaining - std::chrono::microseconds(250));
    }
  }
}

/// Open-loop due offsets: a Poisson process at `rate_per_s`, seeded.
std::vector<std::chrono::nanoseconds> PoissonOffsets(int n, double rate_per_s,
                                                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_s(rate_per_s);
  std::vector<std::chrono::nanoseconds> offsets;
  offsets.reserve(static_cast<size_t>(n));
  double t = 0;
  for (int i = 0; i < n; ++i) {
    t += gap_s(rng);
    offsets.emplace_back(static_cast<int64_t>(t * 1e9));
  }
  return offsets;
}

}  // namespace

ServingRepeat RunServingRepeat(const WorkloadSpec& spec, uint64_t seed,
                               bool traced) {
  ServingRepeat r;
  const int total = spec.total_sessions();
  const int closed_begin = spec.warmup_sessions;
  const int open_begin = closed_begin + spec.closed_sessions;

  // Written by the server's hooks on its scheduler thread, read here only
  // after the session's future resolved (the hook runs before it does).
  std::vector<Clock::time_point> reduced_at(static_cast<size_t>(total));
  std::atomic<int> epochs{0};

  const Clock::time_point setup_start = Clock::now();
  const relation::Catalog catalog = relation::MakePaperCatalog();
  const std::vector<workload::WorkloadQuery> pool =
      GeneratePool(&catalog, spec, &r.generate_ms);
  server::ServerConfig config = spec.ServerConfigFor();
  config.sim.metrics = traced;
  config.reduce_observer = [&reduced_at](const sim::QueryRecord& record) {
    reduced_at[static_cast<size_t>(record.index)] = Clock::now();
    return Status();
  };
  config.epoch_observer = [&epochs](const server::EpochSnapshot&) {
    epochs.fetch_add(1, std::memory_order_relaxed);
  };
  if (traced) obs::Metrics().Reset();
  auto server = std::make_unique<server::MisoServer>(&catalog, config);

  std::vector<std::future<server::SessionResult>> futures(
      static_cast<size_t>(total));
  std::vector<server::SessionOutcome> outcomes(static_cast<size_t>(total));
  auto drain = [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const server::SessionResult result = futures[static_cast<size_t>(i)].get();
      outcomes[static_cast<size_t>(i)] = result.outcome;
      switch (result.outcome) {
        case server::SessionOutcome::kCompleted: ++r.completed; break;
        case server::SessionOutcome::kShed: ++r.shed; break;
        case server::SessionOutcome::kFailed: ++r.failed; break;
        case server::SessionOutcome::kAborted: ++r.aborted; break;
      }
    }
  };
  // Session i is pool[i mod |pool|]; the generator copies the query as a
  // client would build its request.
  auto submit = [&](int i) {
    futures[static_cast<size_t>(i)] =
        server->Submit(pool[static_cast<size_t>(i) % pool.size()]);
  };

  // Fixed warm-up, part of set-up: every template planned once, the
  // design and the caches settled.
  for (int i = 0; i < closed_begin; ++i) submit(i);
  drain(0, closed_begin);
  r.setup_s = MsBetween(setup_start, Clock::now()) / 1000.0;

  // Closed loop: back-to-back submission; the bounded admission queue
  // (capacity 64) closes the loop.
  const Clock::time_point closed_start = Clock::now();
  for (int i = closed_begin; i < open_begin; ++i) submit(i);
  drain(closed_begin, open_begin);
  r.closed_sessions_per_s = spec.closed_sessions /
                            (MsBetween(closed_start, Clock::now()) / 1000.0);
  // Open loop: Poisson arrivals at the workload's fixed rate; latency runs
  // from each session's due time, so a stall also charges the sessions
  // queued behind it.
  const std::vector<std::chrono::nanoseconds> offsets =
      PoissonOffsets(spec.open_sessions, spec.open_rate_per_s, seed);
  std::vector<Clock::time_point> due(offsets.size());
  std::vector<Clock::time_point> returned(offsets.size());
  const Clock::time_point open_start =
      Clock::now() + std::chrono::milliseconds(1);
  for (size_t k = 0; k < offsets.size(); ++k) {
    due[k] = open_start + offsets[k];
    WaitUntil(due[k]);
    const Clock::time_point sent = Clock::now();
    submit(open_begin + static_cast<int>(k));
    returned[k] = Clock::now();
    if (traced) {
      r.lag_ms.push_back(MsBetween(due[k], sent));
      r.submit_ms.push_back(MsBetween(sent, returned[k]));
    }
  }
  drain(open_begin, total);
  for (size_t k = 0; k < offsets.size(); ++k) {
    const size_t i = static_cast<size_t>(open_begin) + k;
    if (outcomes[i] != server::SessionOutcome::kCompleted) continue;
    r.latency_ms.push_back(MsBetween(due[k], reduced_at[i]));
    if (traced) r.sojourn_ms.push_back(MsBetween(returned[k], reduced_at[i]));
  }

  Result<sim::RunReport> report = server->Finish();
  if (!report.ok()) Die(spec.name + ": Finish failed: " + report.status().ToString());
  r.report = std::move(*report);
  r.sent = total;
  r.epoch_observations = epochs.load();

  // Output checks: every session lands in exactly one terminal bucket,
  // none is aborted, and the report agrees with the futures.
  if (r.aborted != 0) {
    Die(spec.name + ": " + std::to_string(r.aborted) + " sessions aborted");
  }
  if (r.completed + r.shed + r.failed != r.sent) {
    Die(spec.name + ": completed + shed + failed != sent");
  }
  if (static_cast<int64_t>(r.report.queries.size()) != r.completed ||
      r.report.sessions_shed != r.shed || r.report.sessions_failed != r.failed) {
    Die(spec.name + ": run report disagrees with the session outcomes");
  }
  r.digest = ReportDigest(r.report);
  return r;
}

}  // namespace miso::perfbench
