// The traced run (--trace 1): the per-layer metrics. End-to-end numbers
// never come from here — the engine's metrics registry and the spans are
// on — but the run still checks its outputs against an untraced repeat.

#include <numeric>

#include "common/units.h"
#include "layer_replay.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "perfbench.h"

namespace miso::perfbench {

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Runs the layer replay over `stream` and checks both fidelity conditions
/// against the simulator; dies on a mismatch.
void ReplayAndCheck(const relation::Catalog& catalog,
                    const sim::SimConfig& cfg, int wave_size,
                    const std::vector<workload::WorkloadQuery>& stream,
                    ReplayStats* stats) {
  Status status = RunLayerReplay(&catalog, cfg, wave_size, stream, stats);
  if (status.ok()) status = CheckReplayFidelity(&catalog, cfg, stream, *stats);
  if (!status.ok()) Die("layer replay: " + status.ToString());
}

/// Registry values the traced server or batch run left behind.
struct RegistryReadout {
  double pool_tasks = 0;
  double pool_queue_high_water = 0;
  double admission_high_water = 0;
  double overlap_ms_p50 = 0;
  int64_t overlap_samples = 0;
};

RegistryReadout ReadRegistry() {
  obs::MetricsRegistry& registry = obs::Metrics();
  RegistryReadout r;
  r.pool_tasks =
      static_cast<double>(registry.GetCounter(obs::names::kPoolTasksRun)->value());
  r.pool_queue_high_water =
      registry.GetGauge(obs::names::kPoolQueueHighWater)->value();
  r.admission_high_water =
      registry.GetGauge(obs::names::kServerAdmissionQueueHighWater)->value();
  r.overlap_ms_p50 = HistogramPercentile(
      obs::names::kServerWavePipelineOverlapMs, obs::MillisBuckets(), 50);
  r.overlap_samples =
      registry
          .GetHistogram(obs::names::kServerWavePipelineOverlapMs,
                        obs::MillisBuckets())
          ->count();
  return r;
}

}  // namespace

void RunTraced(const WorkloadSpec& spec, uint64_t seed, Output* out,
               int64_t* attempted) {
  const relation::Catalog catalog = relation::MakePaperCatalog();
  ReplayStats replay;
  RegistryReadout registry;
  ServingRepeat plain;
  ServingRepeat traced;
  BatchPass plain_batch;
  BatchPass traced_batch;
  double overhead_pct = 0;
  std::vector<double> generate_ms;

  if (spec.serving()) {
    // The first untraced repeat also warms the process; the overhead
    // compares the traced repeat with the second.
    plain = RunServingRepeat(spec, seed, /*traced=*/false);
    traced = RunServingRepeat(spec, seed + 1, /*traced=*/true);
    registry = ReadRegistry();
    const uint64_t warm_digest = plain.digest;
    plain = RunServingRepeat(spec, seed + 2, /*traced=*/false);
    if (warm_digest != traced.digest || plain.digest != traced.digest) {
      Die(spec.name + ": report digest differs between timed and traced run");
    }
    overhead_pct = (plain.closed_sessions_per_s - traced.closed_sessions_per_s) /
                   plain.closed_sessions_per_s * 100.0;
    generate_ms = traced.generate_ms;
    *attempted = 2 * plain.sent + traced.sent;
    // The replay runs the served stream fault-free: the fault layer is
    // measured from the traced server run's report.
    server::ServerConfig config = spec.ServerConfigFor();
    config.sim.fault = fault::FaultSpec{};
    config.sim.fault.profile = fault::FaultProfile::kOff;
    const std::vector<workload::WorkloadQuery> stream = CycledStream(
        GeneratePool(&catalog, spec, nullptr), spec.replay_sessions);
    ReplayAndCheck(catalog, config.sim, config.wave_size, stream, &replay);
  } else {
    plain_batch = RunBatchPass(spec, seed, /*traced=*/false);
    traced_batch = RunBatchPass(spec, seed + 1, /*traced=*/true);
    registry = ReadRegistry();
    const uint64_t warm_digest = plain_batch.digest;
    plain_batch = RunBatchPass(spec, seed + 2, /*traced=*/false);
    if (warm_digest != traced_batch.digest ||
        plain_batch.digest != traced_batch.digest) {
      Die(spec.name + ": report digest differs between timed and traced run");
    }
    overhead_pct = (plain_batch.queries_per_s - traced_batch.queries_per_s) /
                   plain_batch.queries_per_s * 100.0;
    generate_ms = traced_batch.generate_ms;
    *attempted = 2 * plain_batch.runs + traced_batch.runs;
    // One layer replay per workload seed, each checked against that
    // seed's MS-MISO simulation.
    for (uint64_t workload_seed : spec.workload_seeds) {
      WorkloadSpec one = spec;
      one.workload_seeds = {workload_seed};
      ReplayAndCheck(catalog, PaperSimConfig(sim::SystemVariant::kMsMiso),
                     /*wave_size=*/1, GeneratePool(&catalog, one, nullptr),
                     &replay);
    }
  }
  *attempted += replay.sessions;

  const SpanLog& spans = replay.spans;
  auto span_p = [&](const char* name, double p, double scale) {
    return Percentile(spans.Get(name), p) * scale;
  };
  auto n_of = [&](const char* name) { return spans.Get(name).size(); };

  // loadgen + server (traced server run; zero on paper_batch).
  const sim::RunReport& report = traced.report;
  const double admitted = report.sessions_admitted;
  out->AddSampled("loadgen.lag_ms_p99", Percentile(traced.lag_ms, 99), "ms",
                  traced.lag_ms.size());
  out->AddSampled("server.submit_ms_p99", Percentile(traced.submit_ms, 99),
                  "ms", traced.submit_ms.size());
  const double sojourn_p50 = Percentile(traced.sojourn_ms, 50);
  out->AddSampled("server.sojourn_ms_p50", sojourn_p50, "ms",
                  traced.sojourn_ms.size());
  out->AddSampled("server.sojourn_ms_p99", Percentile(traced.sojourn_ms, 99),
                  "ms", traced.sojourn_ms.size());
  double layer_us = 0;
  for (const char* name :
       {"views.catalog_copy", "views.fingerprint", "server.plan_cache_lookup",
        "server.plan_cache_insert", "optimizer.optimize", "hv.execute"}) {
    layer_us += spans.TotalUs(name);
  }
  layer_us = Ratio(layer_us, static_cast<double>(replay.sessions));
  out->Add("server.self_us_per_session",
           spec.serving() ? sojourn_p50 * 1000.0 - layer_us : 0, "us",
           "sojourn p50 - replay layer time " + std::to_string(layer_us) +
               " us/session");
  out->Add("server.sessions_per_wave", Ratio(admitted, report.waves), "count");
  out->Add("server.plan_cache_hit_ratio",
           Ratio(static_cast<double>(report.plan_cache_hits),
                 static_cast<double>(report.plan_cache_hits +
                                     report.plan_cache_misses)),
           "ratio", "base: lookups");
  out->Add("server.plan_cache_invalidations",
           static_cast<double>(report.plan_cache_invalidations), "count");
  out->Add("server.speculation_accept_ratio",
           report.waves_speculative > 0
               ? 1.0 - Ratio(report.waves_replanned, report.waves_speculative)
               : 0,
           "ratio",
           "base: " + std::to_string(report.waves_speculative) +
               " speculative waves");
  out->AddSampled("server.pipeline_overlap_ms_p50", registry.overlap_ms_p50,
                  "ms", static_cast<size_t>(registry.overlap_samples));
  out->Add("server.admission_queue_high_water", registry.admission_high_water,
           "count");
  out->Add("server.epochs_published", report.epochs_published, "count",
           "epoch_observer calls: " +
               std::to_string(traced.epoch_observations));
  out->Add("server.reorg_overlap_saved_sim_s", report.reorg_overlap_saved_s,
           "sim_s");
  out->Add("server.sessions_shed", report.sessions_shed, "count");
  out->Add("server.sessions_failed", report.sessions_failed, "count");
  out->Add("server.breaker_transitions", report.breaker_transitions, "count");
  out->Add("server.breaker_degraded_sessions",
           report.breaker_degraded_sessions, "count");
  out->AddSampled("server.plan_cache_lookup_us",
                  span_p("server.plan_cache_lookup", 50, 1),
                  "us", n_of("server.plan_cache_lookup"));

  // common: the thread pool (per served session, or per simulated query).
  const double units = spec.serving()
                           ? admitted
                           : static_cast<double>(traced_batch.queries);
  out->Add("pool.tasks_per_session", Ratio(registry.pool_tasks, units),
           "count");
  out->Add("pool.queue_high_water", registry.pool_queue_high_water, "count");

  // optimizer, views, hv, tuner: the layer replay.
  out->AddSampled("optimizer.optimize_us_p50",
                  span_p("optimizer.optimize", 50, 1), "us",
                  n_of("optimizer.optimize"));
  out->AddSampled("optimizer.optimize_us_p99",
                  span_p("optimizer.optimize", 99, 1), "us",
                  n_of("optimizer.optimize"));
  out->Add("optimizer.optimize_calls_per_session",
           Ratio(replay.optimize_calls, replay.sessions), "count");
  out->Add("optimizer.candidates_costed_per_optimize",
           Ratio(replay.candidates_costed, replay.optimize_calls), "count");
  out->Add("optimizer.splits_enumerated_per_optimize",
           Ratio(replay.splits_enumerated, replay.optimize_calls), "count");
  out->Add("optimizer.whatif_probes_per_tune",
           Ratio(replay.whatif_probes, replay.tunes), "count");
  out->Add("optimizer.whatif_cache_hit_ratio",
           Ratio(replay.whatif_hits, replay.whatif_hits + replay.whatif_misses),
           "ratio", "base: cache lookups in Tune");
  out->AddSampled("views.fingerprint_us", span_p("views.fingerprint", 50, 1),
                  "us", n_of("views.fingerprint"));
  out->AddSampled("views.catalog_copy_us",
                  span_p("views.catalog_copy", 50, 1), "us",
                  n_of("views.catalog_copy"));
  out->AddSampled("hv.execute_us_p50", span_p("hv.execute", 50, 1), "us",
                  n_of("hv.execute"));
  out->Add("hv.views_harvested_per_session",
           Ratio(replay.views_harvested, replay.sessions), "count");
  out->AddSampled("tuner.tune_ms_p50", span_p("tuner.tune", 50, 1e-3), "ms",
                  n_of("tuner.tune"));
  out->AddSampled("tuner.tune_ms_p99", span_p("tuner.tune", 99, 1e-3), "ms",
                  n_of("tuner.tune"));
  out->AddSampled("tuner.benefit_ms", span_p("tuner.benefit", 50, 1e-3), "ms",
                  n_of("tuner.benefit"));
  out->AddSampled("tuner.interaction_ms",
                  span_p("tuner.interaction", 50, 1e-3), "ms",
                  n_of("tuner.interaction"));
  out->AddSampled("tuner.sparsify_ms", span_p("tuner.sparsify", 50, 1e-3),
                  "ms", n_of("tuner.sparsify"));
  out->AddSampled("tuner.knapsack_dw_us", span_p("tuner.knapsack_dw", 50, 1),
                  "us", n_of("tuner.knapsack_dw"));
  out->AddSampled("tuner.knapsack_hv_us", span_p("tuner.knapsack_hv", 50, 1),
                  "us", n_of("tuner.knapsack_hv"));
  out->Add("tuner.knapsack_dense_share",
           Ratio(replay.knapsack_dense, replay.knapsack_solves), "ratio",
           "base: " + std::to_string(replay.knapsack_solves) + " solves");
  out->AddSampled("tuner.apply_ms", span_p("tuner.apply", 50, 1e-3), "ms",
                  n_of("tuner.apply"));
  out->Add("tuner.candidates_per_tune", Ratio(replay.candidates, replay.tunes),
           "count");
  out->Add("tuner.items_per_tune", Ratio(replay.items, replay.tunes), "count");

  // fault: the traced server run's report.
  out->Add("fault.injected_per_session", Ratio(report.fault_injected, admitted),
           "count");
  out->Add("fault.retries_per_session", Ratio(report.fault_retries, admitted),
           "count");
  out->Add("fault.degraded_share",
           Ratio(report.degraded_queries,
                 static_cast<double>(report.queries.size())),
           "ratio", "base: completed sessions");

  // sim: one span per (seed, variant) Run of the traced batch pass.
  for (const char* key : kVariantKeys) {
    const auto it = traced_batch.run_ms_by_variant.find(key);
    const std::vector<double> none;
    const std::vector<double>& runs =
        it == traced_batch.run_ms_by_variant.end() ? none : it->second;
    out->AddSampled(std::string("sim.run_ms.") + key, Median(runs), "ms",
                    runs.size());
  }

  // workload + obs.
  out->Add("workload.generate_ms", std::accumulate(generate_ms.begin(),
                                                   generate_ms.end(), 0.0),
           "ms", std::to_string(generate_ms.size()) + " workload seeds");
  out->Add("obs.trace_overhead_pct", overhead_pct, "%",
           "timed vs traced saturation throughput");
}

}  // namespace miso::perfbench
