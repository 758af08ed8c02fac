#include "sim/report_io.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "sim/simulator.h"
#include "workload/background.h"

namespace miso::sim {
namespace {

using testing_util::PaperCatalog;

RunReport SmallRun(bool with_background) {
  workload::WorkloadConfig wl;
  wl.num_analysts = 2;
  wl.versions_per_analyst = 2;
  auto workload = workload::EvolutionaryWorkload::Generate(&PaperCatalog(),
                                                           wl);
  SimConfig config;
  config.variant = SystemVariant::kMsMiso;
  if (with_background) config.background = workload::SpareIo40();
  MultistoreSimulator simulator(&PaperCatalog(), config);
  auto report = simulator.Run(workload->queries());
  EXPECT_TRUE(report.ok());
  return std::move(report).value();
}

int CountLines(const std::string& s) {
  int lines = 0;
  for (char c : s) {
    if (c == '\n') ++lines;
  }
  return lines;
}

TEST(ReportIoTest, QueriesCsvHasHeaderAndOneRowPerQuery) {
  RunReport report = SmallRun(false);
  const std::string csv = QueriesToCsv(report);
  EXPECT_EQ(CountLines(csv), static_cast<int>(report.queries.size()) + 1);
  EXPECT_EQ(csv.rfind("index,name,start_s", 0), 0u);
  EXPECT_NE(csv.find("A1v1"), std::string::npos);
}

TEST(ReportIoTest, TicksCsvEmptyWithoutBackground) {
  RunReport report = SmallRun(false);
  EXPECT_EQ(CountLines(TicksToCsv(report)), 1) << "header only";
}

TEST(ReportIoTest, TicksCsvPopulatedWithBackground) {
  RunReport report = SmallRun(true);
  const std::string csv = TicksToCsv(report);
  EXPECT_GT(CountLines(csv), 100);
  EXPECT_EQ(csv.rfind("time_s,io_used", 0), 0u);
}

TEST(ReportIoTest, SummaryCsvRoundNumbers) {
  RunReport report = SmallRun(false);
  const std::string with = SummaryToCsv(report, /*with_header=*/true);
  const std::string without = SummaryToCsv(report, /*with_header=*/false);
  EXPECT_EQ(CountLines(with), 2);
  EXPECT_EQ(CountLines(without), 1);
  EXPECT_NE(with.find("MS-MISO"), std::string::npos);
}

TEST(ReportIoTest, WriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/miso_report_test.csv";
  RunReport report = SmallRun(false);
  MISO_ASSERT_OK(WriteFile(path, QueriesToCsv(report)));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), QueriesToCsv(report));
  std::remove(path.c_str());
}

TEST(ReportIoTest, WriteFileFailsOnBadPath) {
  EXPECT_FALSE(WriteFile("/nonexistent_dir_xyz/file.csv", "x").ok());
}

// Field-by-field equality, bit-exact on doubles (%.17g round-trips IEEE
// exactly). A field added to RunReport/QueryRecord without JSON support
// fails here loudly instead of being dropped silently.
void ExpectReportsEqual(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.variant, b.variant);
  EXPECT_EQ(a.variant_name, b.variant_name);
  EXPECT_EQ(a.etl_s, b.etl_s);
  EXPECT_EQ(a.tune_s, b.tune_s);
  EXPECT_EQ(a.hv_exe_s, b.hv_exe_s);
  EXPECT_EQ(a.dw_exe_s, b.dw_exe_s);
  EXPECT_EQ(a.transfer_s, b.transfer_s);
  EXPECT_EQ(a.reorg_count, b.reorg_count);
  EXPECT_EQ(a.bytes_moved_to_dw, b.bytes_moved_to_dw);
  EXPECT_EQ(a.bytes_moved_to_hv, b.bytes_moved_to_hv);
  EXPECT_EQ(a.fault_injected, b.fault_injected);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.fault_wasted_s, b.fault_wasted_s);
  EXPECT_EQ(a.fault_backoff_s, b.fault_backoff_s);
  EXPECT_EQ(a.degraded_queries, b.degraded_queries);
  EXPECT_EQ(a.reorg_crashes, b.reorg_crashes);
  EXPECT_EQ(a.reorgs_skipped, b.reorgs_skipped);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.epochs_published, b.epochs_published);
  EXPECT_EQ(a.reorgs_rolled_back, b.reorgs_rolled_back);
  EXPECT_EQ(a.reorg_overlap_saved_s, b.reorg_overlap_saved_s);
  EXPECT_EQ(a.plan_cache_hits, b.plan_cache_hits);
  EXPECT_EQ(a.plan_cache_misses, b.plan_cache_misses);
  EXPECT_EQ(a.plan_cache_evictions, b.plan_cache_evictions);
  EXPECT_EQ(a.plan_cache_invalidations, b.plan_cache_invalidations);
  EXPECT_EQ(a.waves_speculative, b.waves_speculative);
  EXPECT_EQ(a.waves_replanned, b.waves_replanned);
  EXPECT_EQ(a.sessions_admitted, b.sessions_admitted);
  EXPECT_EQ(a.sessions_shed, b.sessions_shed);
  EXPECT_EQ(a.sessions_failed, b.sessions_failed);
  EXPECT_EQ(a.breaker_degraded_sessions, b.breaker_degraded_sessions);
  EXPECT_EQ(a.breaker_transitions, b.breaker_transitions);
  EXPECT_EQ(a.breaker_open_s, b.breaker_open_s);
  EXPECT_EQ(a.background_slowdown, b.background_slowdown);
  EXPECT_EQ(a.avg_background_latency_s, b.avg_background_latency_s);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const QueryRecord& qa = a.queries[i];
    const QueryRecord& qb = b.queries[i];
    EXPECT_EQ(qa.index, qb.index);
    EXPECT_EQ(qa.name, qb.name);
    EXPECT_EQ(qa.start_time, qb.start_time);
    EXPECT_EQ(qa.completion_time, qb.completion_time);
    EXPECT_EQ(qa.breakdown.hv_exec_s, qb.breakdown.hv_exec_s);
    EXPECT_EQ(qa.breakdown.dump_s, qb.breakdown.dump_s);
    EXPECT_EQ(qa.breakdown.transfer_load_s, qb.breakdown.transfer_load_s);
    EXPECT_EQ(qa.breakdown.dw_exec_s, qb.breakdown.dw_exec_s);
    EXPECT_EQ(qa.ops_total, qb.ops_total);
    EXPECT_EQ(qa.ops_dw, qb.ops_dw);
    EXPECT_EQ(qa.transferred_bytes, qb.transferred_bytes);
    EXPECT_EQ(qa.views_used, qb.views_used);
    EXPECT_EQ(qa.degraded, qb.degraded);
    EXPECT_EQ(qa.fault_injected, qb.fault_injected);
    EXPECT_EQ(qa.fault_retries, qb.fault_retries);
    EXPECT_EQ(qa.fault_wasted_s, qb.fault_wasted_s);
    EXPECT_EQ(qa.fault_backoff_s, qb.fault_backoff_s);
    EXPECT_EQ(qa.epoch, qb.epoch);
    EXPECT_EQ(qa.reorg_wait_s, qb.reorg_wait_s);
    EXPECT_EQ(qa.breaker_degraded, qb.breaker_degraded);
  }
  ASSERT_EQ(a.dw_ticks.size(), b.dw_ticks.size());
  for (size_t i = 0; i < a.dw_ticks.size(); ++i) {
    SCOPED_TRACE("tick " + std::to_string(i));
    EXPECT_EQ(a.dw_ticks[i].time, b.dw_ticks[i].time);
    EXPECT_EQ(a.dw_ticks[i].io_used, b.dw_ticks[i].io_used);
    EXPECT_EQ(a.dw_ticks[i].cpu_used, b.dw_ticks[i].cpu_used);
    EXPECT_EQ(a.dw_ticks[i].bg_query_latency_s, b.dw_ticks[i].bg_query_latency_s);
    EXPECT_EQ(a.dw_ticks[i].activity, b.dw_ticks[i].activity);
  }
}

TEST(ReportIoJsonTest, RoundTripSimulatorRunWithTicks) {
  RunReport report = SmallRun(true);
  ASSERT_FALSE(report.queries.empty());
  ASSERT_FALSE(report.dw_ticks.empty());
  MISO_ASSERT_OK_AND_ASSIGN(const RunReport parsed,
                            ReportFromJson(ReportToJson(report)));
  ExpectReportsEqual(report, parsed);
}

TEST(ReportIoJsonTest, RoundTripCoversEveryCounterAddedSincePr7) {
  // The fields the CSVs do not carry, hand-set to distinct values so a
  // dropped field cannot hide behind a zero default: the plan-cache and
  // pipelining counters, and the overload-protection block.
  RunReport report = SmallRun(false);
  report.plan_cache_hits = 101;
  report.plan_cache_misses = 102;
  report.plan_cache_evictions = 103;
  report.plan_cache_invalidations = 104;
  report.waves_speculative = 105;
  report.waves_replanned = 106;
  report.sessions_admitted = 107;
  report.sessions_shed = 108;
  report.sessions_failed = 109;
  report.breaker_degraded_sessions = 110;
  report.breaker_transitions = 111;
  report.breaker_open_s = 112.25;
  report.waves = 113;
  report.epochs_published = 114;
  report.reorgs_rolled_back = 115;
  report.reorg_overlap_saved_s = 116.5;
  report.reorgs_skipped = 117;
  // Awkward doubles round-trip bit-exactly, and int64 counters survive
  // above 2^53 (where a double-typed parse would round).
  report.etl_s = 0.1 + 0.2;
  report.plan_cache_hits = (int64_t{1} << 53) + 1;
  ASSERT_FALSE(report.queries.empty());
  report.queries[0].degraded = true;
  report.queries[0].breaker_degraded = true;
  report.queries[0].fault_injected = 3;
  report.queries[0].reorg_wait_s = 7.75;
  report.queries[0].epoch = 2;
  report.queries[0].name = "needs \"escaping\"\r\n\ttoo\x01";
  MISO_ASSERT_OK_AND_ASSIGN(const RunReport parsed,
                            ReportFromJson(ReportToJson(report)));
  ExpectReportsEqual(report, parsed);
}

TEST(ReportIoJsonTest, AbsentKeysKeepDefaultsAndUnknownKeysAreIgnored) {
  MISO_ASSERT_OK_AND_ASSIGN(
      const RunReport parsed,
      ReportFromJson(
          "{\"waves\": 7, \"future_field\": [1, {\"x\": null}], "
          "\"variant_name\": \"MS-MISO\"}"));
  EXPECT_EQ(parsed.waves, 7);
  EXPECT_EQ(parsed.variant_name, "MS-MISO");
  EXPECT_EQ(parsed.sessions_shed, 0);
  EXPECT_TRUE(parsed.queries.empty());
}

TEST(ReportIoJsonTest, MalformedAndMistypedInputsFail) {
  EXPECT_FALSE(ReportFromJson("").ok());
  EXPECT_FALSE(ReportFromJson("[1,2]").ok());
  EXPECT_FALSE(ReportFromJson("{\"waves\": 7").ok());
  EXPECT_FALSE(ReportFromJson("{\"waves\": \"seven\"}").ok());
  EXPECT_FALSE(ReportFromJson("{\"queries\": 3}").ok());
  EXPECT_FALSE(ReportFromJson("{\"queries\": [42]}").ok());
  EXPECT_FALSE(ReportFromJson("{} trailing").ok());
  // Integer fields take plain integers in the field's range; anything
  // else fails instead of truncating.
  EXPECT_FALSE(ReportFromJson("{\"waves\": 1e10}").ok());
  EXPECT_FALSE(ReportFromJson("{\"waves\": 2.9}").ok());
  EXPECT_FALSE(ReportFromJson("{\"waves\": 1099511627776}").ok());
  EXPECT_FALSE(ReportFromJson("{\"waves\": -2147483649}").ok());
  EXPECT_FALSE(ReportFromJson("{\"waves\": +3}").ok());
  EXPECT_FALSE(ReportFromJson("{\"waves\": -}").ok());
  EXPECT_FALSE(
      ReportFromJson("{\"bytes_moved_to_dw\": 9223372036854775808}").ok());
  EXPECT_FALSE(ReportFromJson("{\"variant\": -1}").ok());
  EXPECT_FALSE(ReportFromJson("{\"variant\": 8}").ok());
  // The boundaries themselves still parse.
  auto edges = ReportFromJson(
      "{\"waves\": 2147483647, \"bytes_moved_to_dw\": "
      "-9223372036854775808, \"variant\": 7}");
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ(edges->waves, 2147483647);
  EXPECT_EQ(edges->bytes_moved_to_dw, std::numeric_limits<Bytes>::min());
  EXPECT_EQ(edges->variant, SystemVariant::kMsOra);
}

}  // namespace
}  // namespace miso::sim
