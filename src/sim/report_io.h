#ifndef MISO_SIM_REPORT_IO_H_
#define MISO_SIM_REPORT_IO_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "sim/report.h"

namespace miso::sim {

/// CSV serializations of a run report, for downstream plotting (the
/// figures of the paper are one `gnuplot`/pandas invocation away from
/// these files).

/// Per-query rows (17 columns): index, name, start_s, completion_s,
/// hv_exec_s, dump_s, transfer_load_s, dw_exec_s, ops_dw, ops_total,
/// transferred_bytes, views_used, degraded, fault_injected, fault_retries,
/// fault_wasted_s, fault_backoff_s.
std::string QueriesToCsv(const RunReport& report);

/// DW resource tick rows (Figure 9): time, io, cpu, bg_latency, activity.
std::string TicksToCsv(const RunReport& report);

/// One summary row (17 columns): variant, tti_s, hv_exe_s, dw_exe_s,
/// transfer_s, tune_s, etl_s, reorg_count, bytes_to_dw, bytes_to_hv,
/// fault_injected, fault_retries, fault_wasted_s, fault_backoff_s,
/// degraded_queries, reorg_crashes, reorgs_skipped.
std::string SummaryToCsv(const RunReport& report, bool with_header);

/// Full JSON serialization of a run report: *every* RunReport and
/// QueryRecord field, including the serving-path counters (plan_cache_*,
/// waves_speculative/waves_replanned) and the overload-protection fields
/// (sessions_shed/failed, breaker_*) the CSVs do not carry. Doubles are
/// printed with %.17g so `ReportFromJson(ReportToJson(r))` round-trips
/// bit-exactly — pinned field-by-field by tests, so a field added to
/// RunReport without serialization support fails loudly instead of
/// silently dropping.
std::string ReportToJson(const RunReport& report);

/// Parses `ReportToJson` output (any standard JSON with the same shape).
/// Unknown keys are ignored; absent keys keep their default values;
/// malformed JSON or mistyped fields fail (a non-integer or out-of-range
/// integer field, an unknown `variant`).
Result<RunReport> ReportFromJson(const std::string& json);

/// Writes `content` to `path` (overwrites).
Status WriteFile(const std::string& path, const std::string& content);

}  // namespace miso::sim

#endif  // MISO_SIM_REPORT_IO_H_
