#include "sim/report_io.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace miso::sim {

namespace {

void AppendRow(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendRow(std::string* out, const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  out->append(buf);
}

// ---- JSON writer ------------------------------------------------------

/// Key/value appenders: %.17g round-trips IEEE doubles exactly through
/// strtod, so the parser restores bit-identical values.
void KvDouble(std::string* out, const char* key, double value) {
  AppendRow(out, "\"%s\":%.17g,", key, value);
}

void KvInt(std::string* out, const char* key, long long value) {
  AppendRow(out, "\"%s\":%lld,", key, value);
}

void KvBool(std::string* out, const char* key, bool value) {
  AppendRow(out, "\"%s\":%s,", key, value ? "true" : "false");
}

void KvString(std::string* out, const char* key, const std::string& value) {
  AppendRow(out, "\"%s\":", key);
  obs::AppendJsonString(*out, value);
  out->push_back(',');
}

/// Replaces the trailing comma of the last key/value with the closer.
void CloseJson(std::string* out, char closer) {
  if (!out->empty() && out->back() == ',') out->pop_back();
  out->push_back(closer);
}

// ---- JSON reader (minimal recursive descent) --------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string raw_number;  // exact token, for integer fields
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    MISO_RETURN_IF_ERROR(ParseValue(&value));
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing content");
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("report json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      pos_ += 1;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_ += 1;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      pos_ += 5;
      return Status::OK();
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    pos_ += 1;  // '{'
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      MISO_RETURN_IF_ERROR(ParseString(&key));
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      MISO_RETURN_IF_ERROR(ParseValue(&value));
      out->fields.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    pos_ += 1;  // '['
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      MISO_RETURN_IF_ERROR(ParseValue(&value));
      out->items.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    pos_ += 1;  // opening '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        pos_ += 1;
        return Status::OK();
      }
      if (c != '\\') {
        out->push_back(c);
        pos_ += 1;
        continue;
      }
      pos_ += 1;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_];
      pos_ += 1;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          pos_ += 4;
          // The writer only emits \u00xx (control characters); decode
          // the BMP without surrogate pairs, as UTF-8.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        pos_ += 1;
      } else {
        break;
      }
    }
    if (pos_ == start) return Fail("expected value");
    out->kind = JsonValue::Kind::kNumber;
    out->raw_number = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(out->raw_number.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("bad number");
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---- typed field extraction ------------------------------------------

Status FieldError(const std::string& key, const char* want) {
  return Status::InvalidArgument("report json: field '" + key + "' is not " +
                                 want);
}

Status GetDouble(const JsonValue& obj, const std::string& key, double* out) {
  const auto it = obj.fields.find(key);
  if (it == obj.fields.end()) return Status::OK();  // absent: keep default
  if (it->second.kind != JsonValue::Kind::kNumber) {
    return FieldError(key, "a number");
  }
  *out = it->second.number;
  return Status::OK();
}

template <typename Int>
Status GetInt(const JsonValue& obj, const std::string& key, Int* out) {
  const auto it = obj.fields.find(key);
  if (it == obj.fields.end()) return Status::OK();
  if (it->second.kind != JsonValue::Kind::kNumber) {
    return FieldError(key, "a number");
  }
  // Integer fields parse from the raw token, immune to double rounding
  // above 2^53 (byte counts can get there). A fraction, an exponent or a
  // value outside Int's range is an error, never a truncation.
  const std::string& token = it->second.raw_number;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (token[0] == '+' || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<Int>::min() ||
      value > std::numeric_limits<Int>::max()) {
    return FieldError(key, "an integer in range");
  }
  *out = static_cast<Int>(value);
  return Status::OK();
}

Status GetBool(const JsonValue& obj, const std::string& key, bool* out) {
  const auto it = obj.fields.find(key);
  if (it == obj.fields.end()) return Status::OK();
  if (it->second.kind != JsonValue::Kind::kBool) {
    return FieldError(key, "a bool");
  }
  *out = it->second.boolean;
  return Status::OK();
}

Status GetString(const JsonValue& obj, const std::string& key,
                 std::string* out) {
  const auto it = obj.fields.find(key);
  if (it == obj.fields.end()) return Status::OK();
  if (it->second.kind != JsonValue::Kind::kString) {
    return FieldError(key, "a string");
  }
  *out = it->second.str;
  return Status::OK();
}

void AppendQueryJson(std::string* out, const QueryRecord& q) {
  out->push_back('{');
  KvInt(out, "index", q.index);
  KvString(out, "name", q.name);
  KvDouble(out, "start_time", q.start_time);
  KvDouble(out, "completion_time", q.completion_time);
  KvDouble(out, "hv_exec_s", q.breakdown.hv_exec_s);
  KvDouble(out, "dump_s", q.breakdown.dump_s);
  KvDouble(out, "transfer_load_s", q.breakdown.transfer_load_s);
  KvDouble(out, "dw_exec_s", q.breakdown.dw_exec_s);
  KvInt(out, "ops_total", q.ops_total);
  KvInt(out, "ops_dw", q.ops_dw);
  KvInt(out, "transferred_bytes", static_cast<long long>(q.transferred_bytes));
  KvInt(out, "views_used", q.views_used);
  KvBool(out, "degraded", q.degraded);
  KvInt(out, "fault_injected", q.fault_injected);
  KvInt(out, "fault_retries", q.fault_retries);
  KvDouble(out, "fault_wasted_s", q.fault_wasted_s);
  KvDouble(out, "fault_backoff_s", q.fault_backoff_s);
  KvInt(out, "epoch", q.epoch);
  KvDouble(out, "reorg_wait_s", q.reorg_wait_s);
  KvBool(out, "breaker_degraded", q.breaker_degraded);
  CloseJson(out, '}');
}

Status QueryFromJson(const JsonValue& obj, QueryRecord* q) {
  if (obj.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("report json: query entry is not an object");
  }
  MISO_RETURN_IF_ERROR(GetInt(obj, "index", &q->index));
  MISO_RETURN_IF_ERROR(GetString(obj, "name", &q->name));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "start_time", &q->start_time));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "completion_time", &q->completion_time));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "hv_exec_s", &q->breakdown.hv_exec_s));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "dump_s", &q->breakdown.dump_s));
  MISO_RETURN_IF_ERROR(
      GetDouble(obj, "transfer_load_s", &q->breakdown.transfer_load_s));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "dw_exec_s", &q->breakdown.dw_exec_s));
  MISO_RETURN_IF_ERROR(GetInt(obj, "ops_total", &q->ops_total));
  MISO_RETURN_IF_ERROR(GetInt(obj, "ops_dw", &q->ops_dw));
  MISO_RETURN_IF_ERROR(
      GetInt(obj, "transferred_bytes", &q->transferred_bytes));
  MISO_RETURN_IF_ERROR(GetInt(obj, "views_used", &q->views_used));
  MISO_RETURN_IF_ERROR(GetBool(obj, "degraded", &q->degraded));
  MISO_RETURN_IF_ERROR(GetInt(obj, "fault_injected", &q->fault_injected));
  MISO_RETURN_IF_ERROR(GetInt(obj, "fault_retries", &q->fault_retries));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "fault_wasted_s", &q->fault_wasted_s));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "fault_backoff_s", &q->fault_backoff_s));
  MISO_RETURN_IF_ERROR(GetInt(obj, "epoch", &q->epoch));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "reorg_wait_s", &q->reorg_wait_s));
  MISO_RETURN_IF_ERROR(GetBool(obj, "breaker_degraded", &q->breaker_degraded));
  return Status::OK();
}

void AppendTickJson(std::string* out, const dw::DwTickSample& tick) {
  out->push_back('{');
  KvDouble(out, "time", tick.time);
  KvDouble(out, "io_used", tick.io_used);
  KvDouble(out, "cpu_used", tick.cpu_used);
  KvDouble(out, "bg_query_latency_s", tick.bg_query_latency_s);
  KvString(out, "activity", tick.activity);
  CloseJson(out, '}');
}

Status TickFromJson(const JsonValue& obj, dw::DwTickSample* tick) {
  if (obj.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("report json: tick entry is not an object");
  }
  MISO_RETURN_IF_ERROR(GetDouble(obj, "time", &tick->time));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "io_used", &tick->io_used));
  MISO_RETURN_IF_ERROR(GetDouble(obj, "cpu_used", &tick->cpu_used));
  MISO_RETURN_IF_ERROR(
      GetDouble(obj, "bg_query_latency_s", &tick->bg_query_latency_s));
  MISO_RETURN_IF_ERROR(GetString(obj, "activity", &tick->activity));
  return Status::OK();
}

}  // namespace

std::string QueriesToCsv(const RunReport& report) {
  std::string out =
      "index,name,start_s,completion_s,hv_exec_s,dump_s,transfer_load_s,"
      "dw_exec_s,ops_dw,ops_total,transferred_bytes,views_used,degraded,"
      "fault_injected,fault_retries,fault_wasted_s,fault_backoff_s\n";
  for (const QueryRecord& q : report.queries) {
    AppendRow(&out,
              "%d,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%d,%lld,%d,%d,%d,%d,"
              "%.3f,%.3f\n",
              q.index, q.name.c_str(), q.start_time, q.completion_time,
              q.breakdown.hv_exec_s, q.breakdown.dump_s,
              q.breakdown.transfer_load_s, q.breakdown.dw_exec_s, q.ops_dw,
              q.ops_total, static_cast<long long>(q.transferred_bytes),
              q.views_used, q.degraded ? 1 : 0, q.fault_injected,
              q.fault_retries, q.fault_wasted_s, q.fault_backoff_s);
  }
  return out;
}

std::string TicksToCsv(const RunReport& report) {
  std::string out = "time_s,io_used,cpu_used,bg_latency_s,activity\n";
  for (const dw::DwTickSample& tick : report.dw_ticks) {
    AppendRow(&out, "%.1f,%.4f,%.4f,%.4f,%s\n", tick.time, tick.io_used,
              tick.cpu_used, tick.bg_query_latency_s,
              tick.activity.c_str());
  }
  return out;
}

std::string SummaryToCsv(const RunReport& report, bool with_header) {
  std::string out;
  if (with_header) {
    out =
        "variant,tti_s,hv_exe_s,dw_exe_s,transfer_s,tune_s,etl_s,"
        "reorg_count,bytes_to_dw,bytes_to_hv,fault_injected,fault_retries,"
        "fault_wasted_s,fault_backoff_s,degraded_queries,reorg_crashes,"
        "reorgs_skipped\n";
  }
  AppendRow(&out,
            "%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%lld,%lld,%d,%d,%.3f,%.3f,"
            "%d,%d,%d\n",
            report.variant_name.c_str(), report.Tti(), report.hv_exe_s,
            report.dw_exe_s, report.transfer_s, report.tune_s, report.etl_s,
            report.reorg_count,
            static_cast<long long>(report.bytes_moved_to_dw),
            static_cast<long long>(report.bytes_moved_to_hv),
            report.fault_injected, report.fault_retries, report.fault_wasted_s,
            report.fault_backoff_s, report.degraded_queries,
            report.reorg_crashes, report.reorgs_skipped);
  return out;
}

std::string ReportToJson(const RunReport& report) {
  std::string out;
  out.push_back('{');
  KvInt(&out, "variant", static_cast<long long>(report.variant));
  KvString(&out, "variant_name", report.variant_name);
  KvDouble(&out, "etl_s", report.etl_s);
  KvDouble(&out, "tune_s", report.tune_s);
  KvDouble(&out, "hv_exe_s", report.hv_exe_s);
  KvDouble(&out, "dw_exe_s", report.dw_exe_s);
  KvDouble(&out, "transfer_s", report.transfer_s);
  KvInt(&out, "reorg_count", report.reorg_count);
  KvInt(&out, "bytes_moved_to_dw",
        static_cast<long long>(report.bytes_moved_to_dw));
  KvInt(&out, "bytes_moved_to_hv",
        static_cast<long long>(report.bytes_moved_to_hv));
  KvInt(&out, "fault_injected", report.fault_injected);
  KvInt(&out, "fault_retries", report.fault_retries);
  KvDouble(&out, "fault_wasted_s", report.fault_wasted_s);
  KvDouble(&out, "fault_backoff_s", report.fault_backoff_s);
  KvInt(&out, "degraded_queries", report.degraded_queries);
  KvInt(&out, "reorg_crashes", report.reorg_crashes);
  KvInt(&out, "reorgs_skipped", report.reorgs_skipped);
  KvInt(&out, "waves", report.waves);
  KvInt(&out, "epochs_published", report.epochs_published);
  KvInt(&out, "reorgs_rolled_back", report.reorgs_rolled_back);
  KvDouble(&out, "reorg_overlap_saved_s", report.reorg_overlap_saved_s);
  KvInt(&out, "plan_cache_hits", report.plan_cache_hits);
  KvInt(&out, "plan_cache_misses", report.plan_cache_misses);
  KvInt(&out, "plan_cache_evictions", report.plan_cache_evictions);
  KvInt(&out, "plan_cache_invalidations", report.plan_cache_invalidations);
  KvInt(&out, "waves_speculative", report.waves_speculative);
  KvInt(&out, "waves_replanned", report.waves_replanned);
  KvInt(&out, "sessions_admitted", report.sessions_admitted);
  KvInt(&out, "sessions_shed", report.sessions_shed);
  KvInt(&out, "sessions_failed", report.sessions_failed);
  KvInt(&out, "breaker_degraded_sessions", report.breaker_degraded_sessions);
  KvInt(&out, "breaker_transitions", report.breaker_transitions);
  KvDouble(&out, "breaker_open_s", report.breaker_open_s);
  KvDouble(&out, "background_slowdown", report.background_slowdown);
  KvDouble(&out, "avg_background_latency_s", report.avg_background_latency_s);
  out.append("\"queries\":[");
  for (const QueryRecord& q : report.queries) {
    AppendQueryJson(&out, q);
    out.push_back(',');
  }
  CloseJson(&out, ']');
  out.append(",\"dw_ticks\":[");
  for (const dw::DwTickSample& tick : report.dw_ticks) {
    AppendTickJson(&out, tick);
    out.push_back(',');
  }
  CloseJson(&out, ']');
  out.push_back('}');
  return out;
}

Result<RunReport> ReportFromJson(const std::string& json) {
  MISO_ASSIGN_OR_RETURN(JsonValue root, JsonParser(json).Parse());
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("report json: top level is not an object");
  }
  RunReport report;
  int variant = 0;
  MISO_RETURN_IF_ERROR(GetInt(root, "variant", &variant));
  if (variant < 0 || variant > static_cast<int>(SystemVariant::kMsOra)) {
    return FieldError("variant", "a known system variant");
  }
  report.variant = static_cast<SystemVariant>(variant);
  MISO_RETURN_IF_ERROR(GetString(root, "variant_name", &report.variant_name));
  MISO_RETURN_IF_ERROR(GetDouble(root, "etl_s", &report.etl_s));
  MISO_RETURN_IF_ERROR(GetDouble(root, "tune_s", &report.tune_s));
  MISO_RETURN_IF_ERROR(GetDouble(root, "hv_exe_s", &report.hv_exe_s));
  MISO_RETURN_IF_ERROR(GetDouble(root, "dw_exe_s", &report.dw_exe_s));
  MISO_RETURN_IF_ERROR(GetDouble(root, "transfer_s", &report.transfer_s));
  MISO_RETURN_IF_ERROR(GetInt(root, "reorg_count", &report.reorg_count));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "bytes_moved_to_dw", &report.bytes_moved_to_dw));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "bytes_moved_to_hv", &report.bytes_moved_to_hv));
  MISO_RETURN_IF_ERROR(GetInt(root, "fault_injected", &report.fault_injected));
  MISO_RETURN_IF_ERROR(GetInt(root, "fault_retries", &report.fault_retries));
  MISO_RETURN_IF_ERROR(
      GetDouble(root, "fault_wasted_s", &report.fault_wasted_s));
  MISO_RETURN_IF_ERROR(
      GetDouble(root, "fault_backoff_s", &report.fault_backoff_s));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "degraded_queries", &report.degraded_queries));
  MISO_RETURN_IF_ERROR(GetInt(root, "reorg_crashes", &report.reorg_crashes));
  MISO_RETURN_IF_ERROR(GetInt(root, "reorgs_skipped", &report.reorgs_skipped));
  MISO_RETURN_IF_ERROR(GetInt(root, "waves", &report.waves));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "epochs_published", &report.epochs_published));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "reorgs_rolled_back", &report.reorgs_rolled_back));
  MISO_RETURN_IF_ERROR(
      GetDouble(root, "reorg_overlap_saved_s", &report.reorg_overlap_saved_s));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "plan_cache_hits", &report.plan_cache_hits));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "plan_cache_misses", &report.plan_cache_misses));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "plan_cache_evictions", &report.plan_cache_evictions));
  MISO_RETURN_IF_ERROR(GetInt(root, "plan_cache_invalidations",
                              &report.plan_cache_invalidations));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "waves_speculative", &report.waves_speculative));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "waves_replanned", &report.waves_replanned));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "sessions_admitted", &report.sessions_admitted));
  MISO_RETURN_IF_ERROR(GetInt(root, "sessions_shed", &report.sessions_shed));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "sessions_failed", &report.sessions_failed));
  MISO_RETURN_IF_ERROR(GetInt(root, "breaker_degraded_sessions",
                              &report.breaker_degraded_sessions));
  MISO_RETURN_IF_ERROR(
      GetInt(root, "breaker_transitions", &report.breaker_transitions));
  MISO_RETURN_IF_ERROR(
      GetDouble(root, "breaker_open_s", &report.breaker_open_s));
  MISO_RETURN_IF_ERROR(
      GetDouble(root, "background_slowdown", &report.background_slowdown));
  MISO_RETURN_IF_ERROR(GetDouble(root, "avg_background_latency_s",
                                 &report.avg_background_latency_s));
  const auto queries_it = root.fields.find("queries");
  if (queries_it != root.fields.end()) {
    if (queries_it->second.kind != JsonValue::Kind::kArray) {
      return FieldError("queries", "an array");
    }
    report.queries.reserve(queries_it->second.items.size());
    for (const JsonValue& item : queries_it->second.items) {
      QueryRecord q;
      MISO_RETURN_IF_ERROR(QueryFromJson(item, &q));
      report.queries.push_back(std::move(q));
    }
  }
  const auto ticks_it = root.fields.find("dw_ticks");
  if (ticks_it != root.fields.end()) {
    if (ticks_it->second.kind != JsonValue::Kind::kArray) {
      return FieldError("dw_ticks", "an array");
    }
    report.dw_ticks.reserve(ticks_it->second.items.size());
    for (const JsonValue& item : ticks_it->second.items) {
      dw::DwTickSample tick;
      MISO_RETURN_IF_ERROR(TickFromJson(item, &tick));
      report.dw_ticks.push_back(std::move(tick));
    }
  }
  return report;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  out << content;
  if (!out.good()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace miso::sim
