#include "abrreport.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/exposition.hpp"
#include "obs/journal.hpp"
#include "util/checked_parse.hpp"
#include "util/strings.hpp"

namespace abr::tools {

namespace {

void skip_spaces(const std::string& text, std::size_t& pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
}

/// Appends `codepoint` to `out` as UTF-8 (journal strings only ever escape
/// ASCII control characters, but accept the full \uXXXX range anyway).
void append_utf8(std::string& out, unsigned codepoint) {
  if (codepoint < 0x80) {
    out += static_cast<char>(codepoint);
  } else if (codepoint < 0x800) {
    out += static_cast<char>(0xC0 | (codepoint >> 6));
    out += static_cast<char>(0x80 | (codepoint & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (codepoint >> 12));
    out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (codepoint & 0x3F));
  }
}

bool parse_string(const std::string& text, std::size_t& pos, std::string& out,
                  std::string& error) {
  out.clear();
  ++pos;  // opening quote
  while (pos < text.size()) {
    const char c = text[pos];
    if (c == '"') {
      ++pos;
      return true;
    }
    if (c != '\\') {
      out += c;
      ++pos;
      continue;
    }
    if (pos + 1 >= text.size()) break;
    const char escape = text[pos + 1];
    pos += 2;
    switch (escape) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (pos + 4 > text.size()) {
          error = "truncated \\u escape";
          return false;
        }
        unsigned codepoint = 0;
        for (int i = 0; i < 4; ++i) {
          const char hex = text[pos + static_cast<std::size_t>(i)];
          codepoint <<= 4;
          if (hex >= '0' && hex <= '9') codepoint |= static_cast<unsigned>(hex - '0');
          else if (hex >= 'a' && hex <= 'f') codepoint |= static_cast<unsigned>(hex - 'a' + 10);
          else if (hex >= 'A' && hex <= 'F') codepoint |= static_cast<unsigned>(hex - 'A' + 10);
          else {
            error = "bad \\u escape";
            return false;
          }
        }
        pos += 4;
        append_utf8(out, codepoint);
        break;
      }
      default:
        error = std::string("unknown escape \\") + escape;
        return false;
    }
  }
  error = "unterminated string";
  return false;
}

}  // namespace

bool parse_flat_json(const std::string& line, JsonObject& out,
                     std::string& error) {
  out.clear();
  error.clear();
  std::size_t pos = 0;
  skip_spaces(line, pos);
  if (pos >= line.size() || line[pos] != '{') {
    error = "expected '{'";
    return false;
  }
  ++pos;
  skip_spaces(line, pos);
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
  } else {
    while (true) {
      skip_spaces(line, pos);
      if (pos >= line.size() || line[pos] != '"') {
        error = "expected key string";
        return false;
      }
      std::string key;
      if (!parse_string(line, pos, key, error)) return false;
      skip_spaces(line, pos);
      if (pos >= line.size() || line[pos] != ':') {
        error = "expected ':' after key \"" + key + "\"";
        return false;
      }
      ++pos;
      skip_spaces(line, pos);
      if (pos >= line.size()) {
        error = "missing value for key \"" + key + "\"";
        return false;
      }
      JsonValue value;
      if (line[pos] == '"') {
        value.kind = JsonValue::Kind::kString;
        if (!parse_string(line, pos, value.text, error)) return false;
      } else if (line.compare(pos, 4, "true") == 0) {
        value.kind = JsonValue::Kind::kBoolean;
        value.boolean = true;
        pos += 4;
      } else if (line.compare(pos, 5, "false") == 0) {
        value.kind = JsonValue::Kind::kBoolean;
        value.boolean = false;
        pos += 5;
      } else {
        value.kind = JsonValue::Kind::kNumber;
        // Scan the strict JSON number grammar, then do an overflow-checked
        // parse. A hostile journal line with "NaN", "Infinity", hex floats,
        // or an overflowing exponent is a malformed record, not a number
        // (strtod accepts all four).
        std::size_t token_end = pos;
        while (token_end < line.size() &&
               (std::isdigit(static_cast<unsigned char>(line[token_end])) ||
                line[token_end] == '-' || line[token_end] == '+' ||
                line[token_end] == '.' || line[token_end] == 'e' ||
                line[token_end] == 'E')) {
          ++token_end;
        }
        const std::string_view token(line.c_str() + pos, token_end - pos);
        if (!util::is_json_number(token) ||
            !util::parse_double(token, value.number)) {
          error = "bad value for key \"" + key + "\"";
          return false;
        }
        pos = token_end;
      }
      out[key] = std::move(value);
      skip_spaces(line, pos);
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
        continue;
      }
      break;
    }
    if (pos >= line.size() || line[pos] != '}') {
      error = "expected '}' or ','";
      return false;
    }
    ++pos;
  }
  skip_spaces(line, pos);
  if (pos != line.size()) {
    error = "trailing characters after object";
    return false;
  }
  return true;
}

namespace {

std::string get_string(const JsonObject& object, const std::string& key) {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != JsonValue::Kind::kString) {
    return {};
  }
  return it->second.text;
}

double get_number(const JsonObject& object, const std::string& key) {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != JsonValue::Kind::kNumber) {
    return 0.0;
  }
  return it->second.number;
}

bool get_flag(const JsonObject& object, const std::string& key) {
  const auto it = object.find(key);
  return it != object.end() && it->second.kind == JsonValue::Kind::kBoolean &&
         it->second.boolean;
}

std::size_t get_count(const JsonObject& object, const std::string& key) {
  // Checked conversion: llround on a huge double is UB, and journal counts
  // are small — treat anything non-integral or out of range as 0.
  std::size_t count = 0;
  const double value = get_number(object, key);
  if (value > 0.0 && util::size_from_double(std::floor(value + 0.5), count)) {
    return count;
  }
  return 0;
}

AlgorithmSummary& algorithm_entry(std::vector<AlgorithmSummary>& algorithms,
                                  const std::string& name) {
  for (AlgorithmSummary& existing : algorithms) {
    if (existing.algorithm == name) return existing;
  }
  AlgorithmSummary fresh;
  fresh.algorithm = name;
  algorithms.push_back(std::move(fresh));
  return algorithms.back();
}

}  // namespace

ReportSummary summarize_journal(std::istream& in) {
  ReportSummary summary;
  std::string line;
  JsonObject record;
  std::string error;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++summary.lines;
    if (!parse_flat_json(line, record, error)) {
      ++summary.malformed_lines;
      if (summary.first_error.empty()) {
        summary.first_error =
            "line " + std::to_string(summary.lines) + ": " + error;
      }
      continue;
    }
    const std::string type = get_string(record, "type");
    const std::string algorithm = get_string(record, "algo");
    if (type == "chunk") {
      ++summary.chunk_records;
      AlgorithmSummary& algo = algorithm_entry(summary.algorithms, algorithm);
      ++algo.chunks;
      const std::string path = get_string(record, "path");
      if (path == "online") ++algo.online_chunks;
      else if (path == "table") ++algo.table_chunks;
      if (get_flag(record, "warm_start")) ++algo.warm_starts;
      algo.nodes_expanded += get_count(record, "nodes");
    } else if (type == "session") {
      ++summary.session_records;
      AlgorithmSummary& algo = algorithm_entry(summary.algorithms, algorithm);
      ++algo.sessions;
      const double qoe = get_number(record, "qoe");
      algo.session_qoe.push_back(qoe);
      algo.qoe_sum += qoe;
      algo.utility_sum += get_number(record, "qoe_utility");
      algo.switch_penalty_sum += get_number(record, "qoe_switch_penalty");
      algo.rebuffer_charge_sum += get_number(record, "qoe_rebuffer_charge");
      algo.startup_charge_sum += get_number(record, "qoe_startup_charge");
      algo.bitrate_kbps_sum += get_number(record, "avg_bitrate_kbps");
      algo.rebuffer_s_sum += get_number(record, "rebuffer_s");
      algo.switches += get_count(record, "switches");
      algo.degraded_chunks += get_count(record, "degraded");
      algo.skipped_chunks += get_count(record, "skipped");
      algo.attempts += get_count(record, "attempts");
      algo.faults += get_count(record, "faults");
      algo.aborted_chunks += get_count(record, "aborted");
      algo.partial_chunks += get_count(record, "partial");
      algo.resumes += get_count(record, "resumes");
      algo.wasted_kb += get_number(record, "wasted_kb");
    }
    // Unknown record types are skipped: the schema may grow and old
    // abrreport builds should still summarize what they understand.
  }
  std::sort(summary.algorithms.begin(), summary.algorithms.end(),
            [](const AlgorithmSummary& a, const AlgorithmSummary& b) {
              return a.algorithm < b.algorithm;
            });
  return summary;
}

ReportSummary load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("abrreport: cannot open " + path);
  }
  return summarize_journal(in);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(rank == 0 ? 0 : rank - 1, samples.size() - 1)];
}

namespace {

void append_row(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void append_row(std::string& out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  out += buffer;
}

double per_session(double sum, std::size_t sessions) {
  return sessions > 0 ? sum / static_cast<double>(sessions) : 0.0;
}

}  // namespace

std::string render_report(const ReportSummary& summary) {
  std::string out;
  append_row(out, "journal: %zu lines (%zu chunk, %zu session records",
             summary.lines, summary.chunk_records, summary.session_records);
  if (summary.malformed_lines > 0) {
    append_row(out, ", %zu malformed — first: %s", summary.malformed_lines,
               summary.first_error.c_str());
  }
  out += ")\n\n";

  out += "QoE per session (Fig. 9 style)\n";
  append_row(out, "%-12s %8s %10s %10s %10s %10s %9s %8s\n", "algorithm",
             "sessions", "QoE mean", "QoE p50", "QoE p90", "kbps", "rebuf_s",
             "switches");
  for (const AlgorithmSummary& algo : summary.algorithms) {
    append_row(out, "%-12s %8zu %10.1f %10.1f %10.1f %10.0f %9.2f %8zu\n",
               algo.algorithm.c_str(), algo.sessions,
               per_session(algo.qoe_sum, algo.sessions),
               percentile(algo.session_qoe, 0.50),
               percentile(algo.session_qoe, 0.90),
               per_session(algo.bitrate_kbps_sum, algo.sessions),
               per_session(algo.rebuffer_s_sum, algo.sessions), algo.switches);
  }

  out += "\nEq. (5) attribution, per-session mean (Fig. 11 style)\n";
  append_row(out, "%-12s %10s %10s %10s %10s %12s\n", "algorithm", "utility",
             "-switch", "-rebuffer", "-startup", "= QoE");
  for (const AlgorithmSummary& algo : summary.algorithms) {
    append_row(out, "%-12s %10.1f %10.1f %10.1f %10.1f %12.1f\n",
               algo.algorithm.c_str(),
               per_session(algo.utility_sum, algo.sessions),
               per_session(algo.switch_penalty_sum, algo.sessions),
               per_session(algo.rebuffer_charge_sum, algo.sessions),
               per_session(algo.startup_charge_sum, algo.sessions),
               per_session(algo.qoe_sum, algo.sessions));
  }

  out += "\nsolver and delivery provenance (chunk records)\n";
  append_row(out,
             "%-12s %8s %8s %8s %7s %12s %9s %7s %9s %8s %8s %8s %10s\n",
             "algorithm", "chunks", "online", "table", "warm%", "nodes/chunk",
             "attempts", "faults", "degraded", "skipped", "aborted", "resumed",
             "wasted_kb");
  for (const AlgorithmSummary& algo : summary.algorithms) {
    const double warm_pct =
        algo.chunks > 0 ? 100.0 * static_cast<double>(algo.warm_starts) /
                              static_cast<double>(algo.chunks)
                        : 0.0;
    const double nodes_per_chunk =
        algo.chunks > 0 ? static_cast<double>(algo.nodes_expanded) /
                              static_cast<double>(algo.chunks)
                        : 0.0;
    append_row(out,
               "%-12s %8zu %8zu %8zu %6.1f%% %12.1f %9zu %7zu %9zu %8zu %8zu "
               "%8zu %10.0f\n",
               algo.algorithm.c_str(), algo.chunks, algo.online_chunks,
               algo.table_chunks, warm_pct, nodes_per_chunk, algo.attempts,
               algo.faults, algo.degraded_chunks, algo.skipped_chunks,
               algo.aborted_chunks, algo.resumes, algo.wasted_kb);
  }
  return out;
}

namespace {

std::int64_t to_us(double seconds) {
  // Clamped so a hostile journal value cannot overflow llround.
  return static_cast<std::int64_t>(
      std::llround(std::clamp(seconds * 1e6, -9.0e18, 9.0e18)));
}

JsonValue number_arg(double value) {
  JsonValue arg;
  arg.number = value;
  return arg;
}

JsonValue string_arg(std::string text) {
  JsonValue arg;
  arg.kind = JsonValue::Kind::kString;
  arg.text = std::move(text);
  return arg;
}

TraceEvent& add_event(ChromeTrace& trace, std::string name,
                      std::string category, char phase, double ts_s,
                      int tid) {
  TraceEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = phase;
  event.ts_us = to_us(ts_s);
  event.tid = tid;
  trace.events.push_back(std::move(event));
  return trace.events.back();
}

void add_span(ChromeTrace& trace, std::string name, std::string category,
              double start_s, double duration_s, int tid,
              std::vector<std::pair<std::string, JsonValue>> args) {
  TraceEvent& event =
      add_event(trace, std::move(name), std::move(category), 'X', start_s, tid);
  event.dur_us = std::max<std::int64_t>(to_us(duration_s), 0);
  event.args = std::move(args);
}

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  out += obs::json_escape(text);
  out += '"';
}

}  // namespace

ChromeTrace journal_to_chrome_trace(std::istream& in) {
  ChromeTrace trace;
  std::vector<JsonObject> records;
  std::vector<std::string> labels;  // first-appearance order == tid
  std::map<std::string, int> tids;
  std::string line;
  JsonObject record;
  std::string error;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    if (!parse_flat_json(line, record, error)) {
      ++trace.malformed_lines;
      if (trace.first_error.empty()) {
        trace.first_error = "line " + std::to_string(lines) + ": " + error;
      }
      continue;
    }
    const std::string type = get_string(record, "type");
    if (type != "chunk" && type != "session") continue;
    const std::string label = get_string(record, "session");
    if (tids.emplace(label, static_cast<int>(labels.size())).second) {
      labels.push_back(label);
    }
    records.push_back(std::move(record));
  }
  trace.sessions = labels.size();

  for (std::size_t i = 0; i < labels.size(); ++i) {
    add_event(trace, "thread_name", "", 'M', 0.0, static_cast<int>(i))
        .args.emplace_back("name", string_arg(labels[i]));
  }

  // Chrome plots one counter track per name, so a multi-session journal
  // names each session's buffer track after its label.
  const auto buffer_track = [&](const std::string& label) {
    return labels.size() == 1 ? std::string("buffer_s") : "buffer_s " + label;
  };
  // Startup delay counts from a session's first request, which in a fleet
  // is its staggered join time rather than zero.
  std::vector<std::optional<double>> first_request_s(labels.size());

  for (const JsonObject& r : records) {
    const std::string label = get_string(r, "session");
    const int tid = tids.at(label);
    std::optional<double>& first =
        first_request_s[static_cast<std::size_t>(tid)];
    if (get_string(r, "type") == "session") {
      add_event(trace, "playback_start", "playback", 'i',
                first.value_or(0.0) + get_number(r, "startup_delay_s"), tid);
      continue;
    }
    const double start_s = get_number(r, "t_s");
    const double download_s = get_number(r, "download_s");
    const double rebuffer_s = get_number(r, "rebuffer_s");
    const double wait_s = get_number(r, "wait_s");
    const double chunk = get_number(r, "chunk");
    if (!first.has_value()) first = start_s;

    TraceEvent& decide =
        add_event(trace, "decide", "controller", 'i', start_s, tid);
    decide.args.emplace_back("solver_path", string_arg(get_string(r, "path")));
    decide.args.emplace_back("nodes_expanded",
                             number_arg(get_number(r, "nodes")));
    add_span(trace, "download", "net", start_s, download_s, tid,
             {{"chunk", number_arg(chunk)},
              {"level", number_arg(get_number(r, "level"))},
              {"bitrate_kbps", number_arg(get_number(r, "bitrate_kbps"))},
              {"throughput_kbps",
               number_arg(get_number(r, "throughput_kbps"))}});
    const double download_end_s = start_s + download_s;
    if (rebuffer_s > 0.0) {
      // The stall occupies the tail of the download: the buffer ran dry
      // rebuffer_s before the chunk arrived.
      add_span(trace, "rebuffer", "playback", download_end_s - rebuffer_s,
               rebuffer_s, tid, {{"chunk", number_arg(chunk)}});
    }
    if (wait_s > 0.0) {
      add_span(trace, "wait", "playback", download_end_s, wait_s, tid,
               {{"chunk", number_arg(chunk)}});
    }
    static const char* const kFlags[][2] = {{"degraded", "degraded"},
                                            {"skipped", "chunk_skipped"},
                                            {"aborted", "chunk_aborted"},
                                            {"partial", "chunk_partial"}};
    for (const auto& [field, name] : kFlags) {
      if (get_flag(r, field)) add_event(trace, name, "net", 'i', start_s, tid);
    }
    add_event(trace, buffer_track(label), "", 'C', start_s, tid)
        .args.emplace_back("value",
                           number_arg(get_number(r, "buffer_before_s")));
    add_event(trace, buffer_track(label), "", 'C', download_end_s + wait_s,
              tid)
        .args.emplace_back("value",
                           number_arg(get_number(r, "buffer_after_s")));
  }
  return trace;
}

std::string render_chrome_trace(const ChromeTrace& trace) {
  std::string json;
  json.reserve(trace.events.size() * 112 + 128);
  json += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : trace.events) {
    if (!first) json += ",\n";
    first = false;
    json += "{\"name\":";
    append_json_string(json, event.name);
    if (!event.category.empty()) {
      json += ",\"cat\":";
      append_json_string(json, event.category);
    }
    json += ",\"ph\":\"";
    json += event.phase;
    json += '"';
    if (event.phase != 'M') json += ",\"ts\":" + std::to_string(event.ts_us);
    if (event.phase == 'X') {
      json += ",\"dur\":" + std::to_string(event.dur_us);
    }
    if (event.phase == 'i') json += ",\"s\":\"t\"";  // thread-scoped instant
    json += ",\"pid\":1,\"tid\":" + std::to_string(event.tid);
    if (!event.args.empty()) {
      json += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : event.args) {
        if (!first_arg) json += ',';
        first_arg = false;
        append_json_string(json, key);
        json += ':';
        switch (value.kind) {
          case JsonValue::Kind::kString:
            append_json_string(json, value.text);
            break;
          case JsonValue::Kind::kNumber:
            json += obs::json_number(value.number);
            break;
          case JsonValue::Kind::kBoolean:
            json += value.boolean ? "true" : "false";
            break;
        }
      }
      json += '}';
    }
    json += '}';
  }
  json += "],\"displayTimeUnit\":\"ms\",";
  json += "\"otherData\":{\"generator\":\"abrreport --chrome-trace\"}}\n";
  return json;
}

int check_metrics_file(const std::string& path, std::ostream& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out << "abrreport: cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::vector<obs::ExpositionIssue> issues =
      obs::validate_prometheus_text(buffer.str());
  if (issues.empty()) {
    out << path << ": valid Prometheus text exposition\n";
    return 0;
  }
  out << path << ": " << issues.size() << " exposition issue"
      << (issues.size() == 1 ? "" : "s") << "\n"
      << obs::format_exposition_issues(issues);
  return 1;
}

}  // namespace abr::tools
