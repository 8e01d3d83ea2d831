#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

// abrreport: offline summarizer for the structured session journal
// (obs::Journal JSONL) and validator for Prometheus scrape bodies. Reads
// the one-object-per-line records abrsim/multiplayer emit and renders the
// per-algorithm tables of the paper's evaluation (Fig. 9's QoE comparison,
// Fig. 11's attribution breakdown), plus solver/delivery columns the paper
// aggregates by hand. `--check-metrics` reuses obs::validate_prometheus_text
// so CI's telemetry smoke job and local scrapes gate on one validator.
// `--chrome-trace` renders a journal as a Chrome trace-event timeline: the
// journal is every producer's one per-chunk record, so any journal (single
// player or shared-link fleet) gets a timeline without simulator code.

namespace abr::tools {

/// One scalar from a flat journal record. The journal schema is flat by
/// design (no nesting), so strings, numbers, and booleans cover it.
struct JsonValue {
  enum class Kind { kString, kNumber, kBoolean };
  Kind kind = Kind::kNumber;
  std::string text;
  double number = 0.0;
  bool boolean = false;
};

/// One parsed journal line, keyed by field name.
using JsonObject = std::map<std::string, JsonValue>;

/// Parses one flat JSON object ({"key":value,...}; values are strings,
/// numbers, or booleans). Returns false and sets `error` on malformed
/// input; `out` is cleared first either way.
bool parse_flat_json(const std::string& line, JsonObject& out,
                     std::string& error);

/// Per-algorithm aggregate over the journal's session and chunk records.
struct AlgorithmSummary {
  std::string algorithm;

  // From "session" records.
  std::size_t sessions = 0;
  std::vector<double> session_qoe;  ///< one entry per session record
  double qoe_sum = 0.0;
  double utility_sum = 0.0;
  double switch_penalty_sum = 0.0;
  double rebuffer_charge_sum = 0.0;
  double startup_charge_sum = 0.0;
  double bitrate_kbps_sum = 0.0;  ///< sum of per-session averages
  double rebuffer_s_sum = 0.0;
  std::size_t switches = 0;
  std::size_t degraded_chunks = 0;
  std::size_t skipped_chunks = 0;
  std::size_t attempts = 0;
  std::size_t faults = 0;
  // Sub-chunk delivery attribution (absent in pre-abort journals => 0).
  std::size_t aborted_chunks = 0;
  std::size_t partial_chunks = 0;
  std::size_t resumes = 0;
  double wasted_kb = 0.0;

  // From "chunk" records (solver provenance).
  std::size_t chunks = 0;
  std::size_t online_chunks = 0;  ///< solver_path == "online"
  std::size_t table_chunks = 0;   ///< solver_path == "table"
  std::size_t warm_starts = 0;
  std::size_t nodes_expanded = 0;
};

/// Whole-journal aggregate.
struct ReportSummary {
  std::size_t lines = 0;
  std::size_t chunk_records = 0;
  std::size_t session_records = 0;
  std::size_t malformed_lines = 0;
  std::string first_error;  ///< first parse error, "" when none
  std::vector<AlgorithmSummary> algorithms;  ///< sorted by algorithm name
};

/// Aggregates a journal stream (JSONL, one record per line).
ReportSummary summarize_journal(std::istream& in);

/// Opens and aggregates `path`; throws std::runtime_error when unreadable.
ReportSummary load_journal(const std::string& path);

/// Nearest-rank percentile (q in [0,1]) over an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> samples, double q);

/// Renders the per-algorithm QoE table (Fig. 9 style), the Eq. (5)
/// attribution breakdown (Fig. 11 style), and solver/delivery columns.
std::string render_report(const ReportSummary& summary);

/// One entry of Chrome's trace-event format. Times are integer
/// microseconds, as the format specifies.
struct TraceEvent {
  std::string name;
  std::string category;  ///< omitted from the output when empty
  char phase = 'X';      ///< 'X' complete, 'i' instant, 'C' counter,
                         ///< 'M' metadata
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;  ///< complete events only
  int tid = 0;
  std::vector<std::pair<std::string, JsonValue>> args;
};

/// A journal rendered as trace events, with the journal's parse account.
struct ChromeTrace {
  std::vector<TraceEvent> events;
  std::size_t sessions = 0;         ///< one track (tid) per session label
  std::size_t malformed_lines = 0;  ///< skipped, like summarize_journal
  std::string first_error;          ///< first parse error, "" when none
};

/// Renders a journal stream as a session timeline. Each session label gets
/// one tid, numbered in first-appearance order and named by a thread_name
/// metadata event. Per chunk record: a `decide` instant at t_s (solver path
/// and nodes expanded; no wall-clock duration), a `download` span
/// [t_s, t_s + download_s), a `rebuffer` span on the download's tail, a
/// `wait` span after the download, `degraded` / `chunk_skipped` /
/// `chunk_aborted` / `chunk_partial` instants at t_s, and a buffer counter
/// sampled at t_s (buffer_before_s) and after the wait (buffer_after_s).
/// Per session record: a `playback_start` instant startup_delay_s after the
/// session's first request. Every time is llround(seconds * 1e6), so the
/// same journal always renders the same events.
ChromeTrace journal_to_chrome_trace(std::istream& in);

/// Serializes as {"traceEvents":[...],...} (chrome://tracing, Perfetto).
/// Strings go through obs::json_escape and numbers through
/// obs::json_number, so the output is byte-deterministic.
std::string render_chrome_trace(const ChromeTrace& trace);

/// Validates `path` as Prometheus text exposition, writing issues to `out`.
/// Returns 0 when valid, 1 when issues were found, 2 when unreadable.
int check_metrics_file(const std::string& path, std::ostream& out);

}  // namespace abr::tools
