// abrreport library: the flat JSONL parser, per-algorithm aggregation over
// journal records, table rendering, the scrape-body validator entry point
// CI's telemetry smoke job uses, and the journal -> Chrome trace renderer.
#include "abrreport.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/journal.hpp"
#include "sim/player.hpp"
#include "test_helpers.hpp"
#include "trace/throughput_trace.hpp"

namespace abr::tools {
namespace {

TEST(ParseFlatJson, ParsesStringsNumbersAndBooleans) {
  JsonObject object;
  std::string error;
  ASSERT_TRUE(parse_flat_json(
      R"({"name":"s0","qoe":-12.5,"chunks":65,"warm":true,"skip":false})",
      object, error))
      << error;
  EXPECT_EQ(object.at("name").kind, JsonValue::Kind::kString);
  EXPECT_EQ(object.at("name").text, "s0");
  EXPECT_DOUBLE_EQ(object.at("qoe").number, -12.5);
  EXPECT_DOUBLE_EQ(object.at("chunks").number, 65.0);
  EXPECT_TRUE(object.at("warm").boolean);
  EXPECT_FALSE(object.at("skip").boolean);
}

TEST(ParseFlatJson, DecodesEscapes) {
  JsonObject object;
  std::string error;
  ASSERT_TRUE(parse_flat_json(R"({"a":"x\"y\\z\n","b":"A\u00e9"})",
                              object, error))
      << error;
  EXPECT_EQ(object.at("a").text, "x\"y\\z\n");
  EXPECT_EQ(object.at("b").text, "A\xc3\xa9");
}

TEST(ParseFlatJson, AcceptsEmptyObjectAndWhitespace) {
  JsonObject object;
  std::string error;
  EXPECT_TRUE(parse_flat_json("  { }  ", object, error)) << error;
  EXPECT_TRUE(object.empty());
}

TEST(ParseFlatJson, RejectsMalformedInput) {
  JsonObject object;
  std::string error;
  EXPECT_FALSE(parse_flat_json("", object, error));
  EXPECT_FALSE(parse_flat_json("[1,2]", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":})", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":1)", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":1} trailing)", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":"unterminated)", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":"\q"})", object, error));
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
                               10.0},
                              0.5),
                   5.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
                               10.0},
                              0.9),
                   9.0);
}

std::istringstream sample_journal() {
  return std::istringstream(
      R"({"type":"chunk","session":"s0","algo":"MPC","chunk":0,"nodes":100,"warm_start":false,"path":"online"}
{"type":"chunk","session":"s0","algo":"MPC","chunk":1,"nodes":50,"warm_start":true,"path":"online"}
{"type":"chunk","session":"s1","algo":"FastMPC","chunk":0,"nodes":0,"warm_start":false,"path":"table"}
{"type":"session","session":"s0","algo":"MPC","chunks":2,"qoe":100,"qoe_utility":150,"qoe_switch_penalty":20,"qoe_rebuffer_charge":10,"qoe_startup_charge":20,"avg_bitrate_kbps":800,"rebuffer_s":1.5,"switches":3,"degraded":1,"skipped":0,"attempts":4,"faults":2}
{"type":"session","session":"s1","algo":"FastMPC","chunks":1,"qoe":60,"avg_bitrate_kbps":600,"switches":1}
not json at all
)");
}

TEST(SummarizeJournal, AggregatesPerAlgorithm) {
  auto in = sample_journal();
  const ReportSummary summary = summarize_journal(in);
  EXPECT_EQ(summary.lines, 6u);
  EXPECT_EQ(summary.chunk_records, 3u);
  EXPECT_EQ(summary.session_records, 2u);
  EXPECT_EQ(summary.malformed_lines, 1u);
  EXPECT_NE(summary.first_error.find("line 6"), std::string::npos)
      << summary.first_error;

  ASSERT_EQ(summary.algorithms.size(), 2u);
  // Sorted by name: FastMPC before MPC.
  const AlgorithmSummary& fast = summary.algorithms[0];
  EXPECT_EQ(fast.algorithm, "FastMPC");
  EXPECT_EQ(fast.sessions, 1u);
  EXPECT_EQ(fast.chunks, 1u);
  EXPECT_EQ(fast.table_chunks, 1u);
  EXPECT_EQ(fast.online_chunks, 0u);

  const AlgorithmSummary& mpc = summary.algorithms[1];
  EXPECT_EQ(mpc.algorithm, "MPC");
  EXPECT_EQ(mpc.sessions, 1u);
  EXPECT_EQ(mpc.chunks, 2u);
  EXPECT_EQ(mpc.online_chunks, 2u);
  EXPECT_EQ(mpc.warm_starts, 1u);
  EXPECT_EQ(mpc.nodes_expanded, 150u);
  EXPECT_DOUBLE_EQ(mpc.qoe_sum, 100.0);
  EXPECT_DOUBLE_EQ(mpc.utility_sum, 150.0);
  EXPECT_DOUBLE_EQ(mpc.switch_penalty_sum, 20.0);
  EXPECT_DOUBLE_EQ(mpc.rebuffer_charge_sum, 10.0);
  EXPECT_DOUBLE_EQ(mpc.startup_charge_sum, 20.0);
  EXPECT_EQ(mpc.switches, 3u);
  EXPECT_EQ(mpc.degraded_chunks, 1u);
  EXPECT_EQ(mpc.attempts, 4u);
  EXPECT_EQ(mpc.faults, 2u);
}

TEST(RenderReport, ProducesTablesForEveryAlgorithm) {
  auto in = sample_journal();
  const std::string report = render_report(summarize_journal(in));
  EXPECT_NE(report.find("Fig. 9 style"), std::string::npos);
  EXPECT_NE(report.find("Fig. 11 style"), std::string::npos);
  EXPECT_NE(report.find("FastMPC"), std::string::npos);
  EXPECT_NE(report.find("MPC"), std::string::npos);
  EXPECT_NE(report.find("1 malformed"), std::string::npos);
  EXPECT_NE(report.find("warm%"), std::string::npos);
}

TEST(LoadJournal, ThrowsOnMissingFile) {
  EXPECT_THROW(load_journal("/nonexistent-dir/journal.jsonl"),
               std::runtime_error);
}

TEST(CheckMetricsFile, ValidatesExposition) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto good = dir / "abrreport_good_metrics.txt";
  const auto bad = dir / "abrreport_bad_metrics.txt";
  {
    std::ofstream out(good);
    out << "# TYPE requests counter\nrequests 1\n";
  }
  {
    std::ofstream out(bad);
    out << "bad-name 1\n";
  }
  std::ostringstream log;
  EXPECT_EQ(check_metrics_file(good.string(), log), 0);
  EXPECT_NE(log.str().find("valid"), std::string::npos);
  EXPECT_EQ(check_metrics_file(bad.string(), log), 1);
  EXPECT_EQ(check_metrics_file("/nonexistent-dir/metrics.txt", log), 2);
  std::filesystem::remove(good);
  std::filesystem::remove(bad);
}

// A minimal JSON syntax checker (no library dependency): accepts the full
// JSON grammar, rejects trailing garbage. Enough to prove the Chrome trace
// renderer always emits parseable output.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::size_t count_events(const ChromeTrace& trace, std::string_view name) {
  std::size_t count = 0;
  for (const TraceEvent& event : trace.events) {
    if (event.name == name) ++count;
  }
  return count;
}

/// Simulates one session with a journal attached and renders the journal.
ChromeTrace journal_trace(std::size_t level, sim::SessionResult& result) {
  const auto manifest = abr::testing::small_manifest();
  const auto qoe = abr::testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  abr::testing::FixedLevelController controller(level);
  abr::testing::ConstantPredictor predictor(1000.0);
  std::stringstream journal_text;
  obs::Journal journal(journal_text);
  sim::SessionConfig config;
  config.journal = &journal;
  result = sim::simulate(trace, manifest, qoe, config, controller, predictor);
  journal.flush();
  return journal_to_chrome_trace(journal_text);
}

ChromeTrace golden_fleet_trace() {
  std::ifstream in(std::string(ABR_GOLDEN_DIR) +
                   "/shared_markov3_journal.jsonl");
  EXPECT_TRUE(in.good());
  return journal_to_chrome_trace(in);
}

TEST(SessionTelemetry, ChunkSpanCountMatchesChunkCount) {
  sim::SessionResult result;
  const ChromeTrace trace = journal_trace(0, result);
  const std::size_t chunks = abr::testing::small_manifest().chunk_count();

  EXPECT_EQ(trace.malformed_lines, 0u);
  EXPECT_EQ(trace.sessions, 1u);
  EXPECT_EQ(count_events(trace, "download"), result.chunks.size());
  EXPECT_EQ(count_events(trace, "download"), chunks);
  EXPECT_EQ(count_events(trace, "decide"), chunks);
  EXPECT_EQ(count_events(trace, "playback_start"), 1u);
  EXPECT_EQ(count_events(trace, "buffer_s"), 2 * chunks);

  // The download spans must replay the per-chunk log exactly.
  std::size_t seen = 0;
  for (const TraceEvent& event : trace.events) {
    if (event.name != "download") continue;
    const sim::ChunkRecord& record = result.chunks[seen];
    EXPECT_EQ(event.phase, 'X');
    EXPECT_EQ(event.tid, 0);
    EXPECT_EQ(event.ts_us,
              static_cast<std::int64_t>(std::llround(record.start_s * 1e6)));
    EXPECT_EQ(event.dur_us, static_cast<std::int64_t>(
                                std::llround(record.download_s * 1e6)));
    ++seen;
  }
  EXPECT_EQ(seen, result.chunks.size());

  const std::string json = render_chrome_trace(trace);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find("\"dur\":-"), std::string::npos);
}

TEST(SessionTelemetry, RebufferSpansAppearWhenSessionStalls) {
  // 1500 kbps chunks over a 1000 kbps link stall on every post-startup
  // chunk (see PlayerSession.OverambitiousBitrateRebuffersEveryChunk).
  sim::SessionResult result;
  const ChromeTrace trace = journal_trace(2, result);

  ASSERT_GT(result.total_rebuffer_s, 0.0);
  std::size_t stalled_chunks = 0;
  for (const sim::ChunkRecord& record : result.chunks) {
    if (record.rebuffer_s > 0.0) ++stalled_chunks;
  }
  EXPECT_EQ(count_events(trace, "rebuffer"), stalled_chunks);
  // Each stall sits on the tail of its chunk's download.
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& event = trace.events[i];
    if (event.name != "rebuffer") continue;
    ASSERT_GT(i, 0u);
    const TraceEvent& download = trace.events[i - 1];
    ASSERT_EQ(download.name, "download");
    EXPECT_NEAR(static_cast<double>(event.ts_us + event.dur_us),
                static_cast<double>(download.ts_us + download.dur_us), 1.0);
  }
}

TEST(ChromeTrace, FleetJournalGetsOneTrackPerSession) {
  std::ifstream in(std::string(ABR_GOLDEN_DIR) +
                   "/shared_markov3_journal.jsonl");
  const ReportSummary summary = summarize_journal(in);
  const ChromeTrace trace = golden_fleet_trace();

  EXPECT_EQ(trace.malformed_lines, 0u);
  EXPECT_EQ(trace.sessions, 3u);
  EXPECT_EQ(count_events(trace, "thread_name"), 3u);
  EXPECT_EQ(count_events(trace, "download"), summary.chunk_records);
  EXPECT_EQ(count_events(trace, "decide"), summary.chunk_records);
  EXPECT_EQ(count_events(trace, "playback_start"), summary.session_records);
  std::set<int> download_tids;
  std::set<std::string> counter_tracks;
  for (const TraceEvent& event : trace.events) {
    if (event.name == "download") download_tids.insert(event.tid);
    if (event.phase == 'C') counter_tracks.insert(event.name);
  }
  EXPECT_EQ(download_tids, (std::set<int>{0, 1, 2}));
  // Chrome keys counter tracks by name: one buffer track per session.
  EXPECT_EQ(counter_tracks,
            (std::set<std::string>{"buffer_s p0", "buffer_s p1",
                                   "buffer_s p2"}));
  // A session's playback starts after its own first request, not at zero.
  for (const TraceEvent& event : trace.events) {
    if (event.name != "playback_start" || event.tid == 0) continue;
    EXPECT_GT(event.ts_us, 1000000) << "tid " << event.tid;
  }
}

TEST(ChromeTrace, TwoRendersAreByteIdentical) {
  const std::string a = render_chrome_trace(golden_fleet_trace());
  const std::string b = render_chrome_trace(golden_fleet_trace());
  EXPECT_EQ(a, b);
  JsonChecker checker(a);
  EXPECT_TRUE(checker.valid());

  sim::SessionResult result;
  EXPECT_EQ(render_chrome_trace(journal_trace(2, result)),
            render_chrome_trace(journal_trace(2, result)));
}

TEST(ChromeTrace, SkipsMalformedLinesAndEscapesLabels) {
  std::istringstream in(
      "{\"type\":\"chunk\",\"session\":\"a\\\"b\",\"t_s\":1.25,"
      "\"download_s\":0.5}\n"
      "not json\n");
  const ChromeTrace trace = journal_to_chrome_trace(in);
  EXPECT_EQ(trace.malformed_lines, 1u);
  EXPECT_NE(trace.first_error.find("line 2"), std::string::npos);
  EXPECT_EQ(count_events(trace, "download"), 1u);
  const std::string json = render_chrome_trace(trace);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"ts\":1250000,\"dur\":500000"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
}

}  // namespace
}  // namespace abr::tools
