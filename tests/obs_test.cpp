// Tests for the observability layer (src/obs): metrics registry semantics,
// histogram percentile accuracy against a sorted-vector oracle, concurrent
// updates from parallel_for workers, Chrome trace-event JSON
// well-formedness, and the PlayerSession instrumentation hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "obs/trace_event.hpp"
#include "sim/player.hpp"
#include "test_helpers.hpp"
#include "trace/throughput_trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace abr::obs {
namespace {

// --- A minimal JSON syntax checker (no library dependency): accepts the
// --- full JSON grammar, rejects trailing garbage. Enough to prove the
// --- trace writer always emits parseable output.
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
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) return false;
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

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("c_total");
  counter.increment();
  counter.increment(2.5);
  EXPECT_DOUBLE_EQ(counter.value(), 3.5);
  EXPECT_EQ(&registry.counter("c_total"), &counter);  // same instrument

  Gauge& gauge = registry.gauge("g");
  gauge.set(7.0);
  gauge.add(-2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 5.0);
}

TEST(Metrics, LabelsDistinguishInstruments) {
  MetricsRegistry registry;
  Counter& a = registry.counter("c", "x=\"1\"");
  Counter& b = registry.counter("c", "x=\"2\"");
  EXPECT_NE(&a, &b);
  a.increment();
  EXPECT_DOUBLE_EQ(a.value(), 1.0);
  EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Metrics, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry(/*enabled=*/false);
  Counter& counter = registry.counter("c");
  Histogram& histogram = registry.histogram("h");
  counter.increment();
  histogram.observe(1.0);
  EXPECT_DOUBLE_EQ(counter.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);

  registry.set_enabled(true);  // the same instruments come alive
  counter.increment();
  histogram.observe(1.0);
  EXPECT_DOUBLE_EQ(counter.value(), 1.0);
  EXPECT_EQ(histogram.count(), 1u);
}

TEST(Metrics, ConcurrentCounterIncrementsFromParallelFor) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hits_total");
  Histogram& histogram =
      registry.histogram("h", "", linear_buckets(0.0, 100.0, 100));
  constexpr std::size_t kN = 20000;
  util::parallel_for(
      kN,
      [&](std::size_t i) {
        counter.increment();
        histogram.observe(static_cast<double>(i % 100));
      },
      8);
  EXPECT_DOUBLE_EQ(counter.value(), static_cast<double>(kN));
  EXPECT_EQ(histogram.count(), kN);
  EXPECT_DOUBLE_EQ(histogram.snapshot().max, 99.0);
}

TEST(Metrics, CountersStayExactUnderConcurrentRetryLoops) {
  // The shape produced by fault injection: many clients in parallel, each
  // running a retry loop that bumps shared retry/timeout/failure counters
  // and per-kind labeled fault counters. Totals must be exact — a lost
  // update here would silently corrupt every fault-matrix report.
  MetricsRegistry registry;
  Counter& retries = registry.counter(kFetchRetriesTotal);
  Counter& timeouts = registry.counter(kFetchTimeoutsTotal);
  Counter& failures = registry.counter(kFetchAttemptFailuresTotal);
  Counter& resets =
      registry.counter(kFaultsInjectedTotal, "kind=\"reset\"");
  Counter& stalls =
      registry.counter(kFaultsInjectedTotal, "kind=\"stall\"");

  constexpr std::size_t kClients = 64;
  constexpr std::size_t kAttemptsPerClient = 500;
  util::parallel_for(
      kClients,
      [&](std::size_t client) {
        for (std::size_t attempt = 0; attempt < kAttemptsPerClient;
             ++attempt) {
          failures.increment();
          if (attempt + 1 < kAttemptsPerClient) retries.increment();
          if (attempt % 3 == 0) timeouts.increment();
          ((client + attempt) % 2 == 0 ? resets : stalls).increment();
        }
      },
      8);

  const double total = kClients * kAttemptsPerClient;
  EXPECT_DOUBLE_EQ(failures.value(), total);
  EXPECT_DOUBLE_EQ(retries.value(),
                   static_cast<double>(kClients * (kAttemptsPerClient - 1)));
  // ceil(500 / 3) = 167 timeouts per client.
  EXPECT_DOUBLE_EQ(timeouts.value(), static_cast<double>(kClients * 167));
  EXPECT_DOUBLE_EQ(resets.value() + stalls.value(), total);
  EXPECT_DOUBLE_EQ(resets.value(), total / 2.0);  // exact half by parity
}

TEST(Metrics, HistogramPercentilesMatchSortedOracle) {
  // Fine linear buckets (width 10 over [0, 10000]): the interpolation
  // error must stay within one bucket width.
  constexpr double kWidth = 10.0;
  MetricsRegistry registry;
  Histogram& histogram =
      registry.histogram("latency", "", linear_buckets(kWidth, kWidth, 1000));

  util::Rng rng(42);
  std::vector<double> values;
  values.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    // Mix of a uniform body and a heavy tail, like real latencies.
    const double v = i % 10 == 0 ? rng.uniform(5000.0, 10000.0)
                                 : rng.uniform(0.0, 1000.0);
    values.push_back(v);
    histogram.observe(v);
  }

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const auto oracle = [&](double q) {
    const double rank = q * static_cast<double>(sorted.size());
    const auto index = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(std::max(0.0, std::ceil(rank) - 1.0)));
    return sorted[index];
  };

  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 5000u);
  EXPECT_NEAR(snap.p50, oracle(0.50), kWidth);
  EXPECT_NEAR(snap.p90, oracle(0.90), kWidth);
  EXPECT_NEAR(snap.p99, oracle(0.99), kWidth);
  EXPECT_NEAR(snap.percentile(0.25), oracle(0.25), kWidth);
  EXPECT_NEAR(snap.percentile(1.0), snap.max, 1e-9);
  EXPECT_NEAR(snap.min, sorted.front(), 1e-9);
  EXPECT_NEAR(snap.max, sorted.back(), 1e-9);
}

TEST(Metrics, EmptyHistogramSnapshotIsZero) {
  MetricsRegistry registry;
  const HistogramSnapshot snap = registry.histogram("h").snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.p50, 0.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
}

TEST(Metrics, BucketLayoutsAreStrictlyIncreasing) {
  for (const auto& bounds :
       {exponential_buckets(0.5, 2.0, 12), linear_buckets(1.0, 3.0, 9),
        default_latency_buckets_us()}) {
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
  EXPECT_THROW(exponential_buckets(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(linear_buckets(0.0, -1.0, 4), std::invalid_argument);
}

TEST(Metrics, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.counter("abr_chunks_total").increment(3);
  registry.gauge("abr_buffer_s").set(12.5);
  Histogram& histogram = registry.histogram(
      "abr_lat_us", "algorithm=\"MPC\"", linear_buckets(1.0, 1.0, 3));
  histogram.observe(0.5);
  histogram.observe(1.5);
  histogram.observe(99.0);  // overflow bucket

  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE abr_chunks_total counter"), std::string::npos);
  EXPECT_NE(text.find("abr_chunks_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE abr_buffer_s gauge"), std::string::npos);
  EXPECT_NE(text.find("abr_buffer_s 12.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE abr_lat_us histogram"), std::string::npos);
  // Cumulative buckets: le="1" sees 1 sample, le="+Inf" all 3.
  EXPECT_NE(text.find("abr_lat_us_bucket{algorithm=\"MPC\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("abr_lat_us_bucket{algorithm=\"MPC\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("abr_lat_us_count{algorithm=\"MPC\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("abr_lat_us_sum{algorithm=\"MPC\"} 101"),
            std::string::npos);
}

TEST(Metrics, RegisterStandardMetricsExposesSolveLatencyFamilies) {
  MetricsRegistry registry;
  register_standard_metrics(registry);
  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("abr_solve_latency_us_bucket{algorithm=\"MPC\""),
            std::string::npos);
  EXPECT_NE(text.find("abr_solve_latency_us_bucket{algorithm=\"FastMPC\""),
            std::string::npos);
  EXPECT_NE(text.find("abr_solve_latency_us_bucket{algorithm=\"RobustMPC\""),
            std::string::npos);
}

TEST(Metrics, ResetZeroesButKeepsInstruments) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("c");
  Histogram& histogram = registry.histogram("h");
  counter.increment(5);
  histogram.observe(3.0);
  registry.reset();
  EXPECT_DOUBLE_EQ(counter.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  histogram.observe(2.0);  // still usable
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.snapshot().min, 2.0);
}

TEST(Metrics, LatencyTimerRecordsOnceAndOnlyWhenEnabled) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("t");
  {
    LatencyTimer timer(&histogram);
    timer.stop();
    timer.stop();  // idempotent
  }
  EXPECT_EQ(histogram.count(), 1u);

  registry.set_enabled(false);
  {
    LatencyTimer timer(&histogram);  // not armed
  }
  EXPECT_EQ(histogram.count(), 1u);
  LatencyTimer null_timer(nullptr);  // must not crash
}

// --- TraceWriter -----------------------------------------------------------

TEST(TraceWriterTest, EmitsWellFormedJsonRoundTrip) {
  TraceWriter writer;
  writer.set_process_name("abrsim");
  writer.set_thread_name("player", 0);
  writer.complete("download \"ch\\unk\"\n", "net", 0.0, 1.25, 0,
                  {{"chunk", std::size_t{0}},
                   {"note", std::string("quote\" slash\\ tab\t")},
                   {"ctl", std::string("bell\b feed\f")},
                   {"kbps", 1234.5}});
  writer.complete("decide", "controller", 1.25, 0.0003, 0);
  writer.instant("playback_start", "playback", 1.25);
  writer.counter("buffer_s", 1.25, 4.0);

  std::ostringstream out;
  writer.write(out);
  const std::string json = out.str();

  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  // 1.25 s -> 1250000 us.
  EXPECT_NE(json.find("\"ts\":1250000"), std::string::npos);
  // Control characters take the journal's \u00XX form (one escaper).
  EXPECT_NE(json.find("bell\\u0008 feed\\u000c"), std::string::npos);
  EXPECT_EQ(writer.event_count(), 6u);
}

TEST(TraceWriterTest, DisabledWriterRecordsNothing) {
  TraceWriter writer(/*enabled=*/false);
  writer.complete("x", "c", 0.0, 1.0);
  writer.counter("c", 0.0, 1.0);
  EXPECT_EQ(writer.event_count(), 0u);
  std::ostringstream out;
  writer.write(out);
  const std::string json = out.str();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());  // still a valid empty document
}

TEST(TraceWriterTest, ConcurrentAppendsAreSafe) {
  TraceWriter writer;
  util::parallel_for(
      1000,
      [&](std::size_t i) {
        writer.complete("e", "c", static_cast<double>(i), 0.5,
                        static_cast<int>(i % 4));
      },
      8);
  EXPECT_EQ(writer.event_count("e"), 1000u);
  std::ostringstream out;
  writer.write(out);
  const std::string json = out.str();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());
}

// --- PlayerSession hooks ---------------------------------------------------

TEST(SessionTelemetry, ChunkSpanCountMatchesChunkCount) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  abr::testing::FixedLevelController controller(0);
  abr::testing::ConstantPredictor predictor(1000.0);

  TraceWriter writer;
  sim::SessionConfig config;
  config.trace_writer = &writer;
  const sim::SessionResult result =
      sim::simulate(trace, manifest, qoe, config, controller, predictor);

  EXPECT_EQ(writer.event_count("download"), result.chunks.size());
  EXPECT_EQ(writer.event_count("download"), manifest.chunk_count());
  EXPECT_EQ(writer.event_count("decide"), manifest.chunk_count());
  EXPECT_EQ(writer.event_count("playback_start"), 1u);

  // The download spans must replay the per-chunk log exactly.
  std::size_t seen = 0;
  for (const TraceEvent& event : writer.events()) {
    if (event.name != "download") continue;
    const sim::ChunkRecord& record = result.chunks[seen];
    EXPECT_EQ(event.ts_us,
              static_cast<std::int64_t>(std::llround(record.start_s * 1e6)));
    EXPECT_EQ(event.dur_us, static_cast<std::int64_t>(
                                std::llround(record.download_s * 1e6)));
    ++seen;
  }
  EXPECT_EQ(seen, result.chunks.size());

  std::ostringstream out;
  writer.write(out);
  const std::string json = out.str();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());
}

TEST(SessionTelemetry, RebufferSpansAppearWhenSessionStalls) {
  // 1500 kbps chunks over a 1000 kbps link stall on every post-startup
  // chunk (see PlayerSession.OverambitiousBitrateRebuffersEveryChunk).
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  abr::testing::FixedLevelController controller(2);
  abr::testing::ConstantPredictor predictor(1000.0);

  TraceWriter writer;
  sim::SessionConfig config;
  config.trace_writer = &writer;
  const sim::SessionResult result =
      sim::simulate(trace, manifest, qoe, config, controller, predictor);

  ASSERT_GT(result.total_rebuffer_s, 0.0);
  std::size_t stalled_chunks = 0;
  for (const sim::ChunkRecord& record : result.chunks) {
    if (record.rebuffer_s > 0.0) ++stalled_chunks;
  }
  EXPECT_EQ(writer.event_count("rebuffer"), stalled_chunks);
}

}  // namespace
}  // namespace abr::obs
