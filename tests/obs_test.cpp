// Tests for the observability layer (src/obs): metrics registry semantics,
// histogram percentile accuracy against a sorted-vector oracle, and
// concurrent updates from parallel_for workers. The session timeline is the
// journal; its Chrome trace rendering is tested in abrreport_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace abr::obs {
namespace {

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

}  // namespace
}  // namespace abr::obs
