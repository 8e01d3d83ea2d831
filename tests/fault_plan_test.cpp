// The deterministic fault-injection framework, virtual-time side: FaultPlan
// schedules, JSON round-trip, RetryPolicy backoff, FaultySource behaviour,
// and PlayerSession degradation/skip accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/buffer_based.hpp"
#include "net/origin_sim.hpp"
#include "predict/predictor.hpp"
#include "sim/chunk_source.hpp"
#include "sim/player.hpp"
#include "test_helpers.hpp"
#include "testing/fault_plan.hpp"
#include "testing/faulty_source.hpp"
#include "testing/outage_script.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace abr {
namespace {

testing::FaultPlan heavy_plan() {
  testing::FaultPlan plan;
  plan.seed = 42;
  plan.latency_rate = 0.05;
  plan.stall_rate = 0.08;
  plan.partial_rate = 0.05;
  plan.reset_rate = 0.1;
  plan.http_error_rate = 0.1;
  plan.latency_min_s = 0.2;
  plan.latency_max_s = 1.0;
  plan.stall_min_s = 0.5;
  plan.stall_max_s = 1.5;
  return plan;
}

TEST(FaultPlan, DecisionsAreDeterministic) {
  const auto plan = heavy_plan();
  for (std::size_t chunk = 0; chunk < 200; ++chunk) {
    for (std::size_t attempt = 0; attempt < 2; ++attempt) {
      const auto a = plan.decide(chunk, attempt);
      const auto b = plan.decide(chunk, attempt);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
      EXPECT_DOUBLE_EQ(a.stall_s, b.stall_s);
      EXPECT_DOUBLE_EQ(a.body_fraction, b.body_fraction);
    }
  }
}

TEST(FaultPlan, DifferentSeedsGiveDifferentSchedules) {
  auto a = heavy_plan();
  auto b = heavy_plan();
  b.seed = 43;
  std::size_t differing = 0;
  for (std::size_t chunk = 0; chunk < 500; ++chunk) {
    if (a.decide(chunk, 0).kind != b.decide(chunk, 0).kind) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultPlan, RatesAreRespectedOverManyChunks) {
  testing::FaultPlan plan;
  plan.seed = 7;
  plan.reset_rate = 0.2;
  plan.stall_rate = 0.1;
  const std::size_t n = 50000;
  std::size_t resets = 0;
  std::size_t stalls = 0;
  for (std::size_t chunk = 0; chunk < n; ++chunk) {
    switch (plan.decide(chunk, 0).kind) {
      case testing::FaultKind::kReset: ++resets; break;
      case testing::FaultKind::kStall: ++stalls; break;
      default: break;
    }
  }
  EXPECT_NEAR(static_cast<double>(resets) / n, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(stalls) / n, 0.1, 0.01);
}

TEST(FaultPlan, AttemptsBeyondLimitAreNeverFaulted) {
  testing::FaultPlan plan;
  plan.reset_rate = 1.0;
  plan.max_faulty_attempts = 3;
  for (std::size_t chunk = 0; chunk < 50; ++chunk) {
    for (std::size_t attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(plan.decide(chunk, attempt).kind, testing::FaultKind::kReset);
    }
    EXPECT_EQ(plan.decide(chunk, 3).kind, testing::FaultKind::kNone);
    EXPECT_EQ(plan.decide(chunk, 99).kind, testing::FaultKind::kNone);
  }
}

TEST(FaultPlan, MagnitudesStayInConfiguredRanges) {
  auto plan = heavy_plan();
  plan.latency_rate = 0.5;
  plan.stall_rate = 0.5;
  for (std::size_t chunk = 0; chunk < 2000; ++chunk) {
    const auto d = plan.decide(chunk, 0);
    if (d.kind == testing::FaultKind::kLatencySpike) {
      EXPECT_GE(d.latency_s, plan.latency_min_s);
      EXPECT_LT(d.latency_s, plan.latency_max_s);
    } else if (d.kind == testing::FaultKind::kStall) {
      EXPECT_GE(d.stall_s, plan.stall_min_s);
      EXPECT_LT(d.stall_s, plan.stall_max_s);
      EXPECT_GE(d.body_fraction, 0.1);
      EXPECT_LE(d.body_fraction, 0.9);
    }
  }
}

TEST(FaultPlan, JsonRoundTripPreservesEveryField) {
  auto plan = heavy_plan();
  plan.http_status = 502;
  plan.error_response_s = 0.25;
  plan.reset_delay_s = 0.15;
  plan.max_faulty_attempts = 5;
  const auto parsed = testing::FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(parsed.seed, plan.seed);
  EXPECT_DOUBLE_EQ(parsed.latency_rate, plan.latency_rate);
  EXPECT_DOUBLE_EQ(parsed.stall_rate, plan.stall_rate);
  EXPECT_DOUBLE_EQ(parsed.partial_rate, plan.partial_rate);
  EXPECT_DOUBLE_EQ(parsed.reset_rate, plan.reset_rate);
  EXPECT_DOUBLE_EQ(parsed.http_error_rate, plan.http_error_rate);
  EXPECT_DOUBLE_EQ(parsed.latency_min_s, plan.latency_min_s);
  EXPECT_DOUBLE_EQ(parsed.latency_max_s, plan.latency_max_s);
  EXPECT_DOUBLE_EQ(parsed.stall_min_s, plan.stall_min_s);
  EXPECT_DOUBLE_EQ(parsed.stall_max_s, plan.stall_max_s);
  EXPECT_EQ(parsed.http_status, plan.http_status);
  EXPECT_DOUBLE_EQ(parsed.error_response_s, plan.error_response_s);
  EXPECT_DOUBLE_EQ(parsed.reset_delay_s, plan.reset_delay_s);
  EXPECT_EQ(parsed.max_faulty_attempts, plan.max_faulty_attempts);
  // Decisions — the thing that matters — agree too.
  for (std::size_t chunk = 0; chunk < 100; ++chunk) {
    EXPECT_EQ(parsed.decide(chunk, 0).kind, plan.decide(chunk, 0).kind);
  }
}

TEST(FaultPlan, RejectsMalformedAndOutOfRangeInput) {
  EXPECT_THROW(testing::FaultPlan::from_json("{\"bogus_key\": 1}"),
               std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("not json"),
               std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"seed\": }"),
               std::invalid_argument);
  // Rates summing past 1.
  EXPECT_THROW(testing::FaultPlan::from_json(
                   "{\"reset_rate\": 0.7, \"stall_rate\": 0.7}"),
               std::invalid_argument);
  // Non-5xx injected status.
  EXPECT_THROW(testing::FaultPlan::from_json("{\"http_status\": 404}"),
               std::invalid_argument);
  testing::FaultPlan inverted;
  inverted.stall_min_s = 3.0;
  inverted.stall_max_s = 1.0;
  EXPECT_THROW(inverted.validate(), std::invalid_argument);
}

TEST(FaultPlan, IntegerFieldsAreOverflowChecked) {
  // UINT64_MAX itself is not exactly double-representable; the nearest
  // representable seed below 2^64 must load without wrapping.
  const auto plan = testing::FaultPlan::from_json(
      "{\"seed\": 18446744073709549568}");  // 2^64 - 2048
  EXPECT_EQ(plan.seed, 18446744073709549568ull);

  // 2^64 and beyond: stoull-style wraparound to 0 would silently change
  // the fault schedule; the checked parse throws instead.
  EXPECT_THROW(
      testing::FaultPlan::from_json("{\"seed\": 18446744073709551616}"),
      std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"seed\": 1e300}"),
               std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"seed\": -1}"),
               std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"seed\": 1.5}"),
               std::invalid_argument);

  // http_status must fit an int exactly.
  EXPECT_THROW(
      testing::FaultPlan::from_json("{\"http_status\": 2147483648}"),
      std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"http_status\": 503.7}"),
               std::invalid_argument);

  // max_faulty_attempts is a size_t with the same contract.
  EXPECT_THROW(testing::FaultPlan::from_json(
                   "{\"max_faulty_attempts\": 18446744073709551616}"),
               std::invalid_argument);
  EXPECT_THROW(
      testing::FaultPlan::from_json("{\"max_faulty_attempts\": -2}"),
      std::invalid_argument);
}

TEST(FaultPlan, JsonRejectsNonFiniteAndTrailingGarbage) {
  EXPECT_THROW(testing::FaultPlan::from_json("{\"stall_rate\": NaN}"),
               std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"stall_rate\": Infinity}"),
               std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"stall_rate\": 1e999}"),
               std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"seed\": 01}"),
               std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"seed\": 1} trailing"),
               std::invalid_argument);
  EXPECT_THROW(testing::FaultPlan::from_json("{\"seed\": 1}}"),
               std::invalid_argument);
}

TEST(FaultPlan, LoadReadsAPlanFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "abr_fault_plan_test.json";
  {
    std::ofstream out(path);
    out << "{\"seed\": 9, \"reset_rate\": 0.5, \"max_faulty_attempts\": 1}\n";
  }
  const auto plan = testing::FaultPlan::load(path.string());
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.reset_rate, 0.5);
  EXPECT_EQ(plan.max_faulty_attempts, 1u);
  std::filesystem::remove(path);
  EXPECT_THROW(testing::FaultPlan::load(path.string()), std::runtime_error);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  sim::RetryPolicy policy;
  policy.initial_backoff_s = 0.5;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 3.0;
  policy.jitter_fraction = 0.0;
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.backoff_s(1, rng), 0.5);
  EXPECT_DOUBLE_EQ(policy.backoff_s(2, rng), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(3, rng), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(4, rng), 3.0);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_s(9, rng), 3.0);
}

TEST(RetryPolicy, JitterIsSeededAndBounded) {
  sim::RetryPolicy policy;
  policy.initial_backoff_s = 1.0;
  policy.jitter_fraction = 0.25;
  util::Rng a(5);
  util::Rng b(5);
  for (int i = 0; i < 100; ++i) {
    const double x = policy.backoff_s(1, a);
    EXPECT_DOUBLE_EQ(x, policy.backoff_s(1, b));  // same seed, same schedule
    EXPECT_GE(x, 0.75);
    EXPECT_LE(x, 1.25);
  }
}

sim::SessionResult run_faulty_session(const trace::ThroughputTrace& trace,
                                      const media::VideoManifest& manifest,
                                      const testing::FaultPlan& plan,
                                      const sim::RetryPolicy& retry) {
  const auto qoe = abr::testing::balanced_qoe();
  sim::TraceChunkSource base(trace, manifest);
  testing::FaultySource source(base, plan, retry);
  core::BufferBasedController controller(5.0, 10.0);
  predict::HarmonicMeanPredictor predictor(5);
  sim::PlayerSession session(manifest, qoe, {});
  return session.run(source, controller, predictor);
}

TEST(FaultySource, SessionsAreBitIdenticalAcrossRuns) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto traces = trace::make_dataset(trace::DatasetKind::kHsdpa, 1, 320.0,
                                          2024);
  const auto plan = heavy_plan();
  const auto a = run_faulty_session(traces[0], manifest, plan, {});
  const auto b = run_faulty_session(traces[0], manifest, plan, {});
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t k = 0; k < a.chunks.size(); ++k) {
    EXPECT_EQ(a.chunks[k].level, b.chunks[k].level);
    EXPECT_EQ(a.chunks[k].attempts, b.chunks[k].attempts);
    EXPECT_EQ(a.chunks[k].skipped, b.chunks[k].skipped);
    EXPECT_DOUBLE_EQ(a.chunks[k].download_s, b.chunks[k].download_s);
    EXPECT_DOUBLE_EQ(a.chunks[k].rebuffer_s, b.chunks[k].rebuffer_s);
    EXPECT_DOUBLE_EQ(a.chunks[k].buffer_after_s, b.chunks[k].buffer_after_s);
  }
  EXPECT_DOUBLE_EQ(a.qoe, b.qoe);
}

TEST(FaultySource, NoFaultPlanBehavesLikeBareSource) {
  const auto manifest = abr::testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  const auto qoe = abr::testing::balanced_qoe();
  core::BufferBasedController bare_controller(5.0, 10.0);
  predict::HarmonicMeanPredictor bare_predictor(5);
  const auto bare = sim::simulate(trace, manifest, qoe, {}, bare_controller,
                                  bare_predictor);
  testing::FaultPlan empty_plan;  // all rates zero
  const auto wrapped = run_faulty_session(trace, manifest, empty_plan, {});
  ASSERT_EQ(bare.chunks.size(), wrapped.chunks.size());
  for (std::size_t k = 0; k < bare.chunks.size(); ++k) {
    EXPECT_EQ(bare.chunks[k].level, wrapped.chunks[k].level);
    EXPECT_DOUBLE_EQ(bare.chunks[k].download_s, wrapped.chunks[k].download_s);
    EXPECT_EQ(wrapped.chunks[k].attempts, 1u);
  }
  EXPECT_DOUBLE_EQ(bare.qoe, wrapped.qoe);
}

TEST(FaultySource, HeavyFaultsDegradeQoeButSessionCompletes) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto traces = trace::make_dataset(trace::DatasetKind::kHsdpa, 1, 320.0,
                                          2024);
  const auto qoe = abr::testing::balanced_qoe();
  core::BufferBasedController clean_controller(5.0, 10.0);
  predict::HarmonicMeanPredictor clean_predictor(5);
  const auto clean = sim::simulate(traces[0], manifest, qoe, {},
                                   clean_controller, clean_predictor);

  sim::TraceChunkSource base(traces[0], manifest);
  testing::FaultySource source(base, heavy_plan(), {});
  core::BufferBasedController faulty_controller(5.0, 10.0);
  predict::HarmonicMeanPredictor faulty_predictor(5);
  sim::PlayerSession session(manifest, qoe, {});
  const auto faulty = session.run(source, faulty_controller, faulty_predictor);

  ASSERT_EQ(faulty.chunks.size(), manifest.chunk_count());
  EXPECT_GT(source.faults_injected(), 0u);
  EXPECT_GT(source.retries(), 0u);
  EXPECT_GT(faulty.total_attempts, manifest.chunk_count());
  // The controller pays for the faults one way or another: lost time lowers
  // the buffer, which lowers the chosen bitrates and the session QoE. (It
  // does not necessarily rebuffer more — BB trades bitrate for safety.)
  EXPECT_LT(faulty.qoe, clean.qoe);
  EXPECT_LT(faulty.average_bitrate_kbps, clean.average_bitrate_kbps);
  EXPECT_EQ(faulty.skipped_chunks, 0u);  // retry budget beats the fault depth
}

TEST(FaultySource, DoomedChunksAreSkippedWithHonestRebufferCharge) {
  const auto manifest = abr::testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  testing::FaultPlan doom;
  doom.reset_rate = 1.0;
  doom.max_faulty_attempts = 1000;  // beyond any retry budget
  sim::RetryPolicy retry;
  retry.max_attempts = 3;
  const auto qoe_model = abr::testing::balanced_qoe();
  sim::TraceChunkSource base(trace, manifest);
  testing::FaultySource source(base, doom, retry);
  // A fixed non-zero level so the degradation path (fall back to rung 0,
  // then skip) is exercised on every chunk.
  abr::testing::FixedLevelController controller(2);
  abr::testing::ConstantPredictor predictor(2000.0);
  sim::PlayerSession session(manifest, qoe_model, {});
  const auto result = session.run(source, controller, predictor);

  ASSERT_EQ(result.chunks.size(), manifest.chunk_count());
  EXPECT_EQ(result.skipped_chunks, manifest.chunk_count());
  const double chunk_duration = manifest.chunk_duration_s();
  for (const auto& record : result.chunks) {
    EXPECT_TRUE(record.skipped);
    EXPECT_DOUBLE_EQ(record.bitrate_kbps, 0.0);
    // Chosen level failed, fallback failed: two exhausted retry loops.
    EXPECT_EQ(record.attempts, 2 * retry.max_attempts);
    EXPECT_GE(record.rebuffer_s, chunk_duration);  // the skip charge
    EXPECT_DOUBLE_EQ(record.buffer_after_s, 0.0);  // nothing ever arrived
  }
  EXPECT_LT(result.qoe, 0.0);  // all stall penalty, no quality

  // The QoE decomposition (Eq. 5) must still hold from the chunk log.
  const auto qoe = abr::testing::balanced_qoe();
  std::vector<double> bitrates;
  std::vector<double> rebuffers;
  for (const auto& record : result.chunks) {
    bitrates.push_back(record.bitrate_kbps);
    rebuffers.push_back(record.rebuffer_s);
  }
  EXPECT_NEAR(result.qoe,
              qoe.session_qoe(bitrates, rebuffers, result.startup_delay_s),
              1e-6);
}

TEST(FaultySource, FailedInnerTransferIsAFailedFetch) {
  const auto manifest = abr::testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  const auto qoe = abr::testing::balanced_qoe();
  // Both origins are down for the whole session, so the origin pool runs
  // out of attempts on every chunk; an empty plan injects nothing on top.
  testing::OutageScript script;
  script.windows.push_back({0, 0.0, 1e9});
  script.windows.push_back({1, 0.0, 1e9});

  net::SimulatedOriginSource origins(trace, manifest, script);
  testing::FaultySource source(origins, testing::FaultPlan{}, {});
  const sim::FetchOutcome outcome = source.fetch(0, 1, {});
  EXPECT_TRUE(outcome.failed);
  EXPECT_DOUBLE_EQ(outcome.kilobits, 0.0);
  EXPECT_DOUBLE_EQ(outcome.delivered_kilobits, 0.0);

  // The player therefore skips every chunk instead of appending chunks
  // that never arrived.
  net::SimulatedOriginSource session_origins(trace, manifest, script);
  testing::FaultySource session_source(session_origins, testing::FaultPlan{},
                                       {});
  abr::testing::FixedLevelController controller(1);
  abr::testing::ConstantPredictor predictor(2000.0);
  sim::PlayerSession session(manifest, qoe, {});
  const auto result = session.run(session_source, controller, predictor);
  EXPECT_EQ(result.skipped_chunks, manifest.chunk_count());
  for (const auto& record : result.chunks) {
    EXPECT_TRUE(record.skipped);
    EXPECT_DOUBLE_EQ(record.size_kilobits, 0.0);
  }
}

/// Passes every call through to `inner` and totals the attempts it reports.
class AttemptCountingSource final : public sim::ChunkSource {
 public:
  explicit AttemptCountingSource(sim::ChunkSource& inner) : inner_(&inner) {}

  sim::FetchOutcome fetch(std::size_t chunk, std::size_t level,
                          const sim::FetchControl& control) override {
    const sim::FetchOutcome outcome = inner_->fetch(chunk, level, control);
    attempts_ += outcome.attempts;
    return outcome;
  }
  void wait(double seconds) override { inner_->wait(seconds); }
  double now() const override { return inner_->now(); }
  const trace::ThroughputTrace* truth() const override {
    return inner_->truth();
  }

  std::size_t attempts() const { return attempts_; }

 private:
  sim::ChunkSource* inner_;
  std::size_t attempts_ = 0;
};

TEST(FaultySource, PropagatesInnerOriginAttemptsAndFaults) {
  // Origin 0 dies at t=60 s and restarts at t=150 s, so the pool fails over
  // to origin 1 mid-session; the plan injects only resets and 5xx errors,
  // which never reach the pool.
  const auto manifest = media::VideoManifest::envivio_default();
  const auto trace = trace::ThroughputTrace::constant(3000.0, 1000.0);
  const auto qoe = abr::testing::balanced_qoe();
  testing::OutageScript script;
  script.windows.push_back({0, 60.0, 150.0});
  net::SimulatedOriginSource origins(trace, manifest, script);
  AttemptCountingSource pool(origins);
  testing::FaultPlan plan;
  plan.seed = 7;
  plan.reset_rate = 0.15;
  plan.http_error_rate = 0.1;
  testing::FaultySource source(pool, plan, {});
  abr::testing::FixedLevelController controller(1);
  abr::testing::ConstantPredictor predictor(3000.0);
  sim::PlayerSession session(manifest, qoe, {});
  const auto result = session.run(source, controller, predictor);

  ASSERT_GT(origins.failovers(), 0u);
  ASSERT_GT(source.faults_injected(), 0u);
  std::size_t on_origin_1 = 0;
  std::size_t attempts = 0;
  std::size_t faults = 0;
  for (const auto& record : result.chunks) {
    if (record.origin == 1) ++on_origin_1;
    attempts += record.attempts;
    faults += record.faults;
  }
  EXPECT_GT(on_origin_1, 0u);
  // Every attempt is either one the pool made or an injected-only attempt
  // (reset / 5xx) that FaultySource answered without calling the pool.
  EXPECT_EQ(attempts, pool.attempts() + source.faults_injected());
  EXPECT_EQ(result.total_attempts, attempts);
  EXPECT_EQ(faults, origins.attempt_failures() + source.faults_injected());
}

/// Fails every transfer above the lowest rung; delivers level 0 faithfully.
class LowestRungOnlySource final : public sim::ChunkSource {
 public:
  LowestRungOnlySource(const trace::ThroughputTrace& trace,
                       const media::VideoManifest& manifest)
      : inner_(trace, manifest) {}

  sim::FetchOutcome fetch(std::size_t chunk, std::size_t level,
                          const sim::FetchControl& control) override {
    if (level != 0) {
      inner_.wait(0.3);  // the failed attempts burn some time
      sim::FetchOutcome failed;
      failed.failed = true;
      failed.attempts = 2;
      failed.duration_s = 0.3;
      return failed;
    }
    return inner_.fetch(chunk, 0, control);
  }
  void wait(double seconds) override { inner_.wait(seconds); }
  double now() const override { return inner_.now(); }

 private:
  sim::TraceChunkSource inner_;
};

TEST(PlayerSession, DegradesToLowestRungWhenChosenLevelFails) {
  const auto manifest = abr::testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(5000.0, 1000.0);
  const auto qoe = abr::testing::balanced_qoe();
  LowestRungOnlySource source(trace, manifest);
  // Always asks for the top rung; every chunk must fall back to rung 0.
  abr::testing::FixedLevelController controller(2);
  abr::testing::ConstantPredictor predictor(5000.0);
  sim::PlayerSession session(manifest, qoe, {});
  const auto result = session.run(source, controller, predictor);

  ASSERT_EQ(result.chunks.size(), manifest.chunk_count());
  EXPECT_EQ(result.degraded_chunks, manifest.chunk_count());
  EXPECT_EQ(result.skipped_chunks, 0u);
  for (const auto& record : result.chunks) {
    EXPECT_TRUE(record.degraded);
    EXPECT_FALSE(record.skipped);
    EXPECT_EQ(record.level, 0u);
    EXPECT_DOUBLE_EQ(record.bitrate_kbps, manifest.bitrate_kbps(0));
    EXPECT_EQ(record.attempts, 3u);  // 2 failed high + 1 successful low
  }
}

TEST(PlayerSession, DegradationCanBeDisabled) {
  const auto manifest = abr::testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(5000.0, 1000.0);
  const auto qoe = abr::testing::balanced_qoe();
  LowestRungOnlySource source(trace, manifest);
  abr::testing::FixedLevelController controller(2);
  abr::testing::ConstantPredictor predictor(5000.0);
  sim::SessionConfig config;
  config.degrade_on_failure = false;
  sim::PlayerSession session(manifest, qoe, config);
  const auto result = session.run(source, controller, predictor);
  EXPECT_EQ(result.degraded_chunks, 0u);
  EXPECT_EQ(result.skipped_chunks, manifest.chunk_count());
}

}  // namespace
}  // namespace abr
