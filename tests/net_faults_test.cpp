// The fault-injection framework, real-network side: FaultInjector attempt
// accounting, per-kind injection through a live ChunkServer, the client's
// socket deadline against a silent server, and the end-to-end acceptance
// scenario (a full emulated session surviving resets + stalls + 5xx).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "core/buffer_based.hpp"
#include "net/chunk_server.hpp"
#include "net/faults.hpp"
#include "net/streaming_client.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "predict/predictor.hpp"
#include "test_helpers.hpp"

namespace abr::net {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Accepts connections and never answers: reads nothing, writes nothing.
/// The canonical stuck origin for exercising the client's socket deadline.
class SilentServer {
 public:
  SilentServer() : listener_(TcpListener::bind_loopback()) {
    thread_ = std::thread([this] {
      try {
        while (true) {
          TcpStream stream = listener_.accept();
          const std::lock_guard<std::mutex> lock(mutex_);
          streams_.push_back(
              std::make_unique<TcpStream>(std::move(stream)));
        }
      } catch (const std::system_error&) {
        // listener closed: orderly shutdown
      }
    });
  }

  ~SilentServer() {
    listener_.close();
    thread_.join();
  }

  std::uint16_t port() const { return listener_.port(); }

 private:
  TcpListener listener_;
  std::thread thread_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<TcpStream>> streams_;
};

TEST(FaultInjector, CountsAttemptsPerChunkAcrossCalls) {
  testing::FaultPlan plan;
  plan.latency_rate = 1.0;
  plan.max_faulty_attempts = 1;
  FaultInjector injector(plan);
  // First request per chunk is attempt 0 (faulted); the retry is attempt 1
  // (past max_faulty_attempts, served clean). Chunks count independently.
  EXPECT_EQ(injector.next(0).kind, testing::FaultKind::kLatencySpike);
  EXPECT_EQ(injector.next(0).kind, testing::FaultKind::kNone);
  EXPECT_EQ(injector.next(1).kind, testing::FaultKind::kLatencySpike);
  EXPECT_EQ(injector.next(0).kind, testing::FaultKind::kNone);
  EXPECT_EQ(injector.next(1).kind, testing::FaultKind::kNone);
  EXPECT_EQ(injector.injected(), 2u);
}

TEST(FaultInjector, RejectsInvalidPlans) {
  testing::FaultPlan bad;
  bad.reset_rate = 1.5;
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
}

TEST(SilentOrigin, HttpClientHitsDeadlineInsteadOfHangingForever) {
  SilentServer server;
  HttpClient client("127.0.0.1", server.port(), /*timeout_ms=*/300);
  const auto start = Clock::now();
  EXPECT_THROW(client.request("/manifest.mpd"), std::system_error);
  EXPECT_LT(seconds_since(start), 5.0);
  // get() retries once internally; both attempts must hit the deadline.
  const auto retry_start = Clock::now();
  EXPECT_THROW(client.get("/manifest.mpd"), std::system_error);
  EXPECT_LT(seconds_since(retry_start), 5.0);
}

TEST(SilentOrigin, ChunkSourceExhaustsRetriesAndReportsFailure) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  const double timeouts_before =
      registry.counter(obs::kFetchTimeoutsTotal).value();
  const double retries_before =
      registry.counter(obs::kFetchRetriesTotal).value();

  SilentServer server;
  const auto manifest = testing::small_manifest();
  sim::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.request_timeout_ms = 200;
  retry.initial_backoff_s = 0.1;
  HttpChunkSource source("127.0.0.1", server.port(), manifest,
                         /*speedup=*/50.0, retry);
  const auto start = Clock::now();
  const sim::FetchOutcome outcome = source.fetch(0, 0, {});
  EXPECT_LT(seconds_since(start), 10.0);
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_DOUBLE_EQ(outcome.kilobits, 0.0);
  EXPECT_GT(outcome.duration_s, 0.0);

  EXPECT_GE(registry.counter(obs::kFetchTimeoutsTotal).value(),
            timeouts_before + 2.0);
  EXPECT_GE(registry.counter(obs::kFetchRetriesTotal).value(),
            retries_before + 1.0);
  registry.set_enabled(false);
}

struct InjectionFixture {
  media::VideoManifest manifest = testing::small_manifest();
  trace::ThroughputTrace trace = trace::ThroughputTrace::constant(50000.0,
                                                                  1000.0);

  sim::FetchOutcome fetch_with_plan(const testing::FaultPlan& plan,
                                    std::size_t chunk, std::size_t level,
                                    std::size_t* injected = nullptr,
                                    const sim::FetchControl& control = {}) {
    const double speedup = 100.0;
    ChunkServer server(manifest, trace, speedup);
    FaultInjector injector(plan);
    server.set_fault_injector(&injector);
    server.start();
    sim::RetryPolicy retry;
    retry.initial_backoff_s = 0.05;
    retry.request_timeout_ms = 2000;
    HttpChunkSource source("127.0.0.1", server.port(), manifest, speedup,
                           retry);
    const sim::FetchOutcome outcome = source.fetch(chunk, level, control);
    server.stop();
    if (injected != nullptr) *injected = injector.injected();
    return outcome;
  }
};

TEST(ChunkServerInjection, Http5xxIsRetriedThenServed) {
  InjectionFixture fx;
  testing::FaultPlan plan;
  plan.http_error_rate = 1.0;
  plan.max_faulty_attempts = 1;
  plan.error_response_s = 0.01;
  std::size_t injected = 0;
  const auto outcome = fx.fetch_with_plan(plan, 3, 1, &injected);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.attempts, 2u);  // one 503, one clean
  EXPECT_NEAR(outcome.kilobits, fx.manifest.chunk_kilobits(3, 1), 1.0);
  EXPECT_EQ(injected, 1u);
}

TEST(ChunkServerInjection, ConnectionResetIsRetriedThenServed) {
  InjectionFixture fx;
  testing::FaultPlan plan;
  plan.reset_rate = 1.0;
  plan.max_faulty_attempts = 1;
  plan.reset_delay_s = 0.01;
  const auto outcome = fx.fetch_with_plan(plan, 0, 2);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_NEAR(outcome.kilobits, fx.manifest.chunk_kilobits(0, 2), 1.0);
}

TEST(ChunkServerInjection, TruncatedBodyIsRetriedThenServed) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  InjectionFixture fx;
  testing::FaultPlan plan;
  plan.partial_rate = 1.0;
  plan.max_faulty_attempts = 1;
  const double chunk_kb = fx.manifest.chunk_kilobits(5, 2);
  for (const bool keep_prefix : {false, true}) {
    SCOPED_TRACE(keep_prefix ? "keep_prefix" : "refetch");
    const double ranges_before =
        registry.counter(obs::kHttpRangeRequestsTotal).value();
    sim::FetchControl control;
    control.keep_prefix = keep_prefix;
    const auto outcome = fx.fetch_with_plan(plan, 5, 2, nullptr, control);
    const double server_ranges =
        registry.counter(obs::kHttpRangeRequestsTotal).value() -
        ranges_before;
    EXPECT_FALSE(outcome.failed);
    EXPECT_EQ(outcome.attempts, 2u);
    EXPECT_DOUBLE_EQ(outcome.delivered_kilobits, chunk_kb);
    if (keep_prefix) {
      // The truncated prefix is resumed with a Range request, so less than
      // two chunk sizes cross the wire.
      EXPECT_GE(outcome.resumes, 1u);
      EXPECT_GE(server_ranges, 1.0);
      EXPECT_LT(outcome.kilobits, 2.0 * chunk_kb);
    } else {
      // The truncated first attempt must not leak partial bytes into the
      // result, and the retry refetches from byte zero.
      EXPECT_EQ(outcome.resumes, 0u);
      EXPECT_DOUBLE_EQ(server_ranges, 0.0);
      EXPECT_NEAR(outcome.kilobits, chunk_kb, 1.0);
    }
  }
  registry.set_enabled(false);
}

TEST(ChunkServerInjection, StallDelaysButDelivers) {
  InjectionFixture fx;
  testing::FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.max_faulty_attempts = 1;
  plan.stall_min_s = 1.0;
  plan.stall_max_s = 1.5;
  const auto outcome = fx.fetch_with_plan(plan, 2, 2);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.attempts, 1u);  // a stall is not a failure
  EXPECT_NEAR(outcome.kilobits, fx.manifest.chunk_kilobits(2, 2), 1.0);
  // The mid-body stall shows up as session time (>= stall_min at speedup).
  EXPECT_GT(outcome.duration_s, 1.0);
}

TEST(ChunkServerInjection, ExhaustedRetriesReportFailure) {
  InjectionFixture fx;
  testing::FaultPlan plan;
  plan.http_error_rate = 1.0;
  plan.max_faulty_attempts = 100;  // deeper than the retry budget
  plan.error_response_s = 0.01;
  ChunkServer server(fx.manifest, fx.trace, 100.0);
  FaultInjector injector(plan);
  server.set_fault_injector(&injector);
  server.start();
  sim::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_s = 0.05;
  HttpChunkSource source("127.0.0.1", server.port(), fx.manifest, 100.0,
                         retry);
  const auto outcome = source.fetch(1, 1, {});
  server.stop();
  EXPECT_TRUE(outcome.failed);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_DOUBLE_EQ(outcome.kilobits, 0.0);
}

// The acceptance scenario: a plan throwing resets, stalls, and 5xx at well
// over 20% of first attempts must degrade the session, never kill it.
TEST(EndToEnd, SessionSurvivesHeavyFaultRegime) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(2500.0, 1000.0);
  sim::SessionConfig config;

  EmulationFaults faults;
  faults.plan.seed = 42;
  faults.plan.reset_rate = 0.10;
  faults.plan.http_error_rate = 0.10;
  faults.plan.stall_rate = 0.08;
  faults.plan.partial_rate = 0.05;
  faults.plan.stall_min_s = 2.0;
  faults.plan.stall_max_s = 4.0;
  faults.plan.error_response_s = 0.05;
  faults.plan.reset_delay_s = 0.05;
  faults.plan.max_faulty_attempts = 2;
  faults.retry.initial_backoff_s = 0.1;
  faults.retry.max_backoff_s = 1.0;
  faults.retry.request_timeout_ms = 5000;

  // Verify the plan actually targets >= 20% of chunks on their first
  // attempt (the acceptance threshold is a property of the plan, so check
  // it directly rather than trusting the rates).
  std::size_t faulted_first_attempts = 0;
  for (std::size_t chunk = 0; chunk < manifest.chunk_count(); ++chunk) {
    if (faults.plan.decide(chunk, 0).kind != testing::FaultKind::kNone) {
      ++faulted_first_attempts;
    }
  }
  EXPECT_GE(faulted_first_attempts, manifest.chunk_count() / 5);

  // Pin the session at the top rung on a link that cannot sustain it
  // (3000 kbps video over a 2500 kbps pipe): the buffer stays pinned near
  // empty, so injected stalls and retransfers cannot hide in buffered
  // video — every fault must surface as rebuffering and QoE loss.
  const std::size_t top = manifest.level_count() - 1;
  testing::FixedLevelController clean_controller(top);
  testing::ConstantPredictor clean_predictor(3000.0);
  const sim::SessionResult clean =
      run_emulated_session(trace, manifest, qoe, config, clean_controller,
                           clean_predictor, /*speedup=*/60.0);

  testing::FixedLevelController faulty_controller(top);
  testing::ConstantPredictor faulty_predictor(3000.0);
  const sim::SessionResult faulty = run_emulated_session(
      trace, manifest, qoe, config, faulty_controller, faulty_predictor,
      /*speedup=*/60.0, &faults);

  // The session completed: every chunk accounted for, none abandoned.
  ASSERT_EQ(faulty.chunks.size(), manifest.chunk_count());
  ASSERT_EQ(clean.chunks.size(), manifest.chunk_count());
  // Faults really fired and forced retries.
  EXPECT_GT(faulty.total_attempts, manifest.chunk_count());
  // Retry depth (4) beats fault depth (2): degraded, never skipped.
  EXPECT_EQ(faulty.skipped_chunks, 0u);
  // QoE paid for the faults honestly: the injected stalls and retransfers
  // are far larger than any wall-clock measurement noise in the clean run.
  EXPECT_GT(faulty.total_rebuffer_s, clean.total_rebuffer_s + 3.0);
  EXPECT_LT(faulty.qoe, clean.qoe);
}

}  // namespace
}  // namespace abr::net
