// Tests for testing::InvariantChecker — the shared Eq. (1)-(5) replay used
// by property_test and the session-level fuzz harness, and its shared-link
// extension. A clean simulated session must pass every check; a tampered
// record must be flagged by the specific check that owns the violated
// equation.
#include <gtest/gtest.h>

#include <string>

#include "core/algorithms.hpp"
#include "media/manifest.hpp"
#include "media/quality.hpp"
#include "qoe/qoe.hpp"
#include "sim/chunk_source.hpp"
#include "sim/multiplayer.hpp"
#include "sim/player.hpp"
#include "test_helpers.hpp"
#include "testing/invariant_checker.hpp"
#include "trace/throughput_trace.hpp"

namespace abr::testing {
namespace {

struct Fixture {
  media::VideoManifest manifest =
      media::VideoManifest::cbr(10, 4.0, {300.0, 750.0, 1850.0}, "inv");
  qoe::QoeModel model{media::QualityFunction::identity(), qoe::QoeWeights{}};
  trace::ThroughputTrace trace{
      {{20.0, 2500.0}, {10.0, 600.0}, {15.0, 1400.0}}, "inv"};
  sim::SessionConfig config;

  sim::SessionResult run(core::Algorithm algorithm) const {
    sim::TraceChunkSource source(trace, manifest);
    core::AlgorithmInstance instance =
        core::make_algorithm(algorithm, manifest, model);
    const sim::PlayerSession session(manifest, model, config);
    return session.run(source, *instance.controller, *instance.predictor);
  }

  InvariantChecker checker() const {
    InvariantOptions options;
    options.chunk_duration_s = manifest.chunk_duration_s();
    options.buffer_capacity_s = config.buffer_capacity_s;
    options.include_startup_in_qoe = config.include_startup_in_qoe;
    options.allow_failures = false;
    return InvariantChecker(options);
  }
};

TEST(InvariantChecker, CleanSessionPassesAllChecks) {
  const Fixture fx;
  for (const auto algorithm :
       {core::Algorithm::kRateBased, core::Algorithm::kBufferBased,
        core::Algorithm::kBola}) {
    const sim::SessionResult result = fx.run(algorithm);
    const InvariantReport report = fx.checker().check_all(result, fx.model);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_TRUE(report.to_string().empty());
  }
}

TEST(InvariantChecker, TamperedBufferTrajectoryIsFlagged) {
  const Fixture fx;
  sim::SessionResult result = fx.run(core::Algorithm::kRateBased);
  result.chunks[3].buffer_after_s += 0.5;

  const InvariantReport dynamics =
      fx.checker().check_buffer_dynamics(result);
  EXPECT_FALSE(dynamics.ok());
  EXPECT_NE(dynamics.to_string().find("buffer_after"), std::string::npos)
      << dynamics.to_string();
}

TEST(InvariantChecker, TamperedRebufferIsFlagged) {
  const Fixture fx;
  sim::SessionResult result = fx.run(core::Algorithm::kRateBased);
  // An invented stall breaks the Eq. (2) drain replay even though the
  // buffer trajectory columns are internally untouched.
  result.chunks[5].rebuffer_s += 1.0;
  EXPECT_FALSE(fx.checker().check_buffer_dynamics(result).ok());
}

TEST(InvariantChecker, TamperedQoeBreaksConservation) {
  const Fixture fx;
  sim::SessionResult result = fx.run(core::Algorithm::kBufferBased);
  result.qoe += 1.0;

  const InvariantReport qoe =
      fx.checker().check_qoe_conservation(result, fx.model);
  EXPECT_FALSE(qoe.ok());
  // The buffer-dynamics replay does not look at the QoE column.
  EXPECT_TRUE(fx.checker().check_buffer_dynamics(result).ok());
}

TEST(InvariantChecker, TamperedAggregateIsFlagged) {
  const Fixture fx;

  sim::SessionResult result = fx.run(core::Algorithm::kRateBased);
  result.switch_count += 1;
  EXPECT_FALSE(fx.checker().check_aggregates(result).ok());

  // total_rebuffer_s is owned by the Eq. (1)-(4) replay, not the
  // aggregate recomputation.
  sim::SessionResult rebuffer = fx.run(core::Algorithm::kRateBased);
  rebuffer.total_rebuffer_s += 0.25;
  EXPECT_FALSE(fx.checker().check_buffer_dynamics(rebuffer).ok());

  sim::SessionResult average = fx.run(core::Algorithm::kRateBased);
  average.average_bitrate_kbps *= 1.01;
  EXPECT_FALSE(fx.checker().check_aggregates(average).ok());
}

TEST(InvariantChecker, StrictProfileFlagsFailurePaths) {
  const Fixture fx;
  sim::SessionResult result = fx.run(core::Algorithm::kRateBased);
  // allow_failures=false (the property_test profile) treats any failure
  // marker as a violation in itself; the lenient fuzz profile replays it.
  result.chunks[2].degraded = true;
  result.degraded_chunks = 1;
  EXPECT_FALSE(fx.checker().check_all(result, fx.model).ok());
}

TEST(InvariantChecker, CheckAllConcatenatesViolations) {
  const Fixture fx;
  sim::SessionResult result = fx.run(core::Algorithm::kBola);
  result.chunks[1].buffer_after_s += 0.5;
  result.qoe -= 2.0;
  result.switch_count += 3;

  const InvariantReport report = fx.checker().check_all(result, fx.model);
  EXPECT_GE(report.violations.size(), 3u) << report.to_string();
}

// Two identical players in lockstep on a constant link: every tick carries
// 120 kb split 60/60, and each 3000 kb chunk takes exactly 50 ticks.
struct SharedFixture {
  media::VideoManifest manifest = small_manifest();
  qoe::QoeModel model = balanced_qoe();
  trace::ThroughputTrace link =
      trace::ThroughputTrace::constant(2400.0, 1000.0);
  sim::MultiPlayerConfig config;

  sim::MultiPlayerResult run() const {
    FixedLevelController c0(1);
    FixedLevelController c1(1);
    ConstantPredictor p0(1200.0);
    ConstantPredictor p1(1200.0);
    sim::BitrateController* controllers[] = {&c0, &c1};
    predict::ThroughputPredictor* predictors[] = {&p0, &p1};
    return sim::simulate_shared_link(link, manifest, model, config,
                                     std::span(controllers, 2),
                                     std::span(predictors, 2));
  }

  InvariantReport check(const sim::MultiPlayerResult& result) const {
    InvariantOptions options;
    options.chunk_duration_s = manifest.chunk_duration_s();
    options.allow_failures = false;
    return InvariantChecker(options).check_shared_link(result, link, config,
                                                       model);
  }
};

bool mentions(const InvariantReport& report, const char* what) {
  return report.to_string().find(what) != std::string::npos;
}

TEST(SharedLinkInvariants, CleanRunPasses) {
  const SharedFixture fx;
  const InvariantReport report = fx.check(fx.run());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SharedLinkInvariants, ChunkOverItsEqualShareIsFlagged) {
  const SharedFixture fx;
  sim::MultiPlayerResult result = fx.run();
  // Move 30 kb from player 1's first chunk to player 0's: the tick still
  // carries 120 kb, but player 0 now finished on less than its shares.
  result.players[0].chunks[0].size_kilobits += 30.0;
  result.players[1].chunks[0].size_kilobits -= 30.0;

  const InvariantReport report = fx.check(result);
  EXPECT_TRUE(mentions(report, "not the equal split")) << report.to_string();
  EXPECT_FALSE(mentions(report, "over link capacity")) << report.to_string();
  EXPECT_EQ(report.violations.size(), 1u) << report.to_string();
}

TEST(SharedLinkInvariants, TickOverCapacityIsFlagged) {
  const SharedFixture fx;
  sim::MultiPlayerResult result = fx.run();
  // 1000 kb more than the link can carry in one tick.
  result.players[1].chunks[2].size_kilobits += 1000.0;

  const InvariantReport report = fx.check(result);
  EXPECT_TRUE(mentions(report, "over link capacity")) << report.to_string();
}

TEST(SharedLinkInvariants, WrongUtilizationIsFlagged) {
  const SharedFixture fx;
  sim::MultiPlayerResult result = fx.run();
  result.link_utilization -= 0.01;

  const InvariantReport report = fx.check(result);
  EXPECT_TRUE(mentions(report, "link_utilization")) << report.to_string();
  EXPECT_EQ(report.violations.size(), 1u) << report.to_string();
}

}  // namespace
}  // namespace abr::testing
