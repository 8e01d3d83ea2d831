#include "sim/multiplayer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/buffer_based.hpp"
#include "core/festive.hpp"
#include "core/rate_based.hpp"
#include "predict/predictor.hpp"
#include "test_helpers.hpp"
#include "testing/invariant_checker.hpp"
#include "trace/generators.hpp"

namespace abr::sim {
namespace {

using ::abr::testing::ConstantPredictor;
using ::abr::testing::FixedLevelController;

TEST(JainIndex, KnownValues) {
  const std::vector<double> equal = {5.0, 5.0, 5.0};
  EXPECT_NEAR(jain_index(equal), 1.0, 1e-12);
  const std::vector<double> skewed = {1.0, 0.0, 0.0};
  EXPECT_NEAR(jain_index(skewed), 1.0 / 3.0, 1e-12);
  const std::vector<double> pair = {1.0, 3.0};
  EXPECT_NEAR(jain_index(pair), 16.0 / 20.0, 1e-12);
  EXPECT_EQ(jain_index({}), 0.0);
}

TEST(SharedLink, ValidatesArguments) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(2000.0, 1000.0);
  FixedLevelController controller(0);
  ConstantPredictor predictor(1000.0);
  BitrateController* controllers[] = {&controller};
  predict::ThroughputPredictor* predictors[] = {&predictor, &predictor};
  MultiPlayerConfig config;
  EXPECT_THROW(simulate_shared_link(link, manifest, qoe, config,
                                    std::span<BitrateController* const>{},
                                    std::span(predictors, 0)),
               std::invalid_argument);
  EXPECT_THROW(simulate_shared_link(link, manifest, qoe, config,
                                    std::span(controllers, 1),
                                    std::span(predictors, 2)),
               std::invalid_argument);
  MultiPlayerConfig fixed;
  fixed.session.startup_policy = StartupPolicy::kFixedDelay;
  EXPECT_THROW(simulate_shared_link(link, manifest, qoe, fixed,
                                    std::span(controllers, 1),
                                    std::span(predictors, 1)),
               std::invalid_argument);
  MultiPlayerConfig bad_step;
  bad_step.time_step_s = 0.0;
  EXPECT_THROW(simulate_shared_link(link, manifest, qoe, bad_step,
                                    std::span(controllers, 1),
                                    std::span(predictors, 1)),
               std::invalid_argument);
}

TEST(SharedLink, SinglePlayerMatchesPlayerSession) {
  // With one player the shared link degenerates to the single-player model;
  // the time-stepped results must match the exact event simulation within
  // step resolution.
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(1000.0, 1000.0);

  FixedLevelController exact_controller(1);
  ConstantPredictor exact_predictor(1000.0);
  const SessionResult exact = simulate(link, manifest, qoe, {},
                                       exact_controller, exact_predictor);

  FixedLevelController stepped_controller(1);
  ConstantPredictor stepped_predictor(1000.0);
  BitrateController* controllers[] = {&stepped_controller};
  predict::ThroughputPredictor* predictors[] = {&stepped_predictor};
  const MultiPlayerResult shared = simulate_shared_link(
      link, manifest, qoe, {}, std::span(controllers, 1),
      std::span(predictors, 1));

  ASSERT_EQ(shared.players.size(), 1u);
  const SessionResult& stepped = shared.players[0];
  ASSERT_EQ(stepped.chunks.size(), exact.chunks.size());
  EXPECT_NEAR(stepped.startup_delay_s, exact.startup_delay_s, 0.1);
  EXPECT_NEAR(stepped.total_rebuffer_s, exact.total_rebuffer_s, 0.5);
  EXPECT_DOUBLE_EQ(stepped.average_bitrate_kbps, exact.average_bitrate_kbps);
  EXPECT_NEAR(shared.jain_fairness, 1.0, 1e-12);
}

TEST(SharedLink, TwoIdenticalPlayersShareEqually) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(2400.0, 1000.0);

  FixedLevelController c0(1);
  FixedLevelController c1(1);
  ConstantPredictor p0(1200.0);
  ConstantPredictor p1(1200.0);
  BitrateController* controllers[] = {&c0, &c1};
  predict::ThroughputPredictor* predictors[] = {&p0, &p1};
  const MultiPlayerResult result = simulate_shared_link(
      link, manifest, qoe, {}, std::span(controllers, 2),
      std::span(predictors, 2));

  ASSERT_EQ(result.players.size(), 2u);
  EXPECT_NEAR(result.jain_fairness, 1.0, 1e-9);
  // Identical players remain in lockstep: same measured throughput.
  EXPECT_NEAR(result.players[0].chunks[3].throughput_kbps,
              result.players[1].chunks[3].throughput_kbps, 30.0);
  // Each sees roughly half the link while both are downloading.
  EXPECT_LT(result.players[0].chunks[0].throughput_kbps, 1400.0);
}

TEST(SharedLink, StaggeredJoinDelaysSecondPlayer) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(2000.0, 1000.0);

  FixedLevelController c0(0);
  FixedLevelController c1(0);
  ConstantPredictor p0(1000.0);
  ConstantPredictor p1(1000.0);
  BitrateController* controllers[] = {&c0, &c1};
  predict::ThroughputPredictor* predictors[] = {&p0, &p1};
  MultiPlayerConfig config;
  config.startup_stagger_s = 10.0;
  const MultiPlayerResult result = simulate_shared_link(
      link, manifest, qoe, config, std::span(controllers, 2),
      std::span(predictors, 2));
  EXPECT_GE(result.players[1].chunks[0].start_s, 10.0 - 1e-9);
  // Player 0's first chunk had the link alone: full rate.
  EXPECT_GT(result.players[0].chunks[0].throughput_kbps, 1500.0);
}

TEST(SharedLink, InvariantsWithHeterogeneousControllers) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  util::Rng rng(3);
  const auto link =
      trace::MarkovConfig{}.generate(rng, 600.0).scaled(2.0);

  core::RateBasedController rb;
  core::BufferBasedController bb;
  core::FestiveController festive;
  predict::HarmonicMeanPredictor hm1(5);
  predict::HarmonicMeanPredictor hm2(5);
  predict::HarmonicMeanPredictor hm3(5);
  BitrateController* controllers[] = {&rb, &bb, &festive};
  predict::ThroughputPredictor* predictors[] = {&hm1, &hm2, &hm3};
  const MultiPlayerConfig config;
  const MultiPlayerResult result =
      simulate_shared_link(link, manifest, qoe, config,
                           std::span(controllers, 3), std::span(predictors, 3));

  ASSERT_EQ(result.players.size(), 3u);
  for (const SessionResult& player : result.players) {
    ASSERT_EQ(player.chunks.size(), manifest.chunk_count());
  }
  ::abr::testing::InvariantOptions options;
  options.chunk_duration_s = manifest.chunk_duration_s();
  options.allow_failures = false;
  const ::abr::testing::InvariantReport report =
      ::abr::testing::InvariantChecker(options).check_shared_link(
          result, link, config, qoe);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SharedLink, StarvedLinkThrowsInsteadOfSpinning) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  // 1 kbps: the 8-chunk video could never finish in the safety window.
  const auto link = trace::ThroughputTrace::constant(1.0, 1000.0);
  FixedLevelController controller(2);
  ConstantPredictor predictor(1.0);
  BitrateController* controllers[] = {&controller};
  predict::ThroughputPredictor* predictors[] = {&predictor};
  EXPECT_THROW(simulate_shared_link(link, manifest, qoe, {},
                                    std::span(controllers, 1),
                                    std::span(predictors, 1)),
               std::runtime_error);
}

}  // namespace
}  // namespace abr::sim
