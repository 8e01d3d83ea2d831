#include "sim/multiplayer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/buffer_based.hpp"
#include "core/festive.hpp"
#include "core/rate_based.hpp"
#include "obs/journal.hpp"
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

// The shared link checks its SessionConfig with the same validate() as
// PlayerSession: a startup threshold above the buffer capacity would leave
// every player waiting for a buffer level it can never reach.
TEST(SharedLink, RejectsSessionConfigsPlayerSessionRejects) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(2000.0, 1000.0);
  FixedLevelController controller(0);
  ConstantPredictor predictor(1000.0);
  BitrateController* controllers[] = {&controller};
  predict::ThroughputPredictor* predictors[] = {&predictor};
  MultiPlayerConfig unreachable;
  unreachable.session.startup_policy = StartupPolicy::kBufferThreshold;
  unreachable.session.buffer_capacity_s = 30.0;
  unreachable.session.startup_buffer_threshold_s = 40.0;
  MultiPlayerConfig no_buffer;
  no_buffer.session.buffer_capacity_s = 0.0;
  for (const MultiPlayerConfig& config : {unreachable, no_buffer}) {
    EXPECT_THROW(PlayerSession(manifest, qoe, config.session),
                 std::invalid_argument);
    EXPECT_THROW(simulate_shared_link(link, manifest, qoe, config,
                                      std::span(controllers, 1),
                                      std::span(predictors, 1)),
                 std::invalid_argument);
  }
  try {
    (void)simulate_shared_link(link, manifest, qoe, unreachable,
                               std::span(controllers, 1),
                               std::span(predictors, 1));
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("threshold above buffer"),
              std::string::npos)
        << error.what();
  }
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

// A low-index player that rejoins after a wait downloads alongside a
// higher-index player that joined earlier, and both finish on one tick: the
// completions, and so the controller calls and journal records, still run
// in ascending player order.
TEST(SharedLink, SameTickCompletionsRunInPlayerOrder) {
  // 1200 kbps over 1 s ticks. Player 0 (1200 kb chunks) fills its 4 s
  // buffer by t = 2 and waits until t = 5; player 1 (2000 kb chunks) joins
  // at t = 4. From t = 5 they split the link and both finish at t = 7.
  const auto manifest =
      media::VideoManifest::cbr(4, 4.0, {300.0, 500.0}, "order");
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(1200.0, 1000.0);
  FixedLevelController c0(0);
  FixedLevelController c1(1);
  ConstantPredictor p0(600.0);
  ConstantPredictor p1(600.0);
  BitrateController* controllers[] = {&c0, &c1};
  predict::ThroughputPredictor* predictors[] = {&p0, &p1};
  std::ostringstream journal_out;
  obs::Journal journal(journal_out);
  MultiPlayerConfig config;
  config.time_step_s = 1.0;
  config.startup_stagger_s = 4.0;
  config.session.buffer_capacity_s = 4.0;
  config.journal = &journal;
  const MultiPlayerResult result = simulate_shared_link(
      link, manifest, qoe, config, std::span(controllers, 2),
      std::span(predictors, 2));
  journal.flush();

  // The setup: player 0 rejoined after player 1 started, yet both chunks
  // ended on the tick that closes at t = 7.
  const ChunkRecord& rejoined = result.players[0].chunks[2];
  const ChunkRecord& joined = result.players[1].chunks[0];
  ASSERT_GT(result.players[0].chunks[1].wait_s, 0.0);
  ASSERT_GT(rejoined.start_s, joined.start_s);
  ASSERT_DOUBLE_EQ(rejoined.start_s + rejoined.download_s, 7.0);
  ASSERT_DOUBLE_EQ(joined.start_s + joined.download_s, 7.0);

  // Journal chunk records that end at t = 7, in the order they were written.
  std::vector<int> players_at_tick;
  std::istringstream lines(journal_out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"type\":\"chunk\"") == std::string::npos) continue;
    const auto field = [&line](const std::string& key) {
      const std::size_t at = line.find("\"" + key + "\":");
      return std::stod(line.substr(at + key.size() + 3));
    };
    if (std::abs(field("t_s") + field("download_s") - 7.0) > 1e-9) continue;
    const std::size_t session = line.find("\"session\":\"p");
    players_at_tick.push_back(std::stoi(line.substr(session + 12)));
  }
  EXPECT_EQ(players_at_tick, (std::vector<int>{0, 1}));
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
