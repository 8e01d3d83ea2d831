// Golden-file regression for the MPC family: the exact decision sequence
// (and resulting session dynamics) of MPC, RobustMPC, and FastMPC on two
// fixed seeded traces is committed under tests/golden/ and must never drift
// unintentionally. Everything in the pipeline is deterministic, so the
// comparison is bit-exact on the serialized log.
//
// The GoldenSharedLink suite pins the shared-link simulator the same way:
// three fleet configurations, plus the journal and fleet time series of the
// first one.
//
// To regenerate after an *intentional* behaviour change:
//   ABR_UPDATE_GOLDEN=1 ./build/tests/abr_tests
//       --gtest_filter='GoldenDecisions.*:GoldenSharedLink.*'
// then review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "core/buffer_based.hpp"
#include "core/festive.hpp"
#include "core/rate_based.hpp"
#include "obs/journal.hpp"
#include "sim/chunk_source.hpp"
#include "sim/fleet_series.hpp"
#include "sim/multiplayer.hpp"
#include "sim/player.hpp"
#include "test_helpers.hpp"
#include "testing/fault_plan.hpp"
#include "testing/faulty_source.hpp"
#include "testing/invariant_checker.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

#ifndef ABR_GOLDEN_DIR
#error "ABR_GOLDEN_DIR must be defined by the build"
#endif

namespace abr {
namespace {

struct GoldenTrace {
  const char* key;
  trace::ThroughputTrace trace;
};

std::vector<GoldenTrace> golden_traces() {
  std::vector<GoldenTrace> traces;
  traces.push_back({"hsdpa2024",
                    trace::make_dataset(trace::DatasetKind::kHsdpa, 1, 320.0,
                                        2024)[0]});
  traces.push_back({"fcc7", trace::make_dataset(trace::DatasetKind::kFcc, 1,
                                                320.0, 7)[0]});
  return traces;
}

/// Serializes a session to the golden format: one line per chunk with the
/// decision and its measurable consequences, then the session QoE. %.17g
/// round-trips doubles exactly, so equality of the text implies equality of
/// the underlying numbers.
std::string serialize(const char* algorithm, const char* trace_key,
                      const sim::SessionResult& result) {
  std::ostringstream out;
  out << "# algorithm=" << algorithm << " trace=" << trace_key << "\n";
  out << "# chunk level bitrate_kbps download_s rebuffer_s\n";
  char line[160];
  for (const auto& record : result.chunks) {
    std::snprintf(line, sizeof(line), "%zu %zu %.17g %.17g %.17g\n",
                  record.index, record.level, record.bitrate_kbps,
                  record.download_s, record.rebuffer_s);
    out << line;
  }
  char footer[64];
  std::snprintf(footer, sizeof(footer), "qoe %.17g\n", result.qoe);
  out << footer;
  return out.str();
}

/// Compares `actual` with the committed golden file `name` under
/// tests/golden/, or rewrites the file when ABR_UPDATE_GOLDEN is set.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(ABR_GOLDEN_DIR) + "/" + name;
  if (std::getenv("ABR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with ABR_UPDATE_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "output drifted from " << path
      << " — if the change is intentional, regenerate with "
         "ABR_UPDATE_GOLDEN=1 and review the diff";
}

void check_golden(core::Algorithm algorithm, const char* key,
                  const core::AlgorithmOptions& options) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = abr::testing::balanced_qoe();

  for (const auto& golden : golden_traces()) {
    auto instance = core::make_algorithm(algorithm, manifest, qoe, options);
    const auto result =
        sim::simulate(golden.trace, manifest, qoe, {}, *instance.controller,
                      *instance.predictor);
    expect_golden(std::string(key) + "_" + golden.key + ".txt",
                  serialize(key, golden.key, result));
  }
}

TEST(GoldenDecisions, MpcIsBitExact) {
  check_golden(core::Algorithm::kMpc, "mpc", {});
}

TEST(GoldenDecisions, RobustMpcIsBitExact) {
  check_golden(core::Algorithm::kRobustMpc, "robustmpc", {});
}

TEST(GoldenDecisions, FastMpcIsBitExact) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = abr::testing::balanced_qoe();
  core::AlgorithmOptions options;
  options.fastmpc_table = core::default_fastmpc_table(manifest, qoe, 30.0);
  check_golden(core::Algorithm::kFastMpc, "fastmpc", options);
}

TEST(GoldenDecisions, BolaIsBitExact) {
  check_golden(core::Algorithm::kBola, "bola", {});
}

// BOLA's decision log must also be pinned under a fault storm: the faulty
// delivery path perturbs buffer dynamics, so drift in either the controller
// or the fault machinery shows up here. Two back-to-back runs must agree
// byte-for-byte before either is compared against the committed golden.
TEST(GoldenDecisions, BolaUnderFaultsIsBitExact) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = abr::testing::balanced_qoe();

  abr::testing::FaultPlan plan;
  plan.seed = 97;
  plan.latency_rate = 0.05;
  plan.stall_rate = 0.05;
  plan.partial_rate = 0.03;
  plan.reset_rate = 0.03;
  plan.http_error_rate = 0.04;

  for (const auto& golden : golden_traces()) {
    auto run_once = [&] {
      auto instance =
          core::make_algorithm(core::Algorithm::kBola, manifest, qoe, {});
      sim::TraceChunkSource base(golden.trace, manifest);
      abr::testing::FaultySource faulty(base, plan);
      const sim::PlayerSession player(manifest, qoe, {});
      return player.run(faulty, *instance.controller, *instance.predictor);
    };
    const std::string actual =
        serialize("bola_faults", golden.key, run_once());
    const std::string again =
        serialize("bola_faults", golden.key, run_once());
    ASSERT_EQ(actual, again)
        << "BOLA under faults is non-deterministic on " << golden.key;

    expect_golden(std::string("bola_faults_") + golden.key + ".txt", actual);
  }
}

// --- Shared link ------------------------------------------------------------

/// One line per chunk, then one per player and one for the link.
std::string serialize_chunks(const char* key,
                             const sim::MultiPlayerResult& result) {
  std::ostringstream out;
  out << "# shared link " << key << "\n";
  out << "# player chunk level start_s download_s throughput_kbps "
         "rebuffer_s wait_s buffer_after_s\n";
  char line[320];
  for (std::size_t i = 0; i < result.players.size(); ++i) {
    const sim::SessionResult& player = result.players[i];
    for (const sim::ChunkRecord& r : player.chunks) {
      std::snprintf(line, sizeof(line),
                    "%zu %zu %zu %.17g %.17g %.17g %.17g %.17g %.17g\n", i,
                    r.index, r.level, r.start_s, r.download_s,
                    r.throughput_kbps, r.rebuffer_s, r.wait_s,
                    r.buffer_after_s);
      out << line;
    }
    std::snprintf(line, sizeof(line),
                  "player %zu qoe %.17g startup %.17g attempts %zu\n", i,
                  player.qoe, player.startup_delay_s, player.total_attempts);
    out << line;
  }
  std::snprintf(line, sizeof(line), "jain %.17g utilization %.17g\n",
                result.jain_fairness, result.link_utilization);
  out << line;
  return out.str();
}

/// One summary line per session, then one for the link.
std::string serialize_sessions(const char* key,
                               const sim::MultiPlayerResult& result) {
  std::ostringstream out;
  out << "# shared link " << key << "\n";
  out << "# player chunks qoe startup_s rebuffer_s wait_s "
         "average_bitrate_kbps switches attempts duration_s\n";
  char line[320];
  for (std::size_t i = 0; i < result.players.size(); ++i) {
    const sim::SessionResult& p = result.players[i];
    std::snprintf(line, sizeof(line),
                  "%zu %zu %.17g %.17g %.17g %.17g %.17g %zu %zu %.17g\n", i,
                  p.chunks.size(), p.qoe, p.startup_delay_s,
                  p.total_rebuffer_s, p.total_wait_s, p.average_bitrate_kbps,
                  p.switch_count, p.total_attempts, p.session_duration_s);
    out << line;
  }
  std::snprintf(line, sizeof(line), "jain %.17g utilization %.17g\n",
                result.jain_fairness, result.link_utilization);
  out << line;
  return out.str();
}

void expect_shared_link_invariants(const sim::MultiPlayerResult& result,
                                   const trace::ThroughputTrace& link,
                                   const media::VideoManifest& manifest,
                                   const qoe::QoeModel& qoe,
                                   const sim::MultiPlayerConfig& config) {
  abr::testing::InvariantOptions options;
  options.chunk_duration_s = manifest.chunk_duration_s();
  options.allow_failures = false;
  const abr::testing::InvariantReport report =
      abr::testing::InvariantChecker(options).check_shared_link(result, link,
                                                                config, qoe);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// Three controllers with different rate logic on a variable Markov link:
// rate switches, rebuffers and buffer-full waits. The journal and the fleet
// time series of the run are pinned too.
TEST(GoldenSharedLink, HeterogeneousMarkovThreePlayers) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = abr::testing::balanced_qoe();
  util::Rng rng(3);
  const auto link = trace::MarkovConfig{}.generate(rng, 600.0).scaled(2.0);

  core::RateBasedController rb;
  core::BufferBasedController bb;
  core::FestiveController festive;
  predict::HarmonicMeanPredictor hm1(5);
  predict::HarmonicMeanPredictor hm2(5);
  predict::HarmonicMeanPredictor hm3(5);
  sim::BitrateController* controllers[] = {&rb, &bb, &festive};
  predict::ThroughputPredictor* predictors[] = {&hm1, &hm2, &hm3};
  std::ostringstream journal_out;
  obs::Journal journal(journal_out);
  sim::FleetSeriesConfig fleet_config;
  fleet_config.chunk_duration_s = manifest.chunk_duration_s();
  sim::FleetSeries fleet(fleet_config);
  sim::MultiPlayerConfig config;
  config.startup_stagger_s = 1.5;
  config.journal = &journal;
  config.fleet = &fleet;
  const sim::MultiPlayerResult result = sim::simulate_shared_link(
      link, manifest, qoe, config, std::span(controllers, 3),
      std::span(predictors, 3));
  journal.flush();

  expect_golden("shared_markov3.txt", serialize_chunks("markov3", result));
  expect_golden("shared_markov3_journal.jsonl", journal_out.str());
  expect_golden("shared_markov3_fleet.json", fleet.to_json() + "\n");
  expect_shared_link_invariants(result, link, manifest, qoe, config);
}

// A fleet-scale population: staggered joins, mixed fixed rungs, and a link
// generous enough that players spend most of their time buffer-full waiting.
TEST(GoldenSharedLink, FixedRungs256Players) {
  const auto manifest = abr::testing::small_manifest();
  const auto qoe = abr::testing::balanced_qoe();
  const std::size_t n = 256;
  const auto link =
      trace::ThroughputTrace::constant(400.0 * static_cast<double>(n), 1000.0);

  std::vector<std::unique_ptr<abr::testing::FixedLevelController>> owned_c;
  std::vector<std::unique_ptr<abr::testing::ConstantPredictor>> owned_p;
  std::vector<sim::BitrateController*> controllers;
  std::vector<predict::ThroughputPredictor*> predictors;
  for (std::size_t i = 0; i < n; ++i) {
    owned_c.push_back(
        std::make_unique<abr::testing::FixedLevelController>(i % 3));
    owned_p.push_back(
        std::make_unique<abr::testing::ConstantPredictor>(400.0));
    controllers.push_back(owned_c.back().get());
    predictors.push_back(owned_p.back().get());
  }
  sim::MultiPlayerConfig config;
  config.startup_stagger_s = 0.1;
  const sim::MultiPlayerResult result = sim::simulate_shared_link(
      link, manifest, qoe, config,
      std::span<sim::BitrateController* const>(controllers),
      std::span<predict::ThroughputPredictor* const>(predictors));

  expect_golden("shared_fixed256.txt", serialize_sessions("fixed256", result));
  expect_shared_link_invariants(result, link, manifest, qoe, config);
}

// The paper's controller under contention: eight RobustMPC players share the
// fcc7 golden trace scaled by eight, so a player's fair share averages the
// single-player trace's rate.
TEST(GoldenSharedLink, RobustMpcEightPlayersOnFcc7) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = abr::testing::balanced_qoe();
  const trace::ThroughputTrace link = golden_traces()[1].trace.scaled(8.0);

  std::vector<core::AlgorithmInstance> instances;
  std::vector<sim::BitrateController*> controllers;
  std::vector<predict::ThroughputPredictor*> predictors;
  for (std::size_t i = 0; i < 8; ++i) {
    instances.push_back(
        core::make_algorithm(core::Algorithm::kRobustMpc, manifest, qoe));
    controllers.push_back(instances.back().controller.get());
    predictors.push_back(instances.back().predictor.get());
  }
  sim::MultiPlayerConfig config;
  config.startup_stagger_s = 2.0;
  const sim::MultiPlayerResult result = sim::simulate_shared_link(
      link, manifest, qoe, config,
      std::span<sim::BitrateController* const>(controllers),
      std::span<predict::ThroughputPredictor* const>(predictors));

  expect_golden("shared_robustmpc8_fcc7.txt",
                serialize_chunks("robustmpc8_fcc7", result));
  expect_shared_link_invariants(result, link, manifest, qoe, config);
}

}  // namespace
}  // namespace abr
