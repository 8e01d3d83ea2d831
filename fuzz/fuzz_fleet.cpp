// Fleet-level structure-aware fuzzer: decodes bytes into a shared-link
// experiment (1-64 players, join stagger, time step, a constant, step, or
// seeded Markov link, a per-player registry controller, and first-chunk or
// buffer-threshold startup), runs it
// through sim::simulate_shared_link, and checks the result with
// testing::InvariantChecker::check_shared_link: Eqs. (1)-(5) per player,
// capacity conservation and the equal split per tick, and the link-level
// aggregates. A second run from fresh objects must reproduce the result,
// journal and fleet series bit for bit.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "core/fastmpc_table.hpp"
#include "fuzz_input.hpp"
#include "media/manifest.hpp"
#include "media/quality.hpp"
#include "obs/journal.hpp"
#include "qoe/qoe.hpp"
#include "sim/fleet_series.hpp"
#include "sim/multiplayer.hpp"
#include "testing/invariant_checker.hpp"
#include "trace/generators.hpp"
#include "trace/throughput_trace.hpp"
#include "util/rng.hpp"

namespace {

// Controllers that run on a shared link (MPC-OPT needs the raw trace, which
// a fair share does not have). MPC-DP is left to the solver harnesses: its
// value iteration would dominate every exec.
constexpr abr::core::Algorithm kAlgorithms[] = {
    abr::core::Algorithm::kRateBased, abr::core::Algorithm::kBufferBased,
    abr::core::Algorithm::kFastMpc,   abr::core::Algorithm::kRobustMpc,
    abr::core::Algorithm::kMpc,       abr::core::Algorithm::kDashJs,
    abr::core::Algorithm::kFestive,   abr::core::Algorithm::kBola,
};
constexpr std::size_t kAlgorithmChoices =
    sizeof(kAlgorithms) / sizeof(kAlgorithms[0]);

struct Decoded {
  abr::media::VideoManifest manifest;
  abr::qoe::QoeModel model{abr::media::QualityFunction::identity(),
                           abr::qoe::QoeWeights{}};
  abr::trace::ThroughputTrace link;
  abr::sim::MultiPlayerConfig config;
  std::vector<abr::core::Algorithm> algorithms;  ///< one per player
  abr::core::AlgorithmOptions options;
};

void decode(abr::fuzz::FuzzInput& in, Decoded& out) {
  const std::size_t levels = in.uniform_size(2, 4);
  std::vector<double> ladder;
  double rate = in.uniform_double(100.0, 800.0);
  for (std::size_t i = 0; i < levels; ++i) {
    ladder.push_back(rate);
    rate += in.uniform_double(100.0, 2000.0);
  }
  const double lowest_kbps = ladder.front();
  const double highest_kbps = ladder.back();
  const std::size_t chunks = in.uniform_size(2, 12);
  const double chunk_s = in.uniform_double(1.0, 6.0);
  out.manifest = abr::media::VideoManifest::cbr(chunks, chunk_s,
                                                std::move(ladder), "fuzz");

  abr::qoe::QoeWeights weights;
  weights.lambda = in.uniform_double(0.0, 3.0);
  weights.mu = in.uniform_double(0.0, 6000.0);
  weights.mu_startup = weights.mu;
  out.model =
      abr::qoe::QoeModel(abr::media::QualityFunction::identity(), weights);

  const std::size_t players = in.uniform_size(1, 64);
  out.config = abr::sim::MultiPlayerConfig{};
  out.config.startup_stagger_s = in.uniform_double(0.0, 4.0);
  out.config.time_step_s = in.uniform_double(0.02, 0.5);
  out.config.session.buffer_capacity_s = in.uniform_double(8.0, 30.0);
  out.config.session.include_startup_in_qoe = in.boolean();

  // Link capacity scales with the player count so that a fair share lands
  // between a third of the lowest rung and twice the highest.
  const auto per_player_kbps = [&] {
    return in.uniform_double(lowest_kbps / 3.0, 2.0 * highest_kbps);
  };
  const double n = static_cast<double>(players);
  switch (in.uniform_size(0, 2)) {
    case 0:
      out.link = abr::trace::ThroughputTrace::constant(n * per_player_kbps(),
                                                       100.0, "fuzz");
      break;
    case 1: {
      std::vector<abr::trace::TraceSegment> segments;
      const std::size_t count = in.uniform_size(1, 8);
      for (std::size_t i = 0; i < count; ++i) {
        abr::trace::TraceSegment seg;
        seg.duration_s = in.uniform_double(0.5, 20.0);
        // Segment 0 keeps a floor so one period has non-zero capacity.
        seg.rate_kbps = i == 0 || in.boolean() ? n * per_player_kbps() : 0.0;
        segments.push_back(seg);
      }
      out.link = abr::trace::ThroughputTrace(std::move(segments), "fuzz");
      break;
    }
    default: {
      abr::util::Rng rng(in.u64());
      const abr::trace::ThroughputTrace raw =
          abr::trace::MarkovConfig{}.generate(rng, 120.0, "fuzz");
      out.link = raw.scaled(n * per_player_kbps() / raw.mean_kbps());
      break;
    }
  }

  out.algorithms.clear();
  bool fastmpc = false;
  for (std::size_t i = 0; i < players; ++i) {
    out.algorithms.push_back(
        kAlgorithms[in.uniform_size(0, kAlgorithmChoices - 1)]);
    fastmpc = fastmpc ||
              out.algorithms.back() == abr::core::Algorithm::kFastMpc;
  }
  // Drawn after every older field, so an input that ends before this point
  // decodes as it always did (first-chunk startup).
  if (in.boolean()) {
    out.config.session.startup_policy =
        abr::sim::StartupPolicy::kBufferThreshold;
    out.config.session.startup_buffer_threshold_s =
        in.uniform_double(0.0, out.config.session.buffer_capacity_s);
  }
  out.options = abr::core::AlgorithmOptions{};
  out.options.buffer_capacity_s = out.config.session.buffer_capacity_s;
  if (fastmpc) {
    // A coarse table: the lookup path is what matters here, not its
    // resolution.
    abr::core::FastMpcConfig table;
    table.buffer_bins = 10;
    table.throughput_bins = 10;
    table.threads = 1;
    table.buffer_capacity_s = out.config.session.buffer_capacity_s;
    out.options.fastmpc_table =
        std::make_shared<const abr::core::FastMpcTable>(
            abr::core::FastMpcTable::build(out.manifest, out.model, table));
  }
}

/// Everything a run produces; `text` renders the result so that equal text
/// means equal bits.
struct Outcome {
  abr::sim::MultiPlayerResult result;
  std::string text;
  std::string journal;
  std::string fleet;
  bool starved = false;
};

std::string render(const abr::sim::MultiPlayerResult& result) {
  std::ostringstream out;
  char line[512];
  for (const abr::sim::SessionResult& p : result.players) {
    for (const abr::sim::ChunkRecord& r : p.chunks) {
      std::snprintf(line, sizeof(line),
                    "%zu %zu %a %a %a %a %a %a %a %a %a %a %zu\n", r.index,
                    r.level, r.bitrate_kbps, r.size_kilobits, r.start_s,
                    r.download_s, r.throughput_kbps, r.predicted_kbps,
                    r.buffer_before_s, r.buffer_after_s, r.rebuffer_s,
                    r.wait_s, r.attempts);
      out << line;
    }
    std::snprintf(line, sizeof(line), "%a %a %a %a %a %a %a %a %zu %zu\n",
                  p.startup_delay_s, p.total_rebuffer_s, p.total_wait_s,
                  p.session_duration_s, p.qoe, p.average_bitrate_kbps,
                  p.average_bitrate_change_kbps, p.rebuffer_chunk_fraction,
                  p.switch_count, p.total_attempts);
    out << line;
  }
  std::snprintf(line, sizeof(line), "%a %a\n", result.jain_fairness,
                result.link_utilization);
  out << line;
  return out.str();
}

Outcome run_once(const Decoded& d) {
  std::vector<abr::core::AlgorithmInstance> instances;
  std::vector<abr::sim::BitrateController*> controllers;
  std::vector<abr::predict::ThroughputPredictor*> predictors;
  for (const abr::core::Algorithm algorithm : d.algorithms) {
    instances.push_back(
        abr::core::make_algorithm(algorithm, d.manifest, d.model, d.options));
    controllers.push_back(instances.back().controller.get());
    predictors.push_back(instances.back().predictor.get());
  }
  std::ostringstream journal_out;
  abr::obs::Journal journal(journal_out);
  abr::sim::FleetSeriesConfig fleet_config;
  fleet_config.chunk_duration_s = d.manifest.chunk_duration_s();
  abr::sim::FleetSeries fleet(fleet_config);
  abr::sim::MultiPlayerConfig config = d.config;
  config.journal = &journal;
  config.fleet = &fleet;

  Outcome outcome;
  try {
    outcome.result = abr::sim::simulate_shared_link(
        d.link, d.manifest, d.model, config,
        std::span<abr::sim::BitrateController* const>(controllers),
        std::span<abr::predict::ThroughputPredictor* const>(predictors));
    outcome.text = render(outcome.result);
  } catch (const std::runtime_error&) {
    outcome.starved = true;  // the safety valve: the link cannot keep up
  }
  journal.flush();
  outcome.journal = journal_out.str();
  outcome.fleet = fleet.to_json();
  return outcome;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  abr::fuzz::FuzzInput in(data, size);
  Decoded decoded;
  decode(in, decoded);

  const Outcome outcome = run_once(decoded);
  if (!outcome.starved) {
    ABR_FUZZ_REQUIRE(outcome.result.players.size() ==
                     decoded.algorithms.size());
    abr::testing::InvariantOptions options;
    options.chunk_duration_s = decoded.manifest.chunk_duration_s();
    options.allow_failures = false;
    const abr::testing::InvariantReport report =
        abr::testing::InvariantChecker(options).check_shared_link(
            outcome.result, decoded.link, decoded.config, decoded.model);
    ABR_FUZZ_REQUIRE_MSG(report.ok(), report.to_string());
  }

  // Determinism: fresh controllers and sinks, same bits out.
  const Outcome again = run_once(decoded);
  ABR_FUZZ_REQUIRE(again.starved == outcome.starved);
  ABR_FUZZ_REQUIRE_MSG(again.text == outcome.text, "result not reproducible");
  ABR_FUZZ_REQUIRE_MSG(again.journal == outcome.journal,
                       "journal not reproducible");
  ABR_FUZZ_REQUIRE_MSG(again.fleet == outcome.fleet,
                       "fleet series not reproducible");
  return 0;
}
