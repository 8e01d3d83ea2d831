// Extension (Section 8 future work): multi-player interaction over a shared
// bottleneck. N identical players stream the same video; the link's
// capacity is fair-shared among concurrently active downloads. Reports
// per-algorithm average bitrate, rebuffering, switching, Jain fairness, and
// link utilization. Expected shape: FESTIVE — designed for this setting —
// achieves the most stable sharing; pure RB oscillates (each player's
// throughput samples are biased by the others' on/off behaviour); MPC
// remains efficient but was not designed for fairness (the paper's stated
// future work).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "sim/multiplayer.hpp"

using namespace abr;

namespace {

void run_case(const char* label, const trace::ThroughputTrace& link,
              std::size_t player_count, core::Algorithm algorithm,
              const bench::Experiment& experiment,
              const core::AlgorithmOptions& algo_options) {
  std::vector<core::AlgorithmInstance> instances;
  std::vector<sim::BitrateController*> controllers;
  std::vector<predict::ThroughputPredictor*> predictors;
  for (std::size_t i = 0; i < player_count; ++i) {
    instances.push_back(core::make_algorithm(algorithm, experiment.manifest,
                                             experiment.qoe, algo_options));
    controllers.push_back(instances.back().controller.get());
    predictors.push_back(instances.back().predictor.get());
  }
  sim::MultiPlayerConfig config;
  config.session = experiment.session;
  config.startup_stagger_s = 2.0;
  const sim::MultiPlayerResult result = sim::simulate_shared_link(
      link, experiment.manifest, experiment.qoe, config, controllers,
      predictors);

  util::RunningStats bitrate;
  util::RunningStats rebuffer;
  util::RunningStats switches;
  for (const sim::SessionResult& player : result.players) {
    bitrate.add(player.average_bitrate_kbps);
    rebuffer.add(player.total_rebuffer_s);
    switches.add(static_cast<double>(player.switch_count));
  }
  std::printf("%-10s %-10s %3zu %10.0f %10.2f %10.1f %10.4f %10.3f\n", label,
              core::algorithm_name(algorithm), player_count, bitrate.mean(),
              rebuffer.mean(), switches.mean(), result.jain_fairness,
              result.link_utilization);
}

}  // namespace

int main(int argc, char** argv) {
  // BenchOptions::parse exits(2) on flags it does not know, so peel the
  // fleet-telemetry flag off argv before handing the rest over.
  std::string fleet_out;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fleet-out") == 0 && i + 1 < argc) {
      fleet_out = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const bench::BenchOptions options = bench::BenchOptions::parse(
      static_cast<int>(passthrough.size()), passthrough.data());
  bench::Experiment experiment;
  core::AlgorithmOptions algo_options;
  algo_options.fastmpc_table = core::default_fastmpc_table(
      experiment.manifest, experiment.qoe,
      experiment.session.buffer_capacity_s);

  std::printf("=== Extension: shared-bottleneck multi-player streaming ===\n\n");
  std::printf("%-10s %-10s %3s %10s %10s %10s %10s %10s\n", "link", "algo",
              "N", "bitrate", "rebuf_s", "switches", "jain", "util");

  const auto steady = trace::ThroughputTrace::constant(6000.0, 2000.0, "6Mbps");
  util::Rng rng(options.seed);
  const auto variable =
      trace::MarkovConfig{}.generate(rng, 2000.0, "markov").scaled(2.5);

  for (const std::size_t players : {2ul, 4ul}) {
    for (const core::Algorithm algorithm :
         {core::Algorithm::kRateBased, core::Algorithm::kFestive,
          core::Algorithm::kBufferBased, core::Algorithm::kRobustMpc}) {
      run_case("steady", steady, players, algorithm, experiment, algo_options);
    }
    std::printf("\n");
    for (const core::Algorithm algorithm :
         {core::Algorithm::kRateBased, core::Algorithm::kFestive,
          core::Algorithm::kBufferBased, core::Algorithm::kRobustMpc}) {
      run_case("variable", variable, players, algorithm, experiment,
               algo_options);
    }
    std::printf("\n");
  }

  if (!fleet_out.empty()) {
    // Dedicated fleet-telemetry run: four RobustMPC players competing on the
    // variable link, with the time-series aggregator attached. Virtual time
    // only, so the export is byte-identical for a given seed.
    sim::FleetSeriesConfig fleet_config;
    fleet_config.chunk_duration_s = experiment.manifest.chunk_duration_s();
    sim::FleetSeries fleet(fleet_config);
    std::vector<core::AlgorithmInstance> instances;
    std::vector<sim::BitrateController*> controllers;
    std::vector<predict::ThroughputPredictor*> predictors;
    for (std::size_t i = 0; i < 4; ++i) {
      instances.push_back(core::make_algorithm(core::Algorithm::kRobustMpc,
                                               experiment.manifest,
                                               experiment.qoe, algo_options));
      controllers.push_back(instances.back().controller.get());
      predictors.push_back(instances.back().predictor.get());
    }
    sim::MultiPlayerConfig config;
    config.session = experiment.session;
    config.startup_stagger_s = 2.0;
    config.fleet = &fleet;
    sim::simulate_shared_link(variable, experiment.manifest, experiment.qoe,
                              config, controllers, predictors);
    try {
      fleet.save(fleet_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("wrote fleet series: %s (%zu buckets)\n", fleet_out.c_str(),
                fleet.bucket_count());
  }
  return 0;
}
