// fleet_robustmpc / fleet_fastmpc.
//
// A rolling-arrival fleet of sessions shares one link whose capacity follows
// a seeded FCC-like trace, rescaled so the link is contended: the fair share
// of the sessions active at once falls inside the bitrate ladder, so the
// controllers have a real choice to make (an uncontended link pins every
// session to the top rung, and RobustMPC and FastMPC then make identical
// decisions). Every session runs make_algorithm(kind) with the harmonic-mean
// predictor through sim::simulate_shared_link_soa.
//
// One run simulates the same fleet on kLinks links drawn from the seed, in
// rounds, for the whole measured window; every repetition on a link must
// reproduce that link's first decisions bit for bit.
#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "core/algorithms.hpp"
#include "media/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "probes.hpp"
#include "qoe/qoe.hpp"
#include "sim/fleet_engine.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using abr::core::Algorithm;

// Workload sizing (see perfbench/README.md for the reasons).
constexpr std::size_t kSessions = 500;
constexpr std::size_t kLinks = 4;
constexpr std::size_t kChunks = 32;
constexpr double kChunkSeconds = 4.0;
// Sessions join evenly over this many video durations, so about
// 1 / kArrivalWindowFactor of the fleet is active at once.
constexpr double kArrivalWindowFactor = 4.0;
// Mean fair share of the sessions active at once: inside the 350-3000 kbps
// ladder, so the link is contended.
constexpr double kFairShareKbps = 1300.0;
constexpr double kTimeStepS = 0.02;
// Set-ups timed per run, spread over the untimed pass.
constexpr int kSetups = 16;

struct Fleet {
  abr::media::VideoManifest manifest;
  abr::qoe::QoeModel qoe;
  std::vector<abr::trace::ThroughputTrace> links;
  std::vector<abr::core::AlgorithmInstance> instances;
  std::vector<abr::sim::BitrateController*> controllers;
  std::vector<abr::predict::ThroughputPredictor*> predictors;
  abr::sim::MultiPlayerConfig config;
  double table_build_s = 0.0;
};

std::unique_ptr<Fleet> set_up(std::uint64_t seed, Algorithm algorithm) {
  const auto ladder = abr::media::VideoManifest::envivio_default();
  auto fleet = std::unique_ptr<Fleet>(new Fleet{
      abr::media::VideoManifest::cbr(kChunks, kChunkSeconds,
                                     ladder.bitrates_kbps()),
      abr::qoe::QoeModel(abr::media::QualityFunction::identity(),
                         abr::qoe::QoeWeights::balanced()),
      {}, {}, {}, {}, {}, 0.0});
  const double video_s = fleet->manifest.duration_s();

  abr::util::Rng rng(seed);
  const double active = static_cast<double>(kSessions) / kArrivalWindowFactor;
  for (std::size_t k = 0; k < kLinks; ++k) {
    const abr::trace::ThroughputTrace raw =
        abr::trace::FccLikeConfig{}.generate(
            rng, (kArrivalWindowFactor + 2.0) * video_s,
            "fleet-link-" + std::to_string(k));
    fleet->links.push_back(
        raw.scaled(kFairShareKbps * active / raw.mean_kbps()));
  }

  abr::core::AlgorithmOptions algorithm_options;
  if (algorithm == Algorithm::kFastMpc) {
    const Clock::time_point start = Clock::now();
    algorithm_options.fastmpc_table = abr::core::default_fastmpc_table(
        fleet->manifest, fleet->qoe, algorithm_options.buffer_capacity_s);
    fleet->table_build_s = seconds_since(start);
  }
  fleet->instances.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    fleet->instances.push_back(abr::core::make_algorithm(
        algorithm, fleet->manifest, fleet->qoe, algorithm_options));
    fleet->controllers.push_back(fleet->instances.back().controller.get());
    fleet->predictors.push_back(fleet->instances.back().predictor.get());
  }
  fleet->config.time_step_s = kTimeStepS;
  fleet->config.startup_stagger_s =
      kArrivalWindowFactor * video_s / static_cast<double>(kSessions);
  return fleet;
}

/// Outcome of one fleet simulation that the benchmark keeps.
struct Repetition {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU (the engine runs on this thread)
  std::uint64_t fingerprint = 0;  ///< decisions + per-session QoE + chunks
  double mean_level = 0.0;
  double retained_kb = 0.0;  ///< RSS growth while the result is alive
};

Repetition simulate_once(
    const Fleet& fleet, std::size_t link,
    std::span<abr::sim::BitrateController* const> controllers,
    std::span<abr::predict::ThroughputPredictor* const> predictors,
    RunResult& result) {
  const double rss_before_kb = current_rss_kb();
  const double cpu_start = process_cpu_s();
  const Clock::time_point start = Clock::now();
  const abr::sim::MultiPlayerResult outcome =
      abr::sim::simulate_shared_link_soa(fleet.links[link], fleet.manifest,
                                         fleet.qoe, fleet.config, controllers,
                                         predictors);
  Repetition rep;
  rep.wall_s = seconds_since(start);
  rep.cpu_s = process_cpu_s() - cpu_start;
  rep.retained_kb = current_rss_kb() - rss_before_kb;

  Fingerprint print;
  std::size_t levels = 0;
  std::size_t total_chunks = 0;
  result.attempted += outcome.players.size();
  for (std::size_t i = 0; i < outcome.players.size(); ++i) {
    const abr::sim::SessionResult& session = outcome.players[i];
    bool whole = session.chunks.size() == kChunks &&
                 session.skipped_chunks == 0 && session.degraded_chunks == 0;
    for (const abr::sim::ChunkRecord& chunk : session.chunks) {
      whole = whole && !chunk.skipped && !chunk.degraded;
      print.add(chunk.level);
      levels += chunk.level;
    }
    print.add_double(session.qoe);
    total_chunks += session.chunks.size();
    if (!whole) {
      result.fail(1, "fleet session " + std::to_string(i) + " has " +
                         std::to_string(session.chunks.size()) +
                         " chunks or skipped/degraded ones");
    }
  }
  print.add(total_chunks);
  rep.fingerprint = print.value();
  rep.mean_level = total_chunks == 0 ? 0.0
                                     : static_cast<double>(levels) /
                                           static_cast<double>(total_chunks);
  if (outcome.players.size() != kSessions) {
    result.fail(kSessions, "fleet returned " +
                               std::to_string(outcome.players.size()) +
                               " sessions");
  }
  // Capacity conservation; 1e-9 absorbs floating-point accumulation only.
  if (!(outcome.link_utilization <= 1.0 + 1e-9)) {
    std::ostringstream why;
    why << "link_utilization " << outcome.link_utilization << " > 1";
    result.fail(outcome.players.size(), why.str());
  }
  return rep;
}

/// Repetitions per link, index = link.
using Rounds = std::vector<std::vector<Repetition>>;

/// Simulates every link in turn until `budget_s` has passed (at least two
/// rounds). `expected` holds each link's fingerprint (0 = take the first).
/// After each round, `between_rounds` gets the round's process CPU seconds.
Rounds repeat(const Fleet& fleet,
              std::span<abr::sim::BitrateController* const> controllers,
              std::span<abr::predict::ThroughputPredictor* const> predictors,
              double budget_s, std::vector<std::uint64_t>& expected,
              RunResult& result, Probes* probes,
              const std::function<void(double)>& between_rounds) {
  Rounds rounds(kLinks);
  expected.resize(kLinks, 0);
  const Clock::time_point start = Clock::now();
  while (rounds[0].size() < 2 || seconds_since(start) < budget_s) {
    double round_cpu_s = 0.0;
    for (std::size_t k = 0; k < kLinks; ++k) {
      const std::int64_t span =
          probes != nullptr ? probes->spans.open("sim.fleet", k, -1) : -1;
      if (probes != nullptr) probes->parent_span = span;
      rounds[k].push_back(
          simulate_once(fleet, k, controllers, predictors, result));
      if (probes != nullptr) probes->spans.close(span);
      round_cpu_s += rounds[k].back().cpu_s;
      if (expected[k] == 0) expected[k] = rounds[k].back().fingerprint;
      if (rounds[k].back().fingerprint != expected[k]) {
        result.fail(kSessions, "fleet on link " + std::to_string(k) +
                                   " changed its decisions or QoE");
      }
    }
    between_rounds(round_cpu_s);
  }
  return rounds;
}

/// Wall seconds one round of all links takes, each link at its fastest
/// repetition. Other tenants of the host only ever slow a repetition down,
/// so the minimum is the estimate of what the code itself costs.
double fastest_round_s(const Rounds& rounds) {
  double total = 0.0;
  for (const std::vector<Repetition>& reps : rounds) {
    double best = reps.front().wall_s;
    for (const Repetition& rep : reps) best = std::min(best, rep.wall_s);
    total += best;
  }
  return total;
}

}  // namespace

RunResult run_fleet(const RunOptions& options, Algorithm algorithm) {
  RunResult result;

  // Untimed pass: no wrappers, registry off (its default).
  const double untimed_budget = options.trace ? options.seconds / 2.0
                                              : options.seconds;

  // The calibration kernel runs before the fleet exists and after every
  // round of the untimed pass; each round's CPU time is scaled by the
  // kernel run that follows it. Set-up is timed once up front (the fleet
  // measured below) and again right after a kernel run, at most every
  // `spacing_s`.
  Calibration calibration;
  calibration.sample();
  std::vector<double> setup_s;
  std::vector<double> table_s;
  std::unique_ptr<Fleet> fleet;
  setup_s.push_back(calibration.to_reference(setup_cpu_s([&] {
    fleet = set_up(options.seed, algorithm);
    table_s.push_back(fleet->table_build_s);
  })));
  const double spacing_s = untimed_budget / kSetups;
  Clock::time_point last_setup = Clock::now();
  std::vector<double> round_cpu_s;
  std::vector<double> round_reference_s;
  const auto between_rounds = [&](double cpu_s) {
    calibration.sample();
    round_cpu_s.push_back(cpu_s);
    round_reference_s.push_back(calibration.to_reference(cpu_s));
    if (seconds_since(last_setup) < spacing_s) return;
    setup_s.push_back(calibration.to_reference(setup_cpu_s([&] {
      table_s.push_back(set_up(options.seed, algorithm)->table_build_s);
    })));
    last_setup = Clock::now();
  };

  std::vector<std::uint64_t> expected;
  const Rounds plain =
      repeat(*fleet, fleet->controllers, fleet->predictors, untimed_budget,
             expected, result, nullptr, between_rounds);
  result.metrics["setup_s"] = median(setup_s);
  result.metrics["core.table.build_s"] = median(table_s);
  const double round_s = fastest_round_s(plain);
  double mean_level = 0.0;
  for (const std::vector<Repetition>& reps : plain) {
    mean_level += reps.front().mean_level / static_cast<double>(kLinks);
  }
  const double sessions = static_cast<double>(kSessions);
  const double round_sessions = sessions * static_cast<double>(kLinks);
  // CPU, not wall: time the hypervisor steals from the vCPU is not the
  // code's cost.
  result.metrics["cpu_us_per_op"] =
      median(round_reference_s) * 1e6 / round_sessions;
  result.metrics["sim.sessions_per_s"] = round_sessions / round_s;
  result.metrics["peak_rss_mb"] =
      (peak_rss_kb() - calibration.resident_kb()) / 1024.0;
  result.metrics["sim.rss_kb_per_session"] =
      plain.front().front().retained_kb / sessions;

  std::ostringstream note;
  note << "fleet: " << kSessions << " sessions x " << kChunks << " chunks on "
       << kLinks << " links, mean rung " << mean_level << ", "
       << plain.front().size() << " rounds, fastest round " << round_s
       << " s wall, median " << median(round_cpu_s)
       << " s CPU; calibration kernel " << calibration.median_s()
       << " s (reference " << Calibration::kReferenceS << " s)";
  result.notes.push_back(note.str());

  if (!options.trace) return result;

  // Traced pass: every controller and predictor behind a timing decorator,
  // the global registry on for abr_fleet_step_latency_us.
  Probes probes;
  std::vector<std::unique_ptr<TimedController>> timed_controllers;
  std::vector<std::unique_ptr<TimedPredictor>> timed_predictors;
  std::vector<abr::sim::BitrateController*> controllers;
  std::vector<abr::predict::ThroughputPredictor*> predictors;
  for (std::size_t i = 0; i < kSessions; ++i) {
    // About four sampled sessions keep full spans.
    const bool keep = sampled(options.seed, i, kSessions / 4);
    timed_controllers.push_back(std::make_unique<TimedController>(
        *fleet->controllers[i], probes, i, keep));
    timed_predictors.push_back(std::make_unique<TimedPredictor>(
        *fleet->predictors[i], probes, i, keep));
    controllers.push_back(timed_controllers.back().get());
    predictors.push_back(timed_predictors.back().get());
  }
  abr::obs::MetricsRegistry& registry = abr::obs::MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  const Rounds traced = repeat(*fleet, controllers, predictors,
                               options.seconds / 2.0, expected, result, &probes,
                               [](double) {});
  registry.set_enabled(false);

  // Per-layer figures are per round (one fleet on every link).
  const auto n = static_cast<double>(traced.front().size());
  double traced_wall = 0.0;
  for (const std::vector<Repetition>& reps : traced) {
    for (const Repetition& rep : reps) traced_wall += rep.wall_s;
  }
  const LatencySummary decide = summarize(probes.decide.samples_us);
  const LatencySummary predict = summarize(probes.predict.samples_us);
  const double decisions = static_cast<double>(
      std::max<std::uint64_t>(1, probes.telemetry_decisions));

  result.metrics["core.decide.calls"] =
      static_cast<double>(probes.decide.calls) / n;
  result.metrics["core.decide.busy_s"] = probes.decide.busy_s() / n;
  result.metrics["core.decide.p50_us"] = decide.p50;
  result.metrics["core.decide.p99_us"] = decide.p99;
  result.metrics["core.solver.nodes_per_decision"] =
      static_cast<double>(probes.nodes_expanded) / decisions;
  result.metrics["core.solver.warm_start_frac"] =
      static_cast<double>(probes.warm_starts) / decisions;
  result.metrics["core.table.path_frac"] =
      static_cast<double>(probes.table_lookups) / decisions;
  result.metrics["predict.calls"] =
      static_cast<double>(probes.predict.calls) / n;
  result.metrics["predict.busy_s"] = probes.predict.busy_s() / n;
  result.metrics["predict.p99_us"] = predict.p99;
  result.metrics["sim.engine.self_s"] =
      (traced_wall - probes.decide.busy_s() - probes.predict.busy_s()) / n;
  const abr::obs::MetricsSnapshot snapshot = registry.snapshot();
  if (const auto it = snapshot.histograms.find(abr::obs::kFleetStepLatencyUs);
      it != snapshot.histograms.end()) {
    result.metrics["sim.step.p99_us"] = it->second.p99;
  }
  result.metrics["obs.trace_overhead_frac"] =
      fastest_round_s(traced) / round_s - 1.0;
  result.notes.push_back(
      "traced: " + std::to_string(traced.front().size()) +
      " rounds checked against the untimed fingerprints; decide samples " +
      std::to_string(decide.count) + ", predict samples " +
      std::to_string(predict.count));

  if (!options.spans_out.empty() &&
      !SpanLog::write(options.spans_out, {&probes.spans})) {
    result.fail(0, "cannot write spans to " + options.spans_out);
  }
  return result;
}

}  // namespace perfbench
