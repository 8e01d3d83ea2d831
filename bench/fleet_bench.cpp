// Fleet-scale soak harness for the shared-link simulator
// (BENCH_fleet.json).
//
// Simulates a rolling-arrival fleet of N sessions on one shared link —
// joins staggered across an arrival window, every session streaming the
// same CBR ladder with a fixed rung — and reports:
//
//   - sessions/sec        (N / simulation wall time)
//   - p99 step latency    (abr_fleet_step_latency_us histogram)
//   - peak RSS            (getrusage ru_maxrss)
//   - deterministic outcome checksums (chunks, QoE sum, Jain, utilization)
//
// The deterministic metrics are gated hard against --baseline (the outcome
// of the soak is a pure function of the config); sessions/sec is gated
// loosely (--min-sessions-frac, default 0.25x baseline) so a noisy CI box
// does not flake while a real 4x regression still fails. The checksums hold
// for the baseline's session count only: with --baseline, --sessions
// defaults to the baseline's `config.sessions`, and a different explicit
// count is refused before anything is simulated.
//
// Usage:
//   fleet_bench [--sessions N] [--out FILE] [--baseline FILE]
//               [--min-sessions-frac F] [--chunks N] [--chunk-duration S]
//               [--dt S] [--arrival-window-factor F] [--link-kbps-per-session K]

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "media/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "predict/predictor.hpp"
#include "qoe/qoe.hpp"
#include "sim/multiplayer.hpp"
#include "trace/throughput_trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::size_t sessions = 1000000;
  bool sessions_given = false;  ///< --sessions was on the command line
  std::string out = "BENCH_fleet.json";
  std::string baseline;
  double min_sessions_frac = 0.25;
  std::size_t chunks = 32;
  double chunk_duration_s = 4.0;
  double dt_s = 0.02;
  double arrival_window_factor = 2.0;
  double link_kbps_per_session = 3000.0;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "fleet_bench: missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--sessions") {
      options.sessions = std::stoul(next());
      options.sessions_given = true;
    } else if (flag == "--out") {
      options.out = next();
    } else if (flag == "--baseline") {
      options.baseline = next();
    } else if (flag == "--min-sessions-frac") {
      options.min_sessions_frac = std::stod(next());
    } else if (flag == "--chunks") {
      options.chunks = std::stoul(next());
    } else if (flag == "--chunk-duration") {
      options.chunk_duration_s = std::stod(next());
    } else if (flag == "--dt") {
      options.dt_s = std::stod(next());
    } else if (flag == "--arrival-window-factor") {
      options.arrival_window_factor = std::stod(next());
    } else if (flag == "--link-kbps-per-session") {
      options.link_kbps_per_session = std::stod(next());
    } else {
      std::cerr << "fleet_bench: unknown flag " << flag << "\n";
      std::exit(2);
    }
  }
  if (options.sessions == 0) {
    std::cerr << "fleet_bench: bad --sessions\n";
    std::exit(2);
  }
  return options;
}

/// Every session streams one fixed rung; the fleet mixes rungs round-robin.
class FixedRungController final : public abr::sim::BitrateController {
 public:
  explicit FixedRungController(std::size_t level) : level_(level) {}
  std::size_t decide(const abr::sim::AbrState&,
                     const abr::media::VideoManifest&) override {
    return level_;
  }
  std::string name() const override { return "fixed"; }

 private:
  std::size_t level_;
};

class FlatPredictor final : public abr::predict::ThroughputPredictor {
 public:
  explicit FlatPredictor(double kbps) : kbps_(kbps) {}
  std::vector<double> predict(const abr::predict::PredictionInput&,
                              std::size_t horizon) override {
    return std::vector<double>(horizon, kbps_);
  }
  std::string name() const override { return "flat"; }

 private:
  double kbps_;
};

struct SoakOutcome {
  double wall_s = 0.0;
  double sessions_per_sec = 0.0;
  std::size_t total_chunks = 0;
  double qoe_sum = 0.0;
  double jain = 0.0;
  double link_utilization = 0.0;
};

SoakOutcome run_soak(const Options& options) {
  const auto ladder = abr::media::VideoManifest::envivio_default();
  const auto manifest = abr::media::VideoManifest::cbr(
      options.chunks, options.chunk_duration_s, ladder.bitrates_kbps());
  const abr::qoe::QoeModel qoe(abr::media::QualityFunction::identity(),
                               abr::qoe::QoeWeights::balanced());
  const std::size_t n = options.sessions;
  const auto link = abr::trace::ThroughputTrace::constant(
      options.link_kbps_per_session * static_cast<double>(n), 1000.0);

  std::vector<std::unique_ptr<FixedRungController>> controllers;
  std::vector<std::unique_ptr<FlatPredictor>> predictors;
  std::vector<abr::sim::BitrateController*> controller_ptrs;
  std::vector<abr::predict::ThroughputPredictor*> predictor_ptrs;
  controllers.reserve(n);
  predictors.reserve(n);
  controller_ptrs.reserve(n);
  predictor_ptrs.reserve(n);
  const std::size_t levels = manifest.level_count();
  for (std::size_t i = 0; i < n; ++i) {
    controllers.push_back(std::make_unique<FixedRungController>(i % levels));
    predictors.push_back(
        std::make_unique<FlatPredictor>(options.link_kbps_per_session));
    controller_ptrs.push_back(controllers.back().get());
    predictor_ptrs.push_back(predictors.back().get());
  }

  abr::sim::MultiPlayerConfig config;
  config.time_step_s = options.dt_s;
  config.startup_stagger_s = options.arrival_window_factor *
                             manifest.duration_s() / static_cast<double>(n);

  const std::span<abr::sim::BitrateController* const> cs(controller_ptrs);
  const std::span<abr::predict::ThroughputPredictor* const> ps(predictor_ptrs);
  const auto start = Clock::now();
  const abr::sim::MultiPlayerResult result =
      abr::sim::simulate_shared_link(link, manifest, qoe, config, cs, ps);
  SoakOutcome outcome;
  outcome.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  outcome.sessions_per_sec = static_cast<double>(n) / outcome.wall_s;
  for (const abr::sim::SessionResult& player : result.players) {
    outcome.total_chunks += player.chunks.size();
    outcome.qoe_sum += player.qoe;
  }
  outcome.jain = result.jain_fairness;
  outcome.link_utilization = result.link_utilization;
  return outcome;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

/// A gated outcome value at full precision (%.17g round-trips a double), so
/// the baseline gate compares the values the run produced, not a rounding.
std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Reads the whole baseline file; false when it cannot be read.
bool read_baseline(const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse_options(argc, argv);
  bool failed = false;

  std::string baseline;
  if (!options.baseline.empty()) {
    if (!read_baseline(options.baseline, &baseline)) {
      std::cerr << "fleet_bench: cannot read baseline " << options.baseline
                << "\n";
      return 2;
    }
    // The outcome checksums are a function of the session count, so the
    // run must simulate the count the baseline was recorded at.
    double baseline_sessions = 0.0;
    if (!abr::bench::extract_number(baseline, "sessions",
                                    &baseline_sessions) ||
        !(baseline_sessions >= 1.0)) {
      std::cerr << "fleet_bench: baseline missing config.sessions\n";
      return 2;
    }
    const auto recorded = static_cast<std::size_t>(baseline_sessions);
    if (!options.sessions_given) {
      options.sessions = recorded;
    } else if (options.sessions != recorded) {
      std::cerr << "fleet_bench: --sessions " << options.sessions
                << " differs from the baseline's " << recorded
                << " sessions; its checksums hold only for " << recorded
                << "\n";
      return 2;
    }
  }

  abr::obs::MetricsRegistry& registry = abr::obs::MetricsRegistry::global();
  registry.set_enabled(true);
  registry.reset();
  const SoakOutcome soak = run_soak(options);
  const abr::obs::HistogramSnapshot step_latency =
      registry.histogram(abr::obs::kFleetStepLatencyUs).snapshot();
  const double rss_mb = peak_rss_mb();

  std::ostringstream json;
  json << "{\n";
  json << "  \"config\": {\"sessions\": " << options.sessions
       << ", \"chunks\": " << options.chunks
       << ", \"chunk_duration_s\": " << options.chunk_duration_s
       << ", \"dt_s\": " << options.dt_s
       << ", \"arrival_window_factor\": " << options.arrival_window_factor
       << ", \"link_kbps_per_session\": " << options.link_kbps_per_session
       << "},\n";
  json << "  \"soak\": {\n";
  json << "    \"wall_s\": " << soak.wall_s << ",\n";
  json << "    \"sessions_per_sec\": " << soak.sessions_per_sec << ",\n";
  json << "    \"p50_step_us\": " << step_latency.p50 << ",\n";
  json << "    \"p99_step_us\": " << step_latency.p99 << ",\n";
  json << "    \"steps\": " << step_latency.count << ",\n";
  json << "    \"peak_rss_mb\": " << rss_mb << ",\n";
  json << "    \"total_chunks\": "
       << exact(static_cast<double>(soak.total_chunks)) << ",\n";
  json << "    \"qoe_sum\": " << exact(soak.qoe_sum) << ",\n";
  json << "    \"jain_fairness\": " << exact(soak.jain) << ",\n";
  json << "    \"link_utilization\": " << exact(soak.link_utilization)
       << "\n";
  json << "  }\n}\n";

  std::ofstream out(options.out);
  out << json.str();
  if (!out) {
    std::cerr << "fleet_bench: cannot write " << options.out << "\n";
    return 2;
  }
  std::cout << json.str();

  if (!options.baseline.empty()) {
    // Deterministic outcome metrics: hard gate (pure function of config).
    const abr::bench::GatedMetric metrics[] = {
        {"total_chunks", static_cast<double>(soak.total_chunks), 0.0},
        {"qoe_sum", soak.qoe_sum, 1e-6},
        {"jain_fairness", soak.jain, 1e-9},
        {"link_utilization", soak.link_utilization, 1e-9},
    };
    if (!abr::bench::check_against_baseline("fleet_bench", baseline,
                                            metrics)) {
      failed = true;
    }

    // Throughput: loose gate against the committed baseline.
    double baseline_rate = 0.0;
    if (abr::bench::extract_number(baseline, "sessions_per_sec",
                                   &baseline_rate) &&
        baseline_rate > 0.0) {
      if (soak.sessions_per_sec < options.min_sessions_frac * baseline_rate) {
        std::cerr << "fleet_bench: FAIL sessions/sec "
                  << soak.sessions_per_sec << " < "
                  << options.min_sessions_frac << "x baseline "
                  << baseline_rate << "\n";
        failed = true;
      }
    } else {
      std::cerr << "fleet_bench: baseline missing sessions_per_sec\n";
      failed = true;
    }
  }

  if (failed) return 1;
  std::cout << "fleet_bench: OK (" << soak.sessions_per_sec
            << " sessions/sec, p99 step " << step_latency.p99 << " us, peak "
            << rss_mb << " MB)\n";
  return 0;
}
