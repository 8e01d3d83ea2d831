#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/strings.hpp"

namespace abr::bench {

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next_value = [&](double& out) {
      if (i + 1 >= argc || !util::parse_double(argv[i + 1], out)) {
        std::fprintf(stderr, "missing/invalid value for %s\n", argv[i]);
        std::exit(2);
      }
      ++i;
    };
    double value = 0.0;
    if (arg == "--traces") {
      next_value(value);
      options.traces = static_cast<std::size_t>(value);
    } else if (arg == "--seed") {
      next_value(value);
      options.seed = static_cast<std::uint64_t>(value);
    } else if (arg == "--duration") {
      next_value(value);
      options.duration_s = value;
    } else if (arg == "--help") {
      std::printf(
          "options: --traces N (default 150)  --seed S  --duration D\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return options;
}

std::vector<SessionOutcome> run_dataset(
    core::Algorithm algorithm,
    const std::vector<trace::ThroughputTrace>& traces,
    const Experiment& experiment, const core::AlgorithmOptions& options,
    const std::vector<double>& optimal_qoe) {
  auto instance = core::make_algorithm(algorithm, experiment.manifest,
                                       experiment.qoe, options);
  std::vector<SessionOutcome> outcomes;
  outcomes.reserve(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SessionOutcome outcome;
    outcome.result =
        sim::simulate(traces[i], experiment.manifest, experiment.qoe,
                      experiment.session, *instance.controller,
                      *instance.predictor);
    if (!optimal_qoe.empty()) {
      outcome.optimal_qoe = optimal_qoe[i];
      outcome.normalized_qoe =
          core::normalized_qoe(outcome.result.qoe, optimal_qoe[i]);
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

std::vector<double> compute_optimal_qoe(
    const std::vector<trace::ThroughputTrace>& traces,
    const Experiment& experiment) {
  const core::OfflineOptimalPlanner planner(experiment.manifest,
                                            experiment.qoe,
                                            experiment.session);
  std::vector<double> optimal(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    optimal[i] = planner.plan(traces[i]).qoe;
  }
  return optimal;
}

void print_cdf_curve(const std::string& label, const util::Cdf& cdf,
                     double lo, double hi, std::size_t points) {
  std::printf("# CDF %s\n", label.c_str());
  for (const auto& [x, fraction] : cdf.curve(lo, hi, points)) {
    std::printf("%-28s %10.3f %8.4f\n", label.c_str(), x, fraction);
  }
}

void print_summary_header(const std::string& metric) {
  std::printf("%-14s %10s %10s %10s %10s %10s %10s   (%s)\n", "algorithm",
              "p10", "p25", "median", "p75", "p90", "mean", metric.c_str());
  print_table_rule(7);
}

void print_summary_row(const std::string& label, const util::Cdf& cdf) {
  if (cdf.empty()) {
    std::printf("%-14s (no samples)\n", label.c_str());
    return;
  }
  std::printf("%-14s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
              label.c_str(), cdf.percentile(10), cdf.percentile(25),
              cdf.median(), cdf.percentile(75), cdf.percentile(90),
              cdf.mean());
}

void print_table_rule(std::size_t columns) {
  for (std::size_t i = 0; i < 14 + columns * 11; ++i) std::putchar('-');
  std::putchar('\n');
}

bool extract_number(const std::string& json, const std::string& key,
                    double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(json.c_str() + pos + needle.size(), nullptr);
  return true;
}

bool check_against_baseline(const char* tool, const std::string& baseline,
                            std::span<const GatedMetric> metrics) {
  bool ok = true;
  for (const GatedMetric& metric : metrics) {
    double expected = 0.0;
    if (!extract_number(baseline, metric.key, &expected)) {
      std::fprintf(stderr, "%s: baseline missing %s\n", tool, metric.key);
      ok = false;
      continue;
    }
    if (std::abs(metric.value - expected) >
        metric.tolerance * std::abs(expected)) {
      std::fprintf(stderr,
                   "%s: FAIL %s = %.17g drifted from baseline %.17g "
                   "(tolerance %g%%)\n",
                   tool, metric.key, metric.value, expected,
                   metric.tolerance * 100.0);
      ok = false;
    }
  }
  return ok;
}

}  // namespace abr::bench
