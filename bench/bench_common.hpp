#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "core/offline_optimal.hpp"
#include "media/manifest.hpp"
#include "qoe/qoe.hpp"
#include "sim/player.hpp"
#include "trace/generators.hpp"
#include "util/stats.hpp"

namespace abr::bench {

/// Command-line knobs shared by every experiment binary.
///
///   --traces N      traces per dataset (default 150; the paper uses 1000 —
///                   pass --traces 1000 to match at ~6x the runtime)
///   --seed S        dataset RNG seed (default 20150817, the paper's
///                   publication date)
///   --duration D    trace length in seconds (default 320)
struct BenchOptions {
  std::size_t traces = 150;
  std::uint64_t seed = 20150817;
  double duration_s = 320.0;

  static BenchOptions parse(int argc, char** argv);
};

/// The paper's standard experiment fixture: Envivio video, balanced QoE
/// weights, Bmax = 30 s.
struct Experiment {
  media::VideoManifest manifest = media::VideoManifest::envivio_default();
  qoe::QoeModel qoe{media::QualityFunction::identity(),
                    qoe::QoeWeights::balanced()};
  sim::SessionConfig session;
};

/// Per-(algorithm, trace) outcome enriched with the trace's offline optimum.
struct SessionOutcome {
  sim::SessionResult result;
  double optimal_qoe = 0.0;
  double normalized_qoe = 0.0;
};

/// Runs one algorithm over a whole dataset. `optimal_qoe[i]` must align with
/// traces[i] (pass an empty vector to skip normalization).
std::vector<SessionOutcome> run_dataset(
    core::Algorithm algorithm, const std::vector<trace::ThroughputTrace>& traces,
    const Experiment& experiment, const core::AlgorithmOptions& options,
    const std::vector<double>& optimal_qoe);

/// Computes QoE(OPT) for every trace with the default beam planner.
std::vector<double> compute_optimal_qoe(
    const std::vector<trace::ThroughputTrace>& traces,
    const Experiment& experiment);

/// Prints a CDF as rows "x F(x)" at `points` evenly spaced x values, in a
/// column labelled `label` (the textual equivalent of one figure line).
void print_cdf_curve(const std::string& label, const util::Cdf& cdf,
                     double lo, double hi, std::size_t points);

/// Prints one summary row: label, p10/p25/median/p75/p90, mean.
void print_summary_row(const std::string& label, const util::Cdf& cdf);
void print_summary_header(const std::string& metric);

/// Markdown-style table separator helpers.
void print_table_rule(std::size_t columns);

/// Pulls `"key": <number>` out of a flat JSON text. Good enough for reading
/// our own baseline files without a JSON dependency.
bool extract_number(const std::string& json, const std::string& key,
                    double* out);

/// One value gated against a committed baseline.
struct GatedMetric {
  const char* key;
  double value;
  double tolerance;  ///< allowed drift, relative to |baseline value|
};

/// Checks each metric against the same key in `baseline` (flat JSON text).
/// Prints "<tool>: FAIL ..." to stderr for every missing key or drift
/// beyond tolerance * |expected|, and returns false if any was found.
bool check_against_baseline(const char* tool, const std::string& baseline,
                            std::span<const GatedMetric> metrics);

}  // namespace abr::bench
