#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/horizon_solver.hpp"
#include "media/manifest.hpp"
#include "qoe/qoe.hpp"
#include "util/binning.hpp"

namespace abr::core {

/// Which algorithm solves the moving-horizon problem.
enum class SolverBackend {
  kBranchAndBound,   ///< exact depth-first search (HorizonSolver)
  kValueIteration,   ///< discretized DP on a buffer grid (DpHorizonSolver)
};

const char* solver_backend_name(SolverBackend backend);

/// Discretization knobs of the value-iteration backend.
struct DpSolverConfig {
  /// Buffer-grid resolution over [0, Bmax]. The suboptimality bound is
  /// proportional to Bmax / buffer_bins (see tolerance_bound), so finer
  /// grids trade memory/time for exactness. 600 keeps the bound small
  /// against the Eq. (5) scale while one backward pass stays ~10^5 ops.
  std::size_t buffer_bins = 600;

  /// Run the exact branch-and-bound solver alongside every solve and track
  /// the objective gap against tolerance_bound(). For tests and the
  /// tournament's exactness gate; never enabled on the hot path.
  bool cross_check = false;
};

/// Approximate HorizonProblem solver by backward value iteration over a
/// discretized buffer grid — the Puffer-style table formulation of the
/// paper's Section 5, applied online.
///
/// States are (depth, buffer bin, previous level); one backward pass costs
/// O(horizon * buffer_bins * levels^2). The returned plan is extracted by a
/// forward walk that keeps the *exact* (unbinned) buffer and consults the
/// grid value function only for the tail, and the reported objective is the
/// exact Eq. (5) value of that plan under the same step recurrence
/// HorizonSolver uses. Hence solve() never overstates its objective, and
///
///   bnb.objective - dp.objective  in  [0, tolerance_bound(problem)]
///
/// is the exactness contract, pinned by tests/dp_solver_test.cpp and the
/// tournament's cross-check gate.
///
/// Derivation of the bound: snapping the successor buffer to its bin center
/// perturbs it by at most delta/2 (delta = Bmax / buffer_bins). The
/// value-to-go with d of N steps remaining is Lipschitz in buffer with
/// constant at most mu * d (only the rebuffer term of each remaining step
/// depends on the buffer, with slope at most mu; the buffer transition
/// itself is 1-Lipschitz; quality and switch terms are buffer-free). The
/// standard approximate-DP argument then bounds the greedy plan's loss by
/// twice the summed per-stage approximation error:
///
///   loss <= 2 * sum_{d=1}^{N-1} (mu * (N - d)) * delta / 2
///         = mu * delta * N * (N - 1) / 2 .
///
/// A positive mu_event adds a jump discontinuity of that size at the
/// rebuffer boundary, contributing a further 2 * (N - 1) * mu_event.
///
/// Everything is a pure function of (manifest, qoe, config, problem): no
/// wall clock, no RNG, so two runs produce bit-identical plans.
class DpHorizonSolver {
 public:
  struct CrossCheckStats {
    std::size_t solves = 0;
    std::size_t violations = 0;        ///< gap outside [-eps, bound + eps]
    std::size_t first_decision_matches = 0;  ///< dp and bnb agree on chunk k
    double max_gap = 0.0;              ///< worst observed bnb - dp objective
  };

  /// The model and manifest must outlive the solver. Not thread-safe across
  /// concurrent solves (owns its scratch); use one instance per thread.
  DpHorizonSolver(const media::VideoManifest& manifest,
                  const qoe::QoeModel& qoe, DpSolverConfig config = {});

  /// Solves by value iteration; ignores HorizonProblem::warm_hint (the DP
  /// pass costs the same either way). Throws on the same malformed inputs
  /// HorizonSolver rejects. nodes_expanded reports (state, action)
  /// evaluations — the DP's deterministic effort unit.
  HorizonSolution solve(const HorizonProblem& problem);

  /// Exact Eq. (5) objective of `levels` under the problem's forecast — the
  /// identical step recurrence HorizonSolver evaluates. Exposed so tests and
  /// the cross-check can score arbitrary plans.
  double plan_objective(const HorizonProblem& problem,
                        std::span<const std::size_t> levels) const;

  /// The guaranteed worst-case suboptimality of solve() for this problem
  /// (see the class comment for the derivation).
  double tolerance_bound(const HorizonProblem& problem) const;

  const DpSolverConfig& config() const { return config_; }
  const CrossCheckStats& cross_check_stats() const {
    return cross_check_stats_;
  }

 private:
  /// Validates the problem shape and returns the clipped horizon length.
  std::size_t prepare(std::span<const double> forecast,
                      std::size_t first_chunk) const;

  /// Fills download_s_ and values_ for the given forecast: values_[(d - 1) *
  /// bins * levels + b * levels + p] is the value-to-go from depth d in
  /// [1, horizon) at buffer bin b having just fetched level p. Returns the
  /// (state, action) evaluations spent.
  std::size_t build_values(std::span<const double> forecast,
                           std::size_t first_chunk, std::size_t horizon,
                           double buffer_capacity_s,
                           const util::LinearBinner& binner);

  /// Value of committing to `level` at `depth` from the exact buffer:
  /// immediate step value plus the grid value-to-go of the successor state.
  double action_value(std::size_t depth, std::size_t horizon, double buffer_s,
                      std::size_t prev_level, bool has_prev, std::size_t level,
                      double buffer_capacity_s,
                      const util::LinearBinner& binner,
                      double* next_buffer_out) const;

  const media::VideoManifest* manifest_;
  const qoe::QoeModel* qoe_;
  DpSolverConfig config_;

  /// Per-level q(R) and lambda-weighted |q_i - q_j|, precomputed like
  /// HorizonSolver's.
  std::vector<double> level_quality_;
  std::vector<double> switch_cost_;  ///< [level * levels + prev_level]
  double chunk_duration_s_ = 0.0;

  // Per-solve scratch (kept at high-water capacity).
  std::vector<double> download_s_;  ///< [depth * levels + level]
  std::vector<double> values_;      ///< see build_values

  /// Cross-check machinery, used only when config_.cross_check.
  HorizonSolver bnb_;
  HorizonSolver::Workspace bnb_workspace_;
  CrossCheckStats cross_check_stats_;
};

}  // namespace abr::core
