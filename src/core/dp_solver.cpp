#include "core/dp_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace abr::core {

const char* solver_backend_name(SolverBackend backend) {
  switch (backend) {
    case SolverBackend::kBranchAndBound: return "branch-and-bound";
    case SolverBackend::kValueIteration: return "value-iteration";
  }
  return "?";
}

DpHorizonSolver::DpHorizonSolver(const media::VideoManifest& manifest,
                                 const qoe::QoeModel& qoe,
                                 DpSolverConfig config)
    : manifest_(&manifest),
      qoe_(&qoe),
      config_(config),
      chunk_duration_s_(manifest.chunk_duration_s()),
      bnb_(manifest, qoe) {
  if (config_.buffer_bins == 0) {
    throw std::invalid_argument("DpSolverConfig: zero buffer_bins");
  }
  const std::size_t levels = manifest.level_count();
  const double lambda = qoe.weights().lambda;
  level_quality_.resize(levels);
  for (std::size_t level = 0; level < levels; ++level) {
    level_quality_[level] = qoe.quality(manifest.bitrate_kbps(level));
  }
  switch_cost_.resize(levels * levels);
  for (std::size_t level = 0; level < levels; ++level) {
    for (std::size_t prev = 0; prev < levels; ++prev) {
      switch_cost_[level * levels + prev] =
          lambda * std::abs(level_quality_[level] - level_quality_[prev]);
    }
  }
}

std::size_t DpHorizonSolver::prepare(std::span<const double> forecast,
                                     std::size_t first_chunk) const {
  if (first_chunk >= manifest_->chunk_count()) {
    throw std::invalid_argument("HorizonProblem: first_chunk out of range");
  }
  const std::size_t horizon =
      std::min(forecast.size(), manifest_->chunk_count() - first_chunk);
  if (horizon == 0) {
    throw std::invalid_argument("HorizonProblem: empty horizon");
  }
  for (std::size_t i = 0; i < horizon; ++i) {
    if (!(forecast[i] > 0.0)) {
      throw std::invalid_argument("HorizonProblem: non-positive forecast");
    }
  }
  return horizon;
}

std::size_t DpHorizonSolver::build_values(std::span<const double> forecast,
                                          std::size_t first_chunk,
                                          std::size_t horizon,
                                          double buffer_capacity_s,
                                          const util::LinearBinner& binner) {
  const std::size_t levels = level_quality_.size();
  const qoe::QoeWeights& w = qoe_->weights();
  const std::size_t bins = config_.buffer_bins;

  download_s_.resize(horizon * levels);
  for (std::size_t depth = 0; depth < horizon; ++depth) {
    const std::size_t chunk = first_chunk + depth;
    for (std::size_t level = 0; level < levels; ++level) {
      download_s_[depth * levels + level] =
          manifest_->chunk_kilobits(chunk, level) / forecast[depth];
    }
  }

  const std::size_t stride = bins * levels;
  values_.assign(horizon > 1 ? (horizon - 1) * stride : 0, 0.0);
  std::size_t evaluations = 0;

  // Backward pass over depths [1, horizon): every state there has a previous
  // level (depth 0 made one), so has_prev is unconditionally true.
  for (std::size_t depth = horizon; depth-- > 1;) {
    double* v_here = &values_[(depth - 1) * stride];
    const double* v_next =
        depth + 1 < horizon ? &values_[depth * stride] : nullptr;
    const double* downloads = &download_s_[depth * levels];
    for (std::size_t b = 0; b < bins; ++b) {
      const double buffer = binner.center(b);
      for (std::size_t prev = 0; prev < levels; ++prev) {
        double best = -std::numeric_limits<double>::infinity();
        for (std::size_t level = 0; level < levels; ++level) {
          ++evaluations;
          const double download_s = downloads[level];
          const double rebuffer = std::max(0.0, download_s - buffer);
          const double next_buffer =
              std::min(std::max(buffer - download_s, 0.0) + chunk_duration_s_,
                       buffer_capacity_s);
          double value = level_quality_[level] - w.mu * rebuffer -
                         (rebuffer > 0.0 ? w.mu_event : 0.0) -
                         switch_cost_[level * levels + prev];
          if (v_next != nullptr) {
            value += v_next[binner.bin(next_buffer) * levels + level];
          }
          best = std::max(best, value);
        }
        v_here[b * levels + prev] = best;
      }
    }
  }
  return evaluations;
}

double DpHorizonSolver::action_value(std::size_t depth, std::size_t horizon,
                                     double buffer_s, std::size_t prev_level,
                                     bool has_prev, std::size_t level,
                                     double buffer_capacity_s,
                                     const util::LinearBinner& binner,
                                     double* next_buffer_out) const {
  const std::size_t levels = level_quality_.size();
  const qoe::QoeWeights& w = qoe_->weights();
  const double download_s = download_s_[depth * levels + level];
  const double rebuffer = std::max(0.0, download_s - buffer_s);
  const double next_buffer =
      std::min(std::max(buffer_s - download_s, 0.0) + chunk_duration_s_,
               buffer_capacity_s);
  double value = level_quality_[level] - w.mu * rebuffer -
                 (rebuffer > 0.0 ? w.mu_event : 0.0);
  if (has_prev) {
    value -= switch_cost_[level * levels + prev_level];
  }
  if (depth + 1 < horizon) {
    // Successor depth d+1 lives at row d of values_ (rows cover [1, horizon)).
    const std::size_t stride = config_.buffer_bins * levels;
    value += values_[depth * stride + binner.bin(next_buffer) * levels + level];
  }
  if (next_buffer_out != nullptr) *next_buffer_out = next_buffer;
  return value;
}

HorizonSolution DpHorizonSolver::solve(const HorizonProblem& problem) {
  const std::size_t horizon =
      prepare(problem.predicted_kbps, problem.first_chunk);
  const std::size_t levels = level_quality_.size();
  const util::LinearBinner binner(0.0, problem.buffer_capacity_s,
                                  config_.buffer_bins);

  std::size_t evaluations =
      build_values(problem.predicted_kbps, problem.first_chunk, horizon,
                   problem.buffer_capacity_s, binner);

  // Forward walk on the exact (unbinned) buffer: at each depth, commit to
  // the action maximizing immediate value + grid value-to-go. Ties break
  // toward the higher rung, matching the branch-and-bound search order.
  HorizonSolution solution;
  solution.levels.resize(horizon);
  double buffer = problem.buffer_s;
  std::size_t prev = problem.prev_level;
  bool has_prev = problem.has_prev;
  double objective = 0.0;
  const qoe::QoeWeights& w = qoe_->weights();
  for (std::size_t depth = 0; depth < horizon; ++depth) {
    std::size_t best_level = levels - 1;
    double best_value = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < levels; ++i) {
      const std::size_t level = levels - 1 - i;
      ++evaluations;
      const double value =
          action_value(depth, horizon, buffer, prev, has_prev, level,
                       problem.buffer_capacity_s, binner, nullptr);
      if (value > best_value) {
        best_value = value;
        best_level = level;
      }
    }
    // Re-evaluate the committed step exactly to accumulate the true
    // objective (action_value mixes in the approximate value-to-go).
    const double download_s = download_s_[depth * levels + best_level];
    const double rebuffer = std::max(0.0, download_s - buffer);
    double step = level_quality_[best_level] - w.mu * rebuffer -
                  (rebuffer > 0.0 ? w.mu_event : 0.0);
    if (has_prev) {
      step -= switch_cost_[best_level * levels + prev];
    }
    objective += step;
    buffer = std::min(std::max(buffer - download_s, 0.0) + chunk_duration_s_,
                      problem.buffer_capacity_s);
    solution.levels[depth] = best_level;
    prev = best_level;
    has_prev = true;
  }
  solution.objective = objective;
  solution.nodes_expanded = evaluations;

  if (config_.cross_check) {
    HorizonProblem exact = problem;
    exact.warm_hint = {};
    const HorizonSolution reference = bnb_.solve(exact, bnb_workspace_);
    const double gap = reference.objective - solution.objective;
    ++cross_check_stats_.solves;
    cross_check_stats_.max_gap = std::max(cross_check_stats_.max_gap, gap);
    if (reference.levels.front() == solution.levels.front()) {
      ++cross_check_stats_.first_decision_matches;
    }
    constexpr double kEps = 1e-9;
    if (gap < -kEps || gap > tolerance_bound(problem) + kEps) {
      ++cross_check_stats_.violations;
    }
  }
  return solution;
}

double DpHorizonSolver::plan_objective(
    const HorizonProblem& problem, std::span<const std::size_t> levels) const {
  const std::size_t horizon =
      std::min(problem.predicted_kbps.size(),
               manifest_->chunk_count() - problem.first_chunk);
  if (levels.size() != horizon) {
    throw std::invalid_argument("plan_objective: plan/horizon length mismatch");
  }
  const std::size_t level_count = level_quality_.size();
  const qoe::QoeWeights& w = qoe_->weights();
  double value = 0.0;
  double buffer = problem.buffer_s;
  std::size_t prev = problem.prev_level;
  bool has_prev = problem.has_prev;
  for (std::size_t depth = 0; depth < horizon; ++depth) {
    const std::size_t level = levels[depth];
    if (level >= level_count) {
      throw std::invalid_argument("plan_objective: level out of range");
    }
    const double download_s =
        manifest_->chunk_kilobits(problem.first_chunk + depth, level) /
        problem.predicted_kbps[depth];
    const double rebuffer = std::max(0.0, download_s - buffer);
    buffer = std::min(std::max(buffer - download_s, 0.0) + chunk_duration_s_,
                      problem.buffer_capacity_s);
    double step = level_quality_[level] - w.mu * rebuffer -
                  (rebuffer > 0.0 ? w.mu_event : 0.0);
    if (has_prev) {
      step -= switch_cost_[level * level_count + prev];
    }
    value += step;
    prev = level;
    has_prev = true;
  }
  return value;
}

double DpHorizonSolver::tolerance_bound(const HorizonProblem& problem) const {
  const std::size_t horizon =
      std::min(problem.predicted_kbps.size(),
               manifest_->chunk_count() - problem.first_chunk);
  const double n = static_cast<double>(horizon);
  const double delta =
      problem.buffer_capacity_s / static_cast<double>(config_.buffer_bins);
  const qoe::QoeWeights& w = qoe_->weights();
  double bound = w.mu * delta * n * (n - 1.0) / 2.0;
  if (w.mu_event > 0.0) bound += 2.0 * (n - 1.0) * w.mu_event;
  return bound;
}

}  // namespace abr::core
