#include "core/horizon_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/names.hpp"

namespace abr::core {

bool HorizonSolver::Workspace::Frontier::insert(double buffer, double value) {
  // entries is sorted by buffer strictly descending; because it holds only
  // non-dominated points, value is strictly ascending. The first index whose
  // buffer is < `buffer` splits the set into potential dominators (before)
  // and potential dominatees (after).
  const auto split = std::partition_point(
      entries.begin(), entries.end(),
      [buffer](const Entry& e) { return e.buffer_s >= buffer; });
  // Among entries with buffer >= `buffer`, the last one has the largest
  // value, so one comparison decides dominance.
  if (split != entries.begin() && std::prev(split)->value >= value) {
    return false;
  }
  // Entries after the split have smaller buffers; those with value <= the
  // incoming one are dominated and form a contiguous run (values ascend).
  auto last = split;
  while (last != entries.end() && last->value <= value) ++last;
  if (split == last) {
    entries.insert(split, Entry{buffer, value});
  } else {
    *split = Entry{buffer, value};
    entries.erase(std::next(split), last);
  }
  return true;
}

HorizonSolver::HorizonSolver(const media::VideoManifest& manifest,
                             const qoe::QoeModel& qoe)
    : manifest_(&manifest),
      qoe_(&qoe),
      nodes_histogram_(&obs::MetricsRegistry::global().histogram(
          obs::kHorizonNodesExpanded, "",
          obs::exponential_buckets(1.0, 2.0, 20))) {
  const std::size_t levels = manifest.level_count();
  const double lambda = qoe.weights().lambda;
  level_quality_.resize(levels);
  for (std::size_t level = 0; level < levels; ++level) {
    level_quality_[level] = qoe.quality(manifest.bitrate_kbps(level));
  }
  switch_cost_.resize(levels * levels);
  for (std::size_t level = 0; level < levels; ++level) {
    for (std::size_t prev = 0; prev < levels; ++prev) {
      const double cost =
          lambda * std::abs(level_quality_[level] - level_quality_[prev]);
      switch_cost_[level * levels + prev] = cost;
      max_abs_gain_ =
          std::max(max_abs_gain_, std::abs(level_quality_[level] - cost));
    }
  }
}

HorizonSolution HorizonSolver::solve(const HorizonProblem& problem) const {
  Workspace workspace;
  return solve(problem, workspace);
}

HorizonSolution HorizonSolver::solve(const HorizonProblem& problem,
                                     Workspace& ws) const {
  const media::VideoManifest& manifest = *manifest_;
  const qoe::QoeWeights& w = qoe_->weights();
  const std::size_t levels = manifest.level_count();
  const double chunk_duration = manifest.chunk_duration_s();

  if (problem.first_chunk >= manifest.chunk_count()) {
    throw std::invalid_argument("HorizonProblem: first_chunk out of range");
  }
  const std::size_t horizon =
      std::min(problem.predicted_kbps.size(),
               manifest.chunk_count() - problem.first_chunk);
  if (horizon == 0) {
    throw std::invalid_argument("HorizonProblem: empty horizon");
  }
  for (std::size_t i = 0; i < horizon; ++i) {
    if (!(problem.predicted_kbps[i] > 0.0)) {
      throw std::invalid_argument("HorizonProblem: non-positive forecast");
    }
  }

  // --- Workspace preparation (no allocation once at high-water capacity) --
  ws.download_s_.resize(horizon * levels);
  for (std::size_t depth = 0; depth < horizon; ++depth) {
    const std::size_t chunk = problem.first_chunk + depth;
    const double forecast = problem.predicted_kbps[depth];
    for (std::size_t level = 0; level < levels; ++level) {
      ws.download_s_[depth * levels + level] =
          manifest.chunk_kilobits(chunk, level) / forecast;
    }
  }
  // Admissible bound on what the chunks after a node can still add: the
  // exact best value of r more chunks entered from `level` when rebuffering
  // is ignored (mu and mu_event only ever subtract),
  //   G[0][l] = 0,  G[r][l] = max_n (q_n - lambda|q_n - q_l| + G[r-1][n]),
  // padded with the node-independent part of the rounding slack,
  // kBoundSlack * (r * max_abs_gain_ + 1): one term in row 0, one more per
  // row (a constant added inside the max carries through it).
  const double row_slack = kBoundSlack * max_abs_gain_;
  ws.rest_bound_.assign(horizon * levels, kBoundSlack);
  for (std::size_t rest = 1; rest < horizon; ++rest) {
    const double* below = &ws.rest_bound_[(rest - 1) * levels];
    double* row = &ws.rest_bound_[rest * levels];
    for (std::size_t level = 0; level < levels; ++level) {
      double best = -std::numeric_limits<double>::infinity();
      for (std::size_t next = 0; next < levels; ++next) {
        best = std::max(best, level_quality_[next] -
                                  switch_cost_[next * levels + level] +
                                  below[next]);
      }
      row[level] = best + row_slack;
    }
  }
  if (ws.frontier_.size() < horizon * levels) {
    ws.frontier_.resize(horizon * levels);
  }
  for (std::size_t i = 0; i < horizon * levels; ++i) {
    ws.frontier_[i].entries.clear();
  }
  ws.current_levels_.resize(horizon);
  ws.best_levels_.clear();

  std::size_t nodes_expanded = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  // While false, the incumbent is only a bound (the warm-start hint): the
  // search prunes strictly-worse branches only and accepts ties, so the
  // first search-reached optimum — identical to the cold solve's — always
  // replaces the hint. This keeps warm-started results bit-identical.
  bool search_found = false;

  // --- Warm start: evaluate the hint with the exact step recurrence ------
  if (!problem.warm_hint.empty()) {
    ws.hint_levels_.resize(horizon);
    for (std::size_t depth = 0; depth < horizon; ++depth) {
      const std::size_t level = depth < problem.warm_hint.size()
                                    ? problem.warm_hint[depth]
                                    : ws.hint_levels_[depth - 1];
      if (level >= levels) {
        throw std::invalid_argument("HorizonProblem: warm_hint level range");
      }
      ws.hint_levels_[depth] = level;
    }
    double value = 0.0;
    double buffer = problem.buffer_s;
    std::size_t prev_level = problem.prev_level;
    bool has_prev = problem.has_prev;
    for (std::size_t depth = 0; depth < horizon; ++depth) {
      const std::size_t level = ws.hint_levels_[depth];
      const double download_s = ws.download_s_[depth * levels + level];
      const double rebuffer = std::max(0.0, download_s - buffer);
      buffer = std::min(std::max(buffer - download_s, 0.0) + chunk_duration,
                        problem.buffer_capacity_s);
      double step_value = level_quality_[level] - w.mu * rebuffer -
                          (rebuffer > 0.0 ? w.mu_event : 0.0);
      if (has_prev) {
        step_value -= switch_cost_[level * levels + prev_level];
      }
      value = value + step_value;
      prev_level = level;
      has_prev = true;
    }
    best_value = value;
    ws.best_levels_.assign(ws.hint_levels_.begin(), ws.hint_levels_.end());
  }

  // Depth-first search; levels tried from the top rung down so the first
  // incumbent is strong and the admissible bound prunes aggressively.
  auto search = [&](auto&& self, std::size_t depth, double buffer,
                    std::size_t prev_level, bool has_prev,
                    double value) -> void {
    if (depth == horizon) {
      if (value > best_value || (!search_found && value == best_value)) {
        best_value = value;
        ws.best_levels_.assign(ws.current_levels_.begin(),
                               ws.current_levels_.begin() +
                                   static_cast<std::ptrdiff_t>(horizon));
        search_found = true;
      }
      return;
    }
    const double* downloads = &ws.download_s_[depth * levels];
    const double* rest_bound = &ws.rest_bound_[(horizon - depth - 1) * levels];

    for (std::size_t i = 0; i < levels; ++i) {
      const std::size_t level = levels - 1 - i;
      ++nodes_expanded;

      const double download_s = downloads[level];
      const double rebuffer = std::max(0.0, download_s - buffer);
      const double next_buffer = std::min(
          std::max(buffer - download_s, 0.0) + chunk_duration,
          problem.buffer_capacity_s);

      double step_value = level_quality_[level] - w.mu * rebuffer -
                          (rebuffer > 0.0 ? w.mu_event : 0.0);
      if (has_prev) {
        step_value -= switch_cost_[level * levels + prev_level];
      }
      const double next_value = value + step_value;

      // Admissible bound: even with no rebuffering for the remaining chunks
      // this branch cannot beat the incumbent. While the incumbent is the
      // provisional hint, branches that could *tie* it survive so
      // tie-breaking matches the cold solve exactly.
      const double optimistic = next_value +
                                kBoundSlack * std::abs(next_value) +
                                rest_bound[level];
      if (search_found ? optimistic <= best_value : optimistic < best_value) {
        continue;
      }

      // Dominance: a previously expanded branch reached this (depth, level)
      // with at least as much buffer and value.
      if (!ws.frontier_[depth * levels + level].insert(next_buffer,
                                                       next_value)) {
        continue;
      }

      ws.current_levels_[depth] = level;
      self(self, depth + 1, next_buffer, level, true, next_value);
    }
  };

  search(search, 0, problem.buffer_s, problem.prev_level, problem.has_prev,
         0.0);

  assert(!ws.best_levels_.empty());

  // Search-effort distribution (how well the prunings work per instance).
  nodes_histogram_->observe(static_cast<double>(nodes_expanded));

  HorizonSolution solution;
  solution.levels.assign(ws.best_levels_.begin(), ws.best_levels_.end());
  solution.objective = best_value;
  solution.nodes_expanded = nodes_expanded;
  return solution;
}

}  // namespace abr::core
