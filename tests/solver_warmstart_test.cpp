#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/horizon_solver.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace abr::core {
namespace {

struct Reference {
  std::vector<std::size_t> levels;
  double objective = 0.0;
};

/// Exhaustive enumeration with the solver's exact step arithmetic and its
/// exact tie-break: levels are tried from highest quality down and an
/// incumbent is replaced only by a strictly better sequence, so the first
/// optimum in that order wins — the same sequence branch-and-bound returns.
/// Every arithmetic expression below mirrors HorizonSolver::solve term for
/// term so the comparison can demand bit-identical doubles, not tolerances.
Reference exhaustive_reference(const media::VideoManifest& manifest,
                               const qoe::QoeModel& qoe,
                               const HorizonProblem& problem) {
  const qoe::QoeWeights& w = qoe.weights();
  const std::size_t levels = manifest.level_count();
  const std::size_t horizon =
      std::min(problem.predicted_kbps.size(),
               manifest.chunk_count() - problem.first_chunk);

  Reference best;
  best.objective = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> current(horizon);

  auto recurse = [&](auto&& self, std::size_t depth, double buffer,
                     std::size_t prev, bool has_prev, double value) -> void {
    if (depth == horizon) {
      if (value > best.objective) {
        best.objective = value;
        best.levels = current;
      }
      return;
    }
    for (std::size_t i = 0; i < levels; ++i) {
      const std::size_t level = levels - 1 - i;
      const double download_s =
          manifest.chunk_kilobits(problem.first_chunk + depth, level) /
          problem.predicted_kbps[depth];
      const double rebuffer = std::max(0.0, download_s - buffer);
      const double next_buffer =
          std::min(std::max(buffer - download_s, 0.0) +
                       manifest.chunk_duration_s(),
                   problem.buffer_capacity_s);
      double step_value =
          qoe.quality(manifest.bitrate_kbps(level)) - w.mu * rebuffer -
          (rebuffer > 0.0 ? w.mu_event : 0.0);
      if (has_prev) {
        step_value -= w.lambda *
                      std::abs(qoe.quality(manifest.bitrate_kbps(level)) -
                               qoe.quality(manifest.bitrate_kbps(prev)));
      }
      current[depth] = level;
      self(self, depth + 1, next_buffer, level, true, value + step_value);
    }
  };
  recurse(recurse, 0, problem.buffer_s, problem.prev_level, problem.has_prev,
          0.0);
  return best;
}

media::VideoManifest random_manifest(util::Rng& rng) {
  const std::size_t levels = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto ladder = media::VideoManifest::geometric_ladder(
      rng.uniform(200.0, 500.0), rng.uniform(1500.0, 4000.0), levels);
  if (rng.uniform() < 0.5) {
    return media::VideoManifest::cbr(12, 4.0, ladder);
  }
  util::Rng vbr_rng = rng.split();
  return media::VideoManifest::vbr(12, 4.0, ladder, 0.3, vbr_rng);
}

HorizonProblem random_problem(util::Rng& rng, std::size_t levels,
                              const std::vector<double>& forecast) {
  HorizonProblem problem;
  problem.buffer_s = rng.uniform(0.0, 30.0);
  problem.prev_level = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
  problem.has_prev = rng.uniform() < 0.9;
  problem.predicted_kbps = forecast;
  problem.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 6));
  return problem;
}

/// The core exactness property of the PR: for ANY warm-start hint — empty,
/// optimal, garbage, or truncated — the workspace solver returns levels and
/// objective bit-identical to the exhaustive reference (and hence to the
/// cold solve). This is what lets warm starting sit on the golden-log path.
TEST(SolverWarmStart, AnyHintIsBitIdenticalToExhaustiveReference) {
  util::Rng rng(91);
  const auto qoe = testing::balanced_qoe();
  HorizonSolver::Workspace workspace;

  for (int trial = 0; trial < 60; ++trial) {
    const auto manifest = random_manifest(rng);
    const std::size_t levels = manifest.level_count();
    HorizonSolver solver(manifest, qoe);

    const std::size_t horizon =
        static_cast<std::size_t>(rng.uniform_int(1, 5));
    std::vector<double> forecast(horizon);
    for (double& c : forecast) c = rng.uniform(100.0, 5000.0);
    const HorizonProblem base = random_problem(rng, levels, forecast);

    const Reference reference = exhaustive_reference(manifest, qoe, base);
    const HorizonSolution cold = solver.solve(base, workspace);
    ASSERT_EQ(cold.levels, reference.levels) << "trial " << trial;
    ASSERT_EQ(cold.objective, reference.objective) << "trial " << trial;

    // Hint variants: the cold optimum, its shifted tail (the online MPC
    // hint), pure noise, and a truncated prefix (padded by the solver).
    std::vector<std::vector<std::size_t>> hints;
    hints.push_back(cold.levels);
    if (cold.levels.size() > 1) {
      hints.emplace_back(cold.levels.begin() + 1, cold.levels.end());
    }
    std::vector<std::size_t> noise(horizon);
    for (std::size_t& level : noise) {
      level = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    }
    hints.push_back(noise);
    hints.emplace_back(1, noise.front());

    for (std::size_t h = 0; h < hints.size(); ++h) {
      HorizonProblem warm = base;
      warm.warm_hint = hints[h];
      const HorizonSolution solution = solver.solve(warm, workspace);
      ASSERT_EQ(solution.levels, reference.levels)
          << "trial " << trial << " hint " << h;
      ASSERT_EQ(solution.objective, reference.objective)
          << "trial " << trial << " hint " << h;
    }
  }
}

TEST(SolverWarmStart, OptimalHintNeverExpandsMoreNodes) {
  util::Rng rng(92);
  const auto qoe = testing::balanced_qoe();
  HorizonSolver::Workspace workspace;
  std::size_t cold_total = 0;
  std::size_t warm_total = 0;

  for (int trial = 0; trial < 40; ++trial) {
    const auto manifest = random_manifest(rng);
    HorizonSolver solver(manifest, qoe);
    std::vector<double> forecast(5);
    for (double& c : forecast) c = rng.uniform(100.0, 5000.0);
    const HorizonProblem base =
        random_problem(rng, manifest.level_count(), forecast);

    const HorizonSolution cold = solver.solve(base, workspace);
    HorizonProblem warm = base;
    warm.warm_hint = cold.levels;
    const HorizonSolution seeded = solver.solve(warm, workspace);

    ASSERT_EQ(seeded.levels, cold.levels) << "trial " << trial;
    ASSERT_LE(seeded.nodes_expanded, cold.nodes_expanded) << "trial " << trial;
    cold_total += cold.nodes_expanded;
    warm_total += seeded.nodes_expanded;
  }
  // The hint's value prunes from the first node: across the suite the
  // savings must be real, not incidental. (On these small random instances
  // the cold first incumbent is already strong; the big collapse shows up
  // in the chained table sweep, measured by solver_bench.)
  EXPECT_LT(warm_total * 4, cold_total * 3);
}

TEST(SolverWarmStart, WorkspaceReuseMatchesFreshWorkspace) {
  // One workspace reused across solvers, ladders, and horizon sizes must
  // behave exactly like a fresh workspace per solve (stale frontier or
  // stale precomputed arrays would show up as differing solutions).
  util::Rng rng(93);
  const auto qoe = testing::balanced_qoe();
  HorizonSolver::Workspace reused;

  for (int trial = 0; trial < 30; ++trial) {
    const auto manifest = random_manifest(rng);
    HorizonSolver solver(manifest, qoe);
    const std::size_t horizon =
        static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<double> forecast(horizon);
    for (double& c : forecast) c = rng.uniform(100.0, 5000.0);
    const HorizonProblem problem =
        random_problem(rng, manifest.level_count(), forecast);

    HorizonSolver::Workspace fresh;
    const HorizonSolution a = solver.solve(problem, reused);
    const HorizonSolution b = solver.solve(problem, fresh);
    ASSERT_EQ(a.levels, b.levels) << "trial " << trial;
    ASSERT_EQ(a.objective, b.objective) << "trial " << trial;
    ASSERT_EQ(a.nodes_expanded, b.nodes_expanded) << "trial " << trial;
  }
}

TEST(SolverWarmStart, OutOfRangeHintThrows) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  HorizonSolver solver(manifest, qoe);

  const std::vector<double> forecast(3, 1000.0);
  HorizonProblem problem;
  problem.buffer_s = 10.0;
  problem.predicted_kbps = forecast;
  const std::vector<std::size_t> bad_hint = {manifest.level_count()};
  problem.warm_hint = bad_hint;
  EXPECT_THROW(solver.solve(problem), std::invalid_argument);
}

// --- The switching-aware admissible bound ---------------------------------

/// A QoE model for one of the weight sets the bound must stay exact under:
/// the three QoePreference presets, plus a per-stall penalty (mu_event > 0).
/// With `monotone` false the rung scores are random, so quality falls as
/// well as rises along the ladder.
qoe::QoeModel bound_qoe(std::size_t weight_set, bool monotone,
                        const std::vector<double>& ladder, util::Rng& rng) {
  qoe::QoeWeights weights = qoe::QoeWeights::balanced();
  if (weight_set < 3) {
    constexpr qoe::QoePreference kPresets[] = {
        qoe::QoePreference::kBalanced, qoe::QoePreference::kAvoidInstability,
        qoe::QoePreference::kAvoidRebuffering};
    weights = qoe::preset_weights(kPresets[weight_set]);
  } else {
    weights.mu_event = 500.0;
  }
  if (monotone) {
    return qoe::QoeModel(media::QualityFunction::identity(), weights);
  }
  std::vector<std::pair<double, double>> scores;
  for (const double bitrate : ladder) {
    scores.emplace_back(bitrate, rng.uniform(0.0, 3000.0));
  }
  return qoe::QoeModel(media::QualityFunction::measured(std::move(scores)),
                       weights);
}

/// The largest ladder for which an exhaustive horizon of `horizon` chunks
/// stays near 5e4 leaves, capped at 6 rungs.
std::int64_t max_levels_for(std::size_t horizon) {
  std::int64_t levels = 2;
  while (levels < 6) {
    double leaves = 1.0;
    for (std::size_t i = 0; i < horizon; ++i) {
      leaves *= static_cast<double>(levels + 1);
    }
    if (leaves > 5e4) break;
    ++levels;
  }
  return levels;
}

/// Exactness of the bound: for every weight set, monotone and non-monotone
/// quality, CBR and VBR ladders, and horizons 1-9, the solver — cold and
/// with the shifted-optimum and noise hints — returns levels and objective
/// bit-identical to the exhaustive reference.
TEST(SolverBound, MatchesExhaustiveReferenceAcrossWeightsLaddersHorizons) {
  util::Rng rng(161);
  HorizonSolver::Workspace workspace;
  int solves = 0;

  for (std::size_t weight_set = 0; weight_set < 4; ++weight_set) {
    for (const bool monotone : {true, false}) {
      for (std::size_t horizon = 1; horizon <= 9; ++horizon) {
        for (int trial = 0; trial < 3; ++trial) {
          const std::size_t levels = static_cast<std::size_t>(
              rng.uniform_int(2, max_levels_for(horizon)));
          const auto ladder = media::VideoManifest::geometric_ladder(
              rng.uniform(200.0, 500.0), rng.uniform(1500.0, 4000.0),
              levels);
          util::Rng vbr_rng = rng.split();
          const auto manifest =
              trial == 0 ? media::VideoManifest::cbr(16, 4.0, ladder)
                         : media::VideoManifest::vbr(16, 4.0, ladder, 0.3,
                                                     vbr_rng);
          const auto qoe = bound_qoe(weight_set, monotone, ladder, rng);
          HorizonSolver solver(manifest, qoe);

          std::vector<double> forecast(horizon);
          for (double& c : forecast) c = rng.uniform(100.0, 5000.0);
          const HorizonProblem base = random_problem(rng, levels, forecast);
          const Reference reference =
              exhaustive_reference(manifest, qoe, base);

          const HorizonSolution cold = solver.solve(base, workspace);
          std::vector<std::size_t> noise(horizon);
          for (std::size_t& level : noise) {
            level = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(levels) - 1));
          }
          const std::vector<std::size_t> shifted(
              reference.levels.begin() +
                  (reference.levels.size() > 1 ? 1 : 0),
              reference.levels.end());

          std::vector<HorizonSolution> solutions = {cold};
          for (const std::span<const std::size_t> hint :
               {std::span<const std::size_t>(shifted),
                std::span<const std::size_t>(noise)}) {
            HorizonProblem warm = base;
            warm.warm_hint = hint;
            solutions.push_back(solver.solve(warm, workspace));
          }
          for (std::size_t i = 0; i < solutions.size(); ++i) {
            ASSERT_EQ(solutions[i].levels, reference.levels)
                << "weights " << weight_set << " monotone " << monotone
                << " horizon " << horizon << " trial " << trial
                << " solve " << i;
            ASSERT_EQ(solutions[i].objective, reference.objective)
                << "weights " << weight_set << " monotone " << monotone
                << " horizon " << horizon << " trial " << trial
                << " solve " << i;
            ++solves;
          }
        }
      }
    }
  }
  EXPECT_EQ(solves, 4 * 2 * 9 * 3 * 3);
}

/// HorizonSolver's search with the bound it replaced — (remaining chunks) *
/// top-rung quality — and otherwise the same order, tie-break, dominance
/// frontier and node count. Cold solves only; a node-count yardstick.
HorizonSolution quality_only_bound_solve(const media::VideoManifest& manifest,
                                         const qoe::QoeModel& qoe,
                                         const HorizonProblem& problem) {
  const qoe::QoeWeights& w = qoe.weights();
  const std::size_t levels = manifest.level_count();
  const std::size_t horizon = problem.predicted_kbps.size();
  const double max_quality =
      qoe.quality(manifest.bitrate_kbps(levels - 1));
  // Per (depth, level): (buffer, value) points, buffer descending.
  std::vector<std::vector<std::pair<double, double>>> frontier(horizon *
                                                               levels);
  auto insert = [](std::vector<std::pair<double, double>>& entries,
                   double buffer, double value) {
    const auto split = std::partition_point(
        entries.begin(), entries.end(),
        [buffer](const auto& e) { return e.first >= buffer; });
    if (split != entries.begin() && std::prev(split)->second >= value) {
      return false;
    }
    auto last = split;
    while (last != entries.end() && last->second <= value) ++last;
    entries.erase(split, last);
    entries.insert(split, {buffer, value});
    return true;
  };

  HorizonSolution best;
  best.objective = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> current(horizon);
  auto search = [&](auto&& self, std::size_t depth, double buffer,
                    std::size_t prev, bool has_prev, double value) -> void {
    if (depth == horizon) {
      if (value > best.objective) {
        best.objective = value;
        best.levels = current;
      }
      return;
    }
    for (std::size_t i = 0; i < levels; ++i) {
      const std::size_t level = levels - 1 - i;
      ++best.nodes_expanded;
      const double download_s =
          manifest.chunk_kilobits(problem.first_chunk + depth, level) /
          problem.predicted_kbps[depth];
      const double rebuffer = std::max(0.0, download_s - buffer);
      const double next_buffer =
          std::min(std::max(buffer - download_s, 0.0) +
                       manifest.chunk_duration_s(),
                   problem.buffer_capacity_s);
      const double quality = qoe.quality(manifest.bitrate_kbps(level));
      double step_value = quality - w.mu * rebuffer -
                          (rebuffer > 0.0 ? w.mu_event : 0.0);
      if (has_prev) {
        step_value -= w.lambda *
                      std::abs(quality -
                               qoe.quality(manifest.bitrate_kbps(prev)));
      }
      const double next_value = value + step_value;
      const double optimistic =
          next_value +
          static_cast<double>(horizon - depth - 1) * max_quality;
      if (optimistic <= best.objective) continue;
      if (!insert(frontier[depth * levels + level], next_buffer,
                  next_value)) {
        continue;
      }
      current[depth] = level;
      self(self, depth + 1, next_buffer, level, true, next_value);
    }
  };
  search(search, 0, problem.buffer_s, problem.prev_level, problem.has_prev,
         0.0);
  return best;
}

/// The fleet benchmark's regime: the paper's ladder and weights, forecasts
/// around a 1300 kbps fair share, a shallow buffer. The switching-aware
/// bound returns the same answers as the quality-only bound while expanding
/// clearly fewer nodes.
TEST(SolverBound, ExpandsFewerNodesThanQualityOnlyBoundUnderContention) {
  const auto paper = media::VideoManifest::envivio_default();
  const auto manifest =
      media::VideoManifest::cbr(32, 4.0, paper.bitrates_kbps());
  const auto qoe = testing::balanced_qoe();
  HorizonSolver solver(manifest, qoe);
  HorizonSolver::Workspace workspace;
  util::Rng rng(1300);
  std::size_t old_nodes = 0;
  std::size_t new_nodes = 0;

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> forecast(5);
    for (double& c : forecast) c = rng.uniform(700.0, 2200.0);
    HorizonProblem problem;
    problem.buffer_s = rng.uniform(0.0, 20.0);
    problem.prev_level = static_cast<std::size_t>(rng.uniform_int(0, 4));
    problem.has_prev = true;
    problem.predicted_kbps = forecast;
    problem.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 27));

    const HorizonSolution before =
        quality_only_bound_solve(manifest, qoe, problem);
    const HorizonSolution after = solver.solve(problem, workspace);
    ASSERT_EQ(after.levels, before.levels) << "trial " << trial;
    ASSERT_EQ(after.objective, before.objective) << "trial " << trial;
    old_nodes += before.nodes_expanded;
    new_nodes += after.nodes_expanded;
  }
  EXPECT_LT(new_nodes * 4, old_nodes * 3)
      << new_nodes << " nodes vs " << old_nodes << " with the old bound";
}

}  // namespace
}  // namespace abr::core
