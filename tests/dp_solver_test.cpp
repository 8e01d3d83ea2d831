// Exactness contract of the value-iteration backend: over a seeded random
// grid of horizon problems, the DP plan's exact objective must sit within
// [bnb - tolerance_bound, bnb] of the branch-and-bound optimum. The bound is
// the Lipschitz discretization argument documented on DpHorizonSolver:
//
//   mu * delta * N (N - 1) / 2  +  (mu_event > 0 ? 2 (N - 1) mu_event : 0),
//
// with delta = Bmax / buffer_bins. With the default 600 bins, Bmax = 30 and
// the balanced weights this is a few hundred QoE units — loose by design;
// the observed gap (pinned below) is two orders of magnitude smaller.
#include "core/dp_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/horizon_solver.hpp"
#include "media/manifest.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace abr::core {
namespace {

/// A randomized but reproducible horizon problem; `forecast` provides the
/// backing storage for the span.
HorizonProblem random_problem(util::Rng& rng,
                              const media::VideoManifest& manifest,
                              std::vector<double>& forecast) {
  forecast.resize(5);
  double kbps = rng.uniform(200.0, 5000.0);
  for (double& f : forecast) {
    kbps = std::clamp(kbps * rng.uniform(0.6, 1.5), 150.0, 6000.0);
    f = kbps;
  }
  HorizonProblem problem;
  problem.buffer_s = rng.uniform(0.0, 30.0);
  problem.prev_level = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(manifest.level_count()) - 1));
  problem.has_prev = rng.uniform() < 0.8;
  problem.predicted_kbps = forecast;
  problem.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 40));
  problem.buffer_capacity_s = 30.0;
  return problem;
}

TEST(DpSolver, MatchesBranchAndBoundWithinToleranceOnSeededGrid) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  DpSolverConfig config;
  config.cross_check = true;
  DpHorizonSolver solver(manifest, qoe, config);

  const std::uint64_t grid_seed = 4242;
  util::Rng rng(grid_seed);
  std::vector<double> forecast;
  for (int i = 0; i < 300; ++i) {
    const HorizonProblem problem = random_problem(rng, manifest, forecast);
    ASSERT_GT(solver.tolerance_bound(problem), 0.0);
    solver.solve(problem);
  }
  const auto& stats = solver.cross_check_stats();
  EXPECT_EQ(stats.solves, 300u);
  EXPECT_EQ(stats.violations, 0u);
  // The DP plan is scored exactly, so it can never beat the optimum; the
  // worst observed gap stays at ~4% of the analytic bound (empirical pin —
  // raise deliberately if the discretization changes).
  EXPECT_GE(stats.max_gap, 0.0);
  EXPECT_LE(stats.max_gap, 150.0);
  // The greedy first decision almost always coincides with the optimum.
  EXPECT_GE(stats.first_decision_matches, 285u);
}

TEST(DpSolver, ObjectiveIsTheExactScoreOfItsOwnPlan) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  DpHorizonSolver solver(manifest, qoe);
  const HorizonSolver bnb(manifest, qoe);

  const std::uint64_t plan_seed = 9091;
  util::Rng rng(plan_seed);
  std::vector<double> forecast;
  for (int i = 0; i < 50; ++i) {
    const HorizonProblem problem = random_problem(rng, manifest, forecast);
    const HorizonSolution dp = solver.solve(problem);
    // The reported objective is the plan rescored by the exact recurrence.
    EXPECT_NEAR(dp.objective, solver.plan_objective(problem, dp.levels),
                1e-9);
    // ... and both solvers score the *reference* plan identically, so any
    // objective gap is purely a plan difference, never a scoring skew.
    const HorizonSolution reference = bnb.solve(problem);
    EXPECT_NEAR(reference.objective,
                solver.plan_objective(problem, reference.levels), 1e-9);
    EXPECT_LE(dp.objective, reference.objective + 1e-9);
  }
}

TEST(DpSolver, SolveIsDeterministic) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  DpHorizonSolver solver(manifest, qoe);
  const std::vector<double> forecast = {900.0, 1100.0, 700.0, 1300.0, 1000.0};
  HorizonProblem problem;
  problem.buffer_s = 8.0;
  problem.prev_level = 2;
  problem.has_prev = true;
  problem.predicted_kbps = forecast;
  problem.first_chunk = 12;

  const HorizonSolution a = solver.solve(problem);
  const HorizonSolution b = solver.solve(problem);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
}

TEST(DpSolver, ToleranceBoundScalesWithGridResolution) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  DpSolverConfig coarse;
  coarse.buffer_bins = 100;
  DpSolverConfig fine;
  fine.buffer_bins = 1000;
  const DpHorizonSolver coarse_solver(manifest, qoe, coarse);
  const DpHorizonSolver fine_solver(manifest, qoe, fine);

  const std::vector<double> forecast(5, 1000.0);
  HorizonProblem problem;
  problem.predicted_kbps = forecast;
  const double coarse_bound = coarse_solver.tolerance_bound(problem);
  const double fine_bound = fine_solver.tolerance_bound(problem);
  EXPECT_GT(coarse_bound, 0.0);
  // The mu * delta * N(N-1)/2 term shrinks 10x with a 10x finer grid; any
  // mu_event term is resolution-independent. Writing the bounds as
  // coarse = 10 m + c and fine = m + c gives m = (coarse - fine) / 9, and
  // the recovered constant c must be non-negative.
  EXPECT_LT(fine_bound, coarse_bound);
  const double mu_event_term = fine_bound - (coarse_bound - fine_bound) / 9.0;
  EXPECT_GE(mu_event_term, -1e-9);
}

TEST(DpSolver, RejectsMalformedProblems) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  DpHorizonSolver solver(manifest, qoe);

  HorizonProblem empty;
  EXPECT_THROW(solver.solve(empty), std::invalid_argument);

  const std::vector<double> bad_forecast = {1000.0, 0.0, 1000.0};
  HorizonProblem nonpositive;
  nonpositive.predicted_kbps = bad_forecast;
  EXPECT_THROW(solver.solve(nonpositive), std::invalid_argument);

  DpSolverConfig zero_bins;
  zero_bins.buffer_bins = 0;
  EXPECT_THROW(DpHorizonSolver(manifest, qoe, zero_bins),
               std::invalid_argument);
}

}  // namespace
}  // namespace abr::core
