#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "predict/error_tracker.hpp"
#include "predict/predictor.hpp"
#include "trace/generators.hpp"
#include "util/stats.hpp"

namespace abr::predict {
namespace {

PredictionInput make_input(const std::vector<double>& history) {
  PredictionInput input;
  input.history_kbps = history;
  input.chunk_duration_s = 4.0;
  return input;
}

TEST(HarmonicMeanPredictor, FlatForecastOfWindowHarmonicMean) {
  HarmonicMeanPredictor predictor(5);
  const std::vector<double> history = {1.0, 4.0, 4.0};
  const auto forecast = predictor.predict(make_input(history), 3);
  ASSERT_EQ(forecast.size(), 3u);
  for (const double f : forecast) EXPECT_NEAR(f, 2.0, 1e-12);
}

TEST(HarmonicMeanPredictor, UsesOnlyLastWindow) {
  HarmonicMeanPredictor predictor(2);
  // Window of 2: ignores the 1e6 outlier at the start.
  const std::vector<double> history = {1e6, 100.0, 100.0};
  const auto forecast = predictor.predict(make_input(history), 1);
  EXPECT_NEAR(forecast[0], 100.0, 1e-9);
}

TEST(HarmonicMeanPredictor, EmptyHistoryGivesZero) {
  HarmonicMeanPredictor predictor(5);
  const auto forecast = predictor.predict(make_input({}), 2);
  ASSERT_EQ(forecast.size(), 2u);
  EXPECT_EQ(forecast[0], 0.0);
}

TEST(HarmonicMeanPredictor, RobustToSingleOutlier) {
  HarmonicMeanPredictor harmonic(5);
  SlidingMeanPredictor arithmetic(5);
  const std::vector<double> history = {500.0, 500.0, 500.0, 500.0, 50000.0};
  const double h = harmonic.predict(make_input(history), 1)[0];
  const double a = arithmetic.predict(make_input(history), 1)[0];
  EXPECT_LT(h, 650.0);    // harmonic barely moves
  EXPECT_GT(a, 10000.0);  // arithmetic is dragged up
}

TEST(SlidingMeanPredictor, ArithmeticMeanOfWindow) {
  SlidingMeanPredictor predictor(3);
  const std::vector<double> history = {10.0, 20.0, 30.0, 40.0};
  EXPECT_NEAR(predictor.predict(make_input(history), 1)[0], 30.0, 1e-12);
}

TEST(EwmaPredictor, ConvergesToConstantInput) {
  EwmaPredictor predictor(0.5);
  const std::vector<double> history(20, 800.0);
  EXPECT_NEAR(predictor.predict(make_input(history), 1)[0], 800.0, 1e-9);
}

TEST(EwmaPredictor, WeighsRecentSamplesMore) {
  EwmaPredictor predictor(0.5);
  const std::vector<double> rising = {100.0, 100.0, 100.0, 1000.0};
  const double estimate = predictor.predict(make_input(rising), 1)[0];
  EXPECT_GT(estimate, 500.0);
  EXPECT_LT(estimate, 1000.0);
}

TEST(PerfectPredictor, MatchesTraceWindows) {
  const trace::ThroughputTrace trace({{4.0, 1000.0}, {4.0, 2000.0}});
  PerfectPredictor predictor;
  PredictionInput input;
  input.now_s = 0.0;
  input.chunk_duration_s = 4.0;
  input.truth = &trace;
  const auto forecast = predictor.predict(input, 3);
  ASSERT_EQ(forecast.size(), 3u);
  EXPECT_NEAR(forecast[0], 1000.0, 1e-9);
  EXPECT_NEAR(forecast[1], 2000.0, 1e-9);
  EXPECT_NEAR(forecast[2], 1000.0, 1e-9);  // wrap-around
}

TEST(PerfectPredictor, ThrowsWithoutTruth) {
  PerfectPredictor predictor;
  PredictionInput input;
  input.chunk_duration_s = 4.0;
  EXPECT_THROW(predictor.predict(input, 1), std::logic_error);
}

TEST(NoisyOraclePredictor, ZeroErrorIsPerfect) {
  const trace::ThroughputTrace trace({{4.0, 1000.0}});
  NoisyOraclePredictor predictor(0.0, 1);
  PredictionInput input;
  input.chunk_duration_s = 4.0;
  input.truth = &trace;
  EXPECT_NEAR(predictor.predict(input, 1)[0], 1000.0, 1e-9);
}

TEST(NoisyOraclePredictor, AverageAbsoluteErrorMatchesLevel) {
  const trace::ThroughputTrace trace({{4.0, 1000.0}});
  const double level = 0.2;
  NoisyOraclePredictor predictor(level, 7);
  PredictionInput input;
  input.chunk_duration_s = 4.0;
  input.truth = &trace;
  util::RunningStats abs_error;
  for (int i = 0; i < 20000; ++i) {
    const double forecast = predictor.predict(input, 1)[0];
    abs_error.add(std::abs(forecast - 1000.0) / 1000.0);
  }
  EXPECT_NEAR(abs_error.mean(), level, 0.01);
}

TEST(NoisyOraclePredictor, NeverNonPositive) {
  const trace::ThroughputTrace trace({{4.0, 100.0}});
  NoisyOraclePredictor predictor(0.5, 9);  // can draw e in [-1, 1]
  PredictionInput input;
  input.chunk_duration_s = 4.0;
  input.truth = &trace;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GT(predictor.predict(input, 1)[0], 0.0);
  }
}

TEST(PredictionErrorTracker, MaxOverWindow) {
  PredictionErrorTracker tracker(3);
  EXPECT_EQ(tracker.max_abs_error(), 0.0);
  tracker.record(1100.0, 1000.0);  // 10%
  tracker.record(1300.0, 1000.0);  // 30%
  tracker.record(950.0, 1000.0);   // 5%
  EXPECT_NEAR(tracker.max_abs_error(), 0.30, 1e-12);
  // Window slides: the 30% error falls out after two more records.
  tracker.record(1000.0, 1000.0);
  tracker.record(1000.0, 1000.0);
  EXPECT_NEAR(tracker.max_abs_error(), 0.05, 1e-12);
}

TEST(PredictionErrorTracker, LowerBoundFormula) {
  PredictionErrorTracker tracker(5);
  tracker.record(1250.0, 1000.0);  // err = 0.25
  EXPECT_NEAR(PredictionErrorTracker::lower_bound(1000.0,
                                                tracker.max_abs_error()),
              800.0, 1e-9);
  tracker.reset();
  EXPECT_EQ(tracker.sample_count(), 0u);
  EXPECT_NEAR(PredictionErrorTracker::lower_bound(1000.0,
                                                tracker.max_abs_error()),
              1000.0, 1e-12);
}

TEST(PredictionErrorTracker, IgnoresNonPositiveSamples) {
  PredictionErrorTracker tracker(5);
  tracker.record(0.0, 1000.0);
  tracker.record(1000.0, 0.0);
  EXPECT_EQ(tracker.sample_count(), 0u);
}

TEST(AveragePredictionError, LowOnStableTraces) {
  util::Rng rng(5);
  HarmonicMeanPredictor predictor(5);
  util::RunningStats errors;
  for (int i = 0; i < 20; ++i) {
    const auto trace = trace::FccLikeConfig{}.generate(rng, 320.0);
    errors.add(std::abs(
        average_prediction_error(trace, predictor, 4.0, trace.period_s())));
  }
  // The paper reports <5% average error on FCC (Section 7.2); our stand-in
  // should be in that regime.
  EXPECT_LT(errors.mean(), 0.08);
}

TEST(AveragePredictionError, HigherOnMobileTraces) {
  util::Rng rng(6);
  HarmonicMeanPredictor predictor(5);
  util::RunningStats fcc_errors;
  util::RunningStats hsdpa_errors;
  for (int i = 0; i < 20; ++i) {
    const auto fcc = trace::FccLikeConfig{}.generate(rng, 320.0);
    const auto hsdpa = trace::HsdpaLikeConfig{}.generate(rng, 320.0);
    fcc_errors.add(std::abs(
        average_prediction_error(fcc, predictor, 4.0, fcc.period_s())));
    hsdpa_errors.add(std::abs(
        average_prediction_error(hsdpa, predictor, 4.0, hsdpa.period_s())));
  }
  EXPECT_GT(hsdpa_errors.mean(), fcc_errors.mean());
}

}  // namespace
}  // namespace abr::predict
