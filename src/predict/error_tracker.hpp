#pragma once

#include <cstddef>
#include <deque>

namespace abr::predict {

/// Tracks recent prediction error and derives the throughput lower bound
/// RobustMPC feeds to the regular MPC solve (Section 7.1.2 of the paper):
///
///   C_lower = C_hat / (1 + err),
///
/// where err is the maximum absolute percentage error of the past `window`
/// chunks. Errors are measured relative to the *actual* throughput.
class PredictionErrorTracker {
 public:
  explicit PredictionErrorTracker(std::size_t window = 5);

  /// Records that `predicted_kbps` was forecast for a chunk whose measured
  /// throughput turned out to be `actual_kbps`. Non-positive samples are
  /// ignored (no information).
  void record(double predicted_kbps, double actual_kbps);

  /// Maximum absolute percentage error over the window; 0 when empty.
  double max_abs_error() const;

  /// The RobustMPC bound: prediction / (1 + max_abs_error), for a
  /// max_abs_error() the caller reads once, so a horizon of forecasts is
  /// deflated with one scan of the window.
  static double lower_bound(double predicted_kbps, double max_abs_error);

  std::size_t sample_count() const { return errors_.size(); }
  void reset();

 private:
  std::size_t window_;
  std::deque<double> errors_;  ///< absolute percentage errors, newest last
};

}  // namespace abr::predict
