#include "predict/error_tracker.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace abr::predict {

PredictionErrorTracker::PredictionErrorTracker(std::size_t window)
    : window_(window) {
  assert(window > 0);
}

void PredictionErrorTracker::record(double predicted_kbps,
                                    double actual_kbps) {
  if (predicted_kbps <= 0.0 || actual_kbps <= 0.0) return;
  errors_.push_back(std::abs(predicted_kbps - actual_kbps) / actual_kbps);
  while (errors_.size() > window_) errors_.pop_front();
}

double PredictionErrorTracker::max_abs_error() const {
  if (errors_.empty()) return 0.0;
  return *std::max_element(errors_.begin(), errors_.end());
}

double PredictionErrorTracker::lower_bound(double predicted_kbps,
                                           double max_abs_error) {
  return predicted_kbps / (1.0 + max_abs_error);
}

void PredictionErrorTracker::reset() { errors_.clear(); }

}  // namespace abr::predict
