#include "media/quality.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace abr::media {

QualityFunction QualityFunction::identity() {
  return QualityFunction(Kind::kIdentity, "identity");
}

QualityFunction QualityFunction::logarithmic(double reference_kbps,
                                             double scale) {
  assert(reference_kbps > 0.0 && scale > 0.0);
  QualityFunction q(Kind::kLog, "log");
  q.a_ = reference_kbps;
  q.b_ = scale;
  return q;
}

QualityFunction QualityFunction::device_saturating(double knee_kbps,
                                                   double slope_above_knee) {
  assert(knee_kbps > 0.0);
  assert(slope_above_knee >= 0.0 && slope_above_knee <= 1.0);
  QualityFunction q(Kind::kSaturating, "saturating");
  q.a_ = knee_kbps;
  q.b_ = slope_above_knee;
  return q;
}

QualityFunction QualityFunction::piecewise(
    std::vector<std::pair<double, double>> points) {
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].second < points[i - 1].second) {
      throw std::invalid_argument("piecewise quality: quality decreasing");
    }
  }
  QualityFunction q = measured(std::move(points));
  q.name_ = "piecewise";
  return q;
}

QualityFunction QualityFunction::measured(
    std::vector<std::pair<double, double>> points) {
  if (points.size() < 2) {
    throw std::invalid_argument("piecewise quality: need >= 2 points");
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].first <= points[i - 1].first) {
      throw std::invalid_argument("piecewise quality: bitrates not increasing");
    }
  }
  QualityFunction q(Kind::kPiecewise, "measured");
  q.points_ = std::move(points);
  return q;
}

double QualityFunction::operator()(double bitrate_kbps) const {
  switch (kind_) {
    case Kind::kIdentity:
      return bitrate_kbps;
    case Kind::kLog:
      return b_ * std::log(bitrate_kbps / a_);
    case Kind::kSaturating:
      if (bitrate_kbps <= a_) return bitrate_kbps;
      return a_ + b_ * (bitrate_kbps - a_);
    case Kind::kPiecewise: {
      if (bitrate_kbps <= points_.front().first) return points_.front().second;
      if (bitrate_kbps >= points_.back().first) return points_.back().second;
      for (std::size_t i = 1; i < points_.size(); ++i) {
        if (bitrate_kbps <= points_[i].first) {
          const auto& [x0, y0] = points_[i - 1];
          const auto& [x1, y1] = points_[i];
          const double frac = (bitrate_kbps - x0) / (x1 - x0);
          return y0 + frac * (y1 - y0);
        }
      }
      return points_.back().second;  // unreachable
    }
  }
  return 0.0;  // unreachable
}

}  // namespace abr::media
