#pragma once

#include <string>
#include <vector>

namespace abr::media {

/// The perceptual quality function q(.) of Section 3.1: a non-decreasing map
/// from bitrate (kbps) to perceived quality.
///
/// The paper's evaluation uses the identity function; it also discusses
/// device- and content-dependent shapes (e.g., on a phone, 3 Mbps and 1 Mbps
/// look alike — a saturating/logarithmic q). All three families are provided
/// so the QoE model and the MPC objective can be exercised across them.
class QualityFunction {
 public:
  /// q(R) = R. The paper's default (Section 7.1.1).
  static QualityFunction identity();

  /// q(R) = scale * log(R / reference). Models diminishing returns at high
  /// bitrates (the shape later adopted by Pensieve's QoE_log).
  static QualityFunction logarithmic(double reference_kbps, double scale);

  /// q(R) = saturating: R below the knee, then compressed slope above it.
  /// Models small-screen devices where quality saturates past `knee_kbps`.
  static QualityFunction device_saturating(double knee_kbps,
                                           double slope_above_knee);

  /// Piecewise-linear through explicit (bitrate, quality) points; bitrates
  /// must be strictly increasing and qualities non-decreasing. Models
  /// per-title encoding curves.
  static QualityFunction piecewise(std::vector<std::pair<double, double>> points);

  /// Piecewise-linear through measured (bitrate, score) points, such as a
  /// perceptual score per rung. Bitrates must be strictly increasing; the
  /// scores may fall as well as rise (a rung encoded at a poor resolution
  /// can score below a cheaper one).
  static QualityFunction measured(
      std::vector<std::pair<double, double>> points);

  /// Evaluates q at the given bitrate (kbps).
  double operator()(double bitrate_kbps) const;

  const std::string& name() const { return name_; }

 private:
  enum class Kind { kIdentity, kLog, kSaturating, kPiecewise };

  QualityFunction(Kind kind, std::string name) : kind_(kind), name_(std::move(name)) {}

  Kind kind_;
  std::string name_;
  double a_ = 0.0;
  double b_ = 0.0;
  std::vector<std::pair<double, double>> points_;
};

}  // namespace abr::media
