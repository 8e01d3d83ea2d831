#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/player.hpp"

namespace abr::sim {

/// Knobs for the fleet time-series aggregator.
struct FleetSeriesConfig {
  /// Width of one time bucket, virtual seconds.
  double bucket_s = 5.0;

  /// Ring capacity: once more than this many buckets exist, the oldest are
  /// evicted (counted in abr_fleet_buckets_evicted_total). A long soak keeps
  /// a bounded recent window instead of growing without limit.
  std::size_t capacity = 1024;

  /// Content seconds per chunk (the manifest's chunk duration); used for
  /// the per-bucket rebuffer ratio (stall / (stall + played)).
  double chunk_duration_s = 4.0;
};

/// Time-bucketed ring-buffer series over a fleet of concurrent sessions:
/// per-bucket QoE percentiles, rebuffer ratio, bitrate distribution, and
/// peak sessions active. Fed by sim::simulate_shared_link as chunks
/// complete, exported as FLEET_timeseries.json. All timestamps are virtual
/// simulation time and the JSON rendering is deterministic, so seeded runs
/// export byte-identical series (tests/golden/shared_markov3_fleet.json
/// pins one). Not thread-safe (the shared-link simulator is
/// single-threaded).
class FleetSeries {
 public:
  explicit FleetSeries(FleetSeriesConfig config = {});

  /// Records one completed chunk: `end_s` is the virtual completion time,
  /// `qoe_chunk` the chunk's net Eq. (5) contribution.
  void record_chunk(double end_s, const ChunkRecord& record, double qoe_chunk);

  /// Records the number of sessions active at `t_s`; buckets keep the peak.
  void note_active(double t_s, std::size_t active);

  std::size_t bucket_count() const { return buckets_.size(); }
  std::size_t evicted_buckets() const { return evicted_; }
  const FleetSeriesConfig& config() const { return config_; }

  /// Deterministic single-line JSON:
  /// {"bucket_s":..,"chunk_duration_s":..,"evicted":..,"buckets":[..]}.
  std::string to_json() const;

  /// Writes to_json() + '\n' to `path`; throws std::runtime_error on
  /// failure.
  void save(const std::string& path) const;

 private:
  struct Bucket {
    std::size_t index = 0;  ///< floor(t / bucket_s)
    std::vector<double> qoe_samples;
    double rebuffer_s = 0.0;
    std::size_t chunks = 0;
    std::map<long, std::size_t> bitrate_chunks;  ///< kbps -> chunk count
    std::size_t peak_active = 0;
  };

  Bucket& bucket_at(double t_s);

  FleetSeriesConfig config_;
  std::deque<Bucket> buckets_;  ///< ordered by index (time is monotonic)
  std::size_t evicted_ = 0;
};

}  // namespace abr::sim
