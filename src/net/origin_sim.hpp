#pragma once

#include <cstdint>

#include "net/origin_pool.hpp"
#include "sim/chunk_source.hpp"
#include "testing/outage_script.hpp"
#include "util/rng.hpp"

namespace abr::net {

/// Knobs for the virtual-time multi-origin source.
struct SimulatedOriginOptions {
  std::size_t origins = 2;

  /// Virtual cost of one failed attempt against a dead origin (a refused
  /// TCP connect plus the client noticing), session seconds.
  double connect_fail_s = 0.05;

  sim::RetryPolicy retry;
  BreakerConfig breaker;

  /// Seeds the breaker probe jitter and the retry backoff jitter. Same seed
  /// + same trace + same script => bit-identical sessions.
  std::uint64_t seed = 0x5eedULL;
};

/// Virtual-time counterpart of the multi-origin HttpChunkSource: chunk
/// timing follows the throughput trace exactly (Eq. 2, via TraceChunkSource)
/// while an OutageScript takes origins down and back up in session time, and
/// an OriginPool decides — with the same circuit-breaker state machine the
/// real client runs — which origin each attempt goes to.
///
/// Everything is a pure function of (trace, manifest, script, options), so
/// `abrsim --origins N --kill-origin ...` produces bit-identical chunk logs
/// across runs: the determinism contract of PR 2's fault layer extends to
/// origin-level chaos.
class SimulatedOriginSource final : public sim::ChunkSource {
 public:
  /// The trace and manifest must outlive the source. The script is
  /// validate()d.
  SimulatedOriginSource(const trace::ThroughputTrace& trace,
                        const media::VideoManifest& manifest,
                        testing::OutageScript script,
                        SimulatedOriginOptions options = {});

  /// Ignores `control`: supports_range() is false, so the player never asks
  /// for range resume here.
  sim::FetchOutcome fetch(std::size_t chunk, std::size_t level,
                          const sim::FetchControl& control) override;
  void wait(double seconds) override { base_.wait(seconds); }
  double now() const override { return base_.now(); }
  const trace::ThroughputTrace* truth() const override {
    return base_.truth();
  }

  const OriginPool& pool() const { return pool_; }
  std::size_t failovers() const { return failovers_; }
  std::size_t attempt_failures() const { return attempt_failures_; }
  std::size_t retries() const { return retries_; }

 private:
  sim::TraceChunkSource base_;
  testing::OutageScript script_;
  SimulatedOriginOptions options_;
  OriginPool pool_;
  util::Rng backoff_rng_;
  std::size_t current_origin_ = 0;
  std::size_t failovers_ = 0;
  std::size_t attempt_failures_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace abr::net
