#pragma once

#include <cstddef>
#include <unordered_map>

#include "sim/chunk_source.hpp"
#include "testing/fault_plan.hpp"
#include "util/rng.hpp"

namespace abr::testing {

/// Wraps any sim::ChunkSource and applies a FaultPlan to it, emulating the
/// client-side retry loop in the source's own timebase (virtual seconds for
/// TraceChunkSource). This is how `abrsim --faults` reruns a pure simulation
/// under failure with bit-identical results across runs: everything —
/// fault schedule, backoff jitter, elapsed time — is derived from seeds.
///
/// Per attempt, in source time:
///  - latency spike: wait(latency_s), then the transfer completes;
///  - stall: the transfer completes, then wait(stall_s) (mid-body placement
///    is irrelevant once time is virtual) unless the abort monitor
///    cancelled the transfer first;
///  - partial body: the attempt fails as truncated. Without
///    FetchControl::keep_prefix the full transfer time elapses (bytes
///    flowed) and the body is discarded; with it only the body_fraction
///    prefix flows and it becomes resume credit for the next attempt;
///  - reset: wait(reset_delay_s), attempt fails;
///  - HTTP 5xx: wait(error_response_s), attempt fails.
/// Failed attempts are separated by the RetryPolicy's backoff. After
/// max_attempts failures the returned outcome has failed = true and the
/// player's degradation path takes over. An inner abort surfaces
/// immediately with the delivered prefix.
///
/// Each attempt that reaches the inner source carries its provenance into
/// the outcome: the serving origin, the inner faults, and any extra
/// attempts the inner source spent (an origin pool's own retries and
/// failovers). Over a bare TraceChunkSource that adds nothing.
///
/// Attempt numbers are counted per chunk across fetch() calls, so a
/// degraded re-fetch at the lowest level continues the same schedule the
/// server-side injector would see.
class FaultySource final : public sim::ChunkSource {
 public:
  /// The inner source must outlive this object. The plan is validate()d.
  FaultySource(sim::ChunkSource& inner, FaultPlan plan,
               sim::RetryPolicy retry = {});

  sim::FetchOutcome fetch(std::size_t chunk, std::size_t level,
                          const sim::FetchControl& control) override;
  bool supports_range() const override { return inner_->supports_range(); }
  void wait(double seconds) override { inner_->wait(seconds); }
  double now() const override { return inner_->now(); }
  const trace::ThroughputTrace* truth() const override {
    return inner_->truth();
  }

  std::size_t faults_injected() const { return faults_injected_; }
  std::size_t retries() const { return retries_; }

 private:
  sim::ChunkSource* inner_;
  FaultPlan plan_;
  sim::RetryPolicy retry_;
  util::Rng jitter_rng_;
  std::unordered_map<std::size_t, std::size_t> attempts_used_;
  std::size_t faults_injected_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace abr::testing
