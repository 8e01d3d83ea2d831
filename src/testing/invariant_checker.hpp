#pragma once

#include <string>
#include <vector>

#include "qoe/qoe.hpp"
#include "sim/multiplayer.hpp"
#include "sim/player.hpp"
#include "trace/throughput_trace.hpp"

namespace abr::testing {

/// Knobs for the replay below. The defaults match the paper's Section 7.1.1
/// setup (4 s chunks, 30 s buffer) and the strict property_test profile.
struct InvariantOptions {
  double chunk_duration_s = 4.0;
  double buffer_capacity_s = 30.0;

  /// Mirrors SessionConfig::include_startup_in_qoe for the Eq. (5) check.
  bool include_startup_in_qoe = true;

  /// When false, any skipped/partial/degraded/aborted chunk is itself a
  /// violation (the fault-free property_test profile). When true the replay
  /// models the failure paths: a skipped chunk appends nothing and charges
  /// its full duration as rebuffering; a partial chunk appends the played
  /// prefix and charges the missing suffix.
  bool allow_failures = true;

  /// Checks start_s continuity: chunk k+1 starts exactly when chunk k's
  /// download + buffer-full wait ended. Holds for every sequential
  /// single-session source (virtual-time sim, FaultySource wrappers).
  bool check_time_continuity = true;

  double tolerance = 1e-9;      ///< absolute, for buffer/time quantities
  double qoe_tolerance = 1e-6;  ///< absolute, for the Eq. (5) conservation
};

/// Outcome of a replay: empty `violations` means every invariant held.
struct InvariantReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// Newline-joined violations (empty string when ok).
  std::string to_string() const;
};

/// Replays a finished SessionResult against the paper's buffer-dynamics
/// equations and the Eq. (5) QoE definition, independently of the player
/// that produced it. Used by tests/property_test.cpp and the session-level
/// fuzz harness, so the invariants live in exactly one place.
///
/// Supports StartupPolicy::kFirstChunk sessions (playback begins when the
/// first non-skipped chunk lands) — the policy every current caller uses.
///
/// Invariants checked:
///  - Eq. (1)-(3): buffer_before/buffer_after/rebuffer_s of every chunk
///    match a from-scratch replay of download-drain + append (including the
///    skip / partial-prefix failure paths);
///  - Eq. (4): wait_s equals the excess over capacity, and the buffer never
///    leaves [0, capacity];
///  - startup: startup_delay_s is the completion time of the first played
///    chunk;
///  - Eq. (5): result.qoe equals QoeModel::session_qoe over the per-chunk
///    bitrate/rebuffer vectors (QoE attribution conservation);
///  - aggregates: every derived counter/average in SessionResult matches a
///    recomputation from the chunk log.
///
/// check_shared_link extends the same contracts to a MultiPlayerResult:
/// every player passes the replay above, and the link itself conserves
/// capacity and splits it equally among concurrent downloads.
class InvariantChecker {
 public:
  explicit InvariantChecker(InvariantOptions options) : options_(options) {}

  /// Eq. (1)-(4) replay.
  InvariantReport check_buffer_dynamics(const sim::SessionResult& result) const;

  /// Eq. (5) conservation under `model`.
  InvariantReport check_qoe_conservation(const sim::SessionResult& result,
                                         const qoe::QoeModel& model) const;

  /// Derived aggregates vs the chunk log.
  InvariantReport check_aggregates(const sim::SessionResult& result) const;

  /// All of the above, violations concatenated.
  InvariantReport check_all(const sim::SessionResult& result,
                            const qoe::QoeModel& model) const;

  /// A shared-link simulation, checked from its result alone:
  ///  - per session: check_all with time continuity off and startup
  ///    measured from the player's join time; buffer capacity and the
  ///    startup QoE term come from config.session;
  ///  - per chunk: it starts on a tick, within one tick of its player's
  ///    join or of the previous chunk's end plus wait, and lasts whole
  ///    ticks;
  ///  - per tick: the active-download count is rebuilt from the chunks'
  ///    [start_s, start_s + download_s) intervals, and the data delivered
  ///    never exceeds link.kilobits_between(t, t + time_step_s);
  ///  - equal split: the equal shares (tick capacity / active count) a
  ///    chunk received before its last tick sum to less than its size,
  ///    and including the last tick to at least its size;
  ///  - per result: link_utilization recomputed from the busy ticks and
  ///    jain_fairness from the players' average bitrates.
  InvariantReport check_shared_link(const sim::MultiPlayerResult& result,
                                    const trace::ThroughputTrace& link,
                                    const sim::MultiPlayerConfig& config,
                                    const qoe::QoeModel& model) const;

  const InvariantOptions& options() const { return options_; }

 private:
  // The checks above for a session whose clock starts at `join_time_s`
  // (startup_delay_s is measured from there).
  InvariantReport buffer_dynamics(const sim::SessionResult& result,
                                  double join_time_s) const;
  InvariantReport session(const sim::SessionResult& result,
                          const qoe::QoeModel& model,
                          double join_time_s) const;

  InvariantOptions options_;
};

}  // namespace abr::testing
