#pragma once

#include <span>
#include <vector>

#include "media/manifest.hpp"
#include "predict/predictor.hpp"
#include "qoe/qoe.hpp"
#include "sim/fleet_series.hpp"
#include "sim/player.hpp"

namespace abr::obs {
class Journal;
}

namespace abr::sim {

/// Configuration of a shared-bottleneck experiment.
struct MultiPlayerConfig {
  /// Per-player session settings. Only kFirstChunk and kBufferThreshold
  /// startup policies are supported here (kFixedDelay is a single-player
  /// sensitivity device).
  SessionConfig session;

  /// Player i begins downloading at i * startup_stagger_s, modeling viewers
  /// joining over time.
  double startup_stagger_s = 0.0;

  /// Simulation time step. Downloads complete within one step of their true
  /// finish time; 50 ms is far below the chunk timescale (seconds).
  double time_step_s = 0.05;

  /// Optional fleet time-series aggregator: per-bucket QoE percentiles,
  /// rebuffer ratio, bitrate distribution, and sessions active, fed as
  /// chunks complete. Must outlive the call.
  FleetSeries* fleet = nullptr;

  /// Optional structured journal: one chunk record per download (session
  /// "p<i>") and one session record per player. Must outlive the call.
  obs::Journal* journal = nullptr;
};

/// Outcome of a shared-link simulation.
struct MultiPlayerResult {
  std::vector<SessionResult> players;

  /// Jain fairness index over the players' average bitrates, in
  /// (1/n, 1]; 1 = perfectly equal shares.
  double jain_fairness = 0.0;

  /// Fraction of the link's capacity delivered while at least one player
  /// was still downloading.
  double link_utilization = 0.0;
};

/// Simulates N players streaming the same video through one bottleneck
/// whose total capacity follows `link`. Concurrently active downloads split
/// the instantaneous capacity equally (the idealized TCP fair share) — the
/// multi-player interaction the paper defers to future work (Section 8) and
/// the setting FESTIVE [34] was designed for.
///
/// Dynamics per player replicate PlayerSession (Eqs. (1)-(4)); the only
/// difference is that each player's download rate is its fair share of the
/// link rather than the whole trace. Controllers therefore see the biased,
/// competition-dependent throughput samples that make this setting hard
/// (the "downward spiral" of Huang et al.).
///
/// The simulator holds per-player state in parallel contiguous vectors,
/// keeps one slot per in-flight download (buffer level, stall, bytes
/// remaining, a 1.0/0.0 playing factor), and schedules joins and
/// buffer-full waits on a binary heap:
///
///  - the per-tick advance is one branch-free, vectorizable pass over the
///    slot arrays, not a scan of every player ever created. It is exact:
///    a playing slot performs the same floating-point operations as a
///    per-player drain, and a paused slot adds and subtracts +0.0;
///  - a join appends a slot and a download that leaves the active set
///    hands its buffer back to the per-player arrays; slots are compacted
///    only on ticks where someone leaves;
///  - downloads that finish on the same tick complete in ascending player
///    order whatever their slot order, so controller calls, journal and
///    fleet records keep a fixed order;
///  - ticks where nobody is downloading cost O(1) (a heap peek), and
///    waiting and finished players are never touched.
///
/// One box can therefore soak-test 1M+ concurrent sessions (bench/
/// fleet_bench drives exactly that). Per-player metrics (chunks, rebuffer
/// seconds, labeled player="i") and the tick wall time
/// (abr_fleet_step_latency_us) go to obs::MetricsRegistry::global() when it
/// is enabled. testing::InvariantChecker::check_shared_link holds the
/// model: Eqs. (1)-(5) per player, capacity conservation, equal split.
///
/// controllers/predictors must each have exactly one entry per player and
/// outlive the call.
MultiPlayerResult simulate_shared_link(
    const trace::ThroughputTrace& link, const media::VideoManifest& manifest,
    const qoe::QoeModel& qoe, const MultiPlayerConfig& config,
    std::span<BitrateController* const> controllers,
    std::span<predict::ThroughputPredictor* const> predictors);

/// Jain's fairness index (sum x)^2 / (n * sum x^2); 0 for empty input.
double jain_index(std::span<const double> values);

}  // namespace abr::sim
