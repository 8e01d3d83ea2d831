#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "trace/throughput_trace.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace abr::net {

/// Trace-driven link shaper: paces response bodies so that the cumulative
/// bytes sent track the integral of a throughput trace.
///
/// This replaces the `tc` token-bucket shaping of the paper's testbed
/// (Section 7.2) with an application-level equivalent. The emulated access
/// link is one FIFO link: a connection acquires it (queued tickets are
/// served in order), sends its body in whole quanta, and releases it. Each
/// quantum has a release instant, when the trace's cumulative allowance
/// covers it. Before each send the holder claim()s every quantum already
/// released and sends them together; when none is released yet, the
/// reactor schedules a timer for the next release instant instead of
/// sleeping, so no thread ever blocks on the link.
///
/// `speedup` compresses session time: at speedup 20 a 260 s video session
/// runs in 13 s of wall time, with trace rates scaled up correspondingly.
/// On loopback (>10 Gbps raw) the shaped rate remains the bottleneck for
/// any realistic trace, so the measured throughput at the client follows
/// the trace as it would behind tc.
class ShaperGate {
 public:
  /// The trace must outlive the gate. The epoch (session time 0) is the
  /// moment of construction; reset_epoch() restarts it.
  ShaperGate(const trace::ThroughputTrace& trace, double speedup);

  /// Restarts session time at "now" and zeroes the bytes already charged.
  void reset_epoch() ABR_EXCLUDES(mutex_);

  /// Claims the link for `ticket` (an opaque nonzero connection id).
  /// Returns true when the link was free; otherwise the ticket is queued
  /// and a later release() will hand the link over.
  bool acquire(std::uint64_t ticket) ABR_EXCLUDES(mutex_);

  /// Removes a queued (or holding) ticket whose connection died. Returns
  /// the next ticket to grant when the holder vanished, 0 otherwise.
  std::uint64_t cancel(std::uint64_t ticket) ABR_EXCLUDES(mutex_);

  /// Releases the link and pops the next queued ticket (0 when none). The
  /// caller must forward the grant to the ticket's owner.
  std::uint64_t release() ABR_EXCLUDES(mutex_);

  /// What one claim() charged.
  struct Claim {
    /// Bytes charged, all to be sent now; 0 when nothing was released.
    std::size_t bytes = 0;
    /// When `bytes` is 0: the release instant of the next quantum.
    std::chrono::steady_clock::time_point next_release{};
  };

  /// Charges, in one critical section, every consecutive quantum of the
  /// next `max_bytes` whose release instant is at or before `now`. Quanta
  /// are kQuantumBytes long except the last, which ends at `max_bytes`, so
  /// a claim never crosses `max_bytes`. A quantum is released once the
  /// trace's cumulative allowance since the epoch covers all bytes charged
  /// before it plus itself: at epoch + transfer_end_time(sent + quantum) /
  /// speedup.
  Claim claim(std::size_t max_bytes,
              std::chrono::steady_clock::time_point now) ABR_EXCLUDES(mutex_);

  /// Pacing quantum, bytes. Smaller = smoother shaping, more syscalls.
  static constexpr std::size_t kQuantumBytes = 16 * 1024;

 private:
  /// Pops the next waiter into holder_ (0 when none) and returns it.
  std::uint64_t grant_next_locked() ABR_REQUIRES(mutex_);

  /// Release instant of a quantum that brings the bytes charged so far to
  /// `sent_kilobits`.
  std::chrono::steady_clock::time_point release_at(double sent_kilobits) const
      ABR_REQUIRES(mutex_);

  const trace::ThroughputTrace* trace_;
  double speedup_;
  mutable util::Mutex mutex_;
  std::chrono::steady_clock::time_point epoch_ ABR_GUARDED_BY(mutex_);
  double sent_kilobits_ ABR_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t holder_ ABR_GUARDED_BY(mutex_) = 0;
  std::deque<std::uint64_t> waiters_ ABR_GUARDED_BY(mutex_);
};

}  // namespace abr::net
