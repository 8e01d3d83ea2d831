#include "net/shaper.hpp"

#include <algorithm>
#include <cassert>

namespace abr::net {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

ShaperGate::ShaperGate(const trace::ThroughputTrace& trace, double speedup)
    : trace_(&trace), speedup_(speedup), epoch_(Clock::now()) {
  assert(speedup > 0.0);
}

void ShaperGate::reset_epoch() {
  const util::MutexLock lock(mutex_);
  epoch_ = Clock::now();
  sent_kilobits_ = 0.0;
}

bool ShaperGate::acquire(std::uint64_t ticket) {
  const util::MutexLock lock(mutex_);
  if (holder_ == 0 || holder_ == ticket) {
    holder_ = ticket;
    return true;
  }
  waiters_.push_back(ticket);
  return false;
}

std::uint64_t ShaperGate::grant_next_locked() {
  holder_ = 0;
  if (waiters_.empty()) return 0;
  holder_ = waiters_.front();
  waiters_.pop_front();
  return holder_;
}

std::uint64_t ShaperGate::release() {
  const util::MutexLock lock(mutex_);
  return grant_next_locked();
}

std::uint64_t ShaperGate::cancel(std::uint64_t ticket) {
  const util::MutexLock lock(mutex_);
  if (holder_ == ticket) return grant_next_locked();
  const auto it = std::find(waiters_.begin(), waiters_.end(), ticket);
  if (it != waiters_.end()) waiters_.erase(it);
  return 0;
}

Clock::time_point ShaperGate::release_at(double sent_kilobits) const {
  // The trace's inverse integral gives the session instant at which its
  // cumulative capacity since the epoch reaches `sent_kilobits`, and the
  // speedup maps it onto wall time.
  const double release_session_s =
      trace_->transfer_end_time(sent_kilobits, 0.0);
  return epoch_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(release_session_s /
                                                    speedup_));
}

ShaperGate::Claim ShaperGate::claim(std::size_t max_bytes,
                                    Clock::time_point now) {
  const util::MutexLock lock(mutex_);
  Claim claim;
  while (claim.bytes < max_bytes) {
    const std::size_t quantum =
        std::min(kQuantumBytes, max_bytes - claim.bytes);
    const double after_kilobits =
        sent_kilobits_ + static_cast<double>(quantum) * 8.0 / 1000.0;
    const Clock::time_point release = release_at(after_kilobits);
    if (release > now) {
      if (claim.bytes == 0) claim.next_release = release;
      break;
    }
    sent_kilobits_ = after_kilobits;
    claim.bytes += quantum;
  }
  return claim;
}

}  // namespace abr::net
