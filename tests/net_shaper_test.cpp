// The emulated access link (ShaperGate): quantum release instants follow the
// trace's cumulative allowance, scaled by the speedup, and the link is one
// FIFO that hands itself from holder to waiter. The release checks are exact:
// the gate's epoch is bracketed by two clock reads, so no test sleeps.
#include "net/shaper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>

#include "media/manifest.hpp"
#include "net/chunk_server.hpp"
#include "net/http.hpp"
#include "test_helpers.hpp"
#include "trace/throughput_trace.hpp"

namespace abr::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Kilobits in `bytes`, the trace's unit.
double kilobits(std::size_t bytes) {
  return static_cast<double>(bytes) * 8.0 / 1000.0;
}

/// Seconds from `from` to `to`.
double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Paces `bytes` through a fresh gate in kQuantumBytes quanta, as the
/// reactor does, and returns the release instant of the last quantum as
/// bounds on its offset from the gate's epoch: the epoch lies between two
/// clock reads taken around the gate's construction.
struct ReleaseWindow {
  double earliest_s = 0.0;  ///< offset if the epoch was the later read
  double latest_s = 0.0;    ///< offset if the epoch was the earlier read
};

ReleaseWindow last_release(const trace::ThroughputTrace& trace,
                           double speedup, std::size_t bytes) {
  const Clock::time_point before = Clock::now();
  ShaperGate gate(trace, speedup);
  const Clock::time_point after = Clock::now();
  Clock::time_point release = before;
  for (std::size_t sent = 0; sent < bytes;) {
    const std::size_t quantum =
        std::min(ShaperGate::kQuantumBytes, bytes - sent);
    release = gate.quantum_release(quantum);
    gate.note_sent(quantum);
    sent += quantum;
  }
  return ReleaseWindow{seconds(after, release), seconds(before, release)};
}

/// Expects the last quantum of `bytes` to be released at the trace time the
/// whole transfer needs, divided by the speedup.
void expect_release_at_trace_time(const trace::ThroughputTrace& trace,
                                  double speedup, std::size_t bytes) {
  const double expected_s =
      trace.transfer_end_time(kilobits(bytes), 0.0) / speedup;
  const ReleaseWindow window = last_release(trace, speedup, bytes);
  // One microsecond of slack for the double -> clock-tick conversion.
  EXPECT_LE(window.earliest_s, expected_s + 1e-6);
  EXPECT_GE(window.latest_s, expected_s - 1e-6);
}

TEST(ShaperGate, ConstantRateReleasesAtTraceTime) {
  // 500 kB at 2 Mbps = 2 s of trace time; at speedup 10 => 0.2 s wall.
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  EXPECT_DOUBLE_EQ(trace.transfer_end_time(kilobits(500 * 1000), 0.0), 2.0);
  expect_release_at_trace_time(trace, 10.0, 500 * 1000);
}

TEST(ShaperGate, FasterTraceReleasesSooner) {
  const auto slow = trace::ThroughputTrace::constant(1000.0, 1000.0);
  const auto fast = trace::ThroughputTrace::constant(8000.0, 1000.0);
  expect_release_at_trace_time(slow, 20.0, 400 * 1000);
  expect_release_at_trace_time(fast, 20.0, 400 * 1000);
  const ReleaseWindow slow_window = last_release(slow, 20.0, 400 * 1000);
  const ReleaseWindow fast_window = last_release(fast, 20.0, 400 * 1000);
  EXPECT_NEAR(slow_window.earliest_s / fast_window.earliest_s, 8.0, 0.01);
}

TEST(ShaperGate, FollowsRateChanges) {
  // 1 Mbps for 2 s then 8 Mbps: 500 kB = 4000 kb needs
  // 2 s * 1000 + 0.25 s * 8000 => 2.25 s of trace time.
  const trace::ThroughputTrace trace({{2.0, 1000.0}, {10.0, 8000.0}});
  EXPECT_DOUBLE_EQ(trace.transfer_end_time(kilobits(500 * 1000), 0.0), 2.25);
  expect_release_at_trace_time(trace, 10.0, 500 * 1000);
}

TEST(ShaperGate, SpeedupScalesReleaseTimes) {
  // The same transfer at speedup 50 is released 5x sooner than at 10.
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  expect_release_at_trace_time(trace, 10.0, 250 * 1000);
  expect_release_at_trace_time(trace, 50.0, 250 * 1000);
  const ReleaseWindow at_10 = last_release(trace, 10.0, 250 * 1000);
  const ReleaseWindow at_50 = last_release(trace, 50.0, 250 * 1000);
  EXPECT_NEAR(at_10.earliest_s / at_50.earliest_s, 5.0, 0.01);
}

TEST(ShaperGate, ResetEpochZeroesTheAllowance) {
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  ShaperGate gate(trace, 10.0);
  gate.note_sent(1000 * 1000);  // 8 s of trace time already charged
  const Clock::time_point before = Clock::now();
  gate.reset_epoch();
  const Clock::time_point after = Clock::now();
  // After the reset, the next quantum is charged from zero again.
  const double expected_s =
      trace.transfer_end_time(kilobits(ShaperGate::kQuantumBytes), 0.0) /
      10.0;
  const Clock::time_point release =
      gate.quantum_release(ShaperGate::kQuantumBytes);
  EXPECT_LE(seconds(after, release), expected_s + 1e-6);
  EXPECT_GE(seconds(before, release), expected_s - 1e-6);
}

TEST(ShaperGate, LinkIsGrantedInFifoOrder) {
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  ShaperGate gate(trace, 1.0);
  EXPECT_TRUE(gate.acquire(1));
  EXPECT_TRUE(gate.acquire(1));  // the holder re-acquiring keeps the link
  EXPECT_FALSE(gate.acquire(2));
  EXPECT_FALSE(gate.acquire(3));
  EXPECT_EQ(gate.release(), 2u);
  EXPECT_EQ(gate.release(), 3u);
  EXPECT_EQ(gate.release(), 0u);  // nobody waiting: the link is free
  EXPECT_TRUE(gate.acquire(4));
}

TEST(ShaperGate, CancelOfHolderHandsLinkToNextWaiter) {
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  ShaperGate gate(trace, 1.0);
  ASSERT_TRUE(gate.acquire(1));
  ASSERT_FALSE(gate.acquire(2));
  ASSERT_FALSE(gate.acquire(3));
  EXPECT_EQ(gate.cancel(1), 2u);
  EXPECT_EQ(gate.release(), 3u);
  EXPECT_EQ(gate.cancel(3), 0u);  // last holder gone: nobody to grant
  EXPECT_TRUE(gate.acquire(5));
}

TEST(ShaperGate, CancelOfWaiterRemovesOnlyThatWaiter) {
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  ShaperGate gate(trace, 1.0);
  ASSERT_TRUE(gate.acquire(1));
  ASSERT_FALSE(gate.acquire(2));
  ASSERT_FALSE(gate.acquire(3));
  ASSERT_FALSE(gate.acquire(4));
  EXPECT_EQ(gate.cancel(3), 0u);  // the holder keeps the link
  EXPECT_FALSE(gate.acquire(5));
  EXPECT_EQ(gate.release(), 2u);
  EXPECT_EQ(gate.release(), 4u);
  EXPECT_EQ(gate.release(), 5u);
  EXPECT_EQ(gate.release(), 0u);
}

TEST(ShaperGate, ShapedSegmentFetchTakesTraceTime) {
  // Level 1 of the small manifest is 750 kbps * 4 s = 3000 kb; at 2 Mbps
  // that is 1.5 s of trace time, 0.15 s of wall time at speedup 10.
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  ChunkServer server(manifest, trace, /*speedup=*/10.0);
  server.start();
  HttpClient client("127.0.0.1", server.port(), 5000);
  server.reset_trace_clock();
  const Clock::time_point start = Clock::now();
  const HttpResponse response = client.get("/video/1/seg-0.m4s");
  const double wall = seconds(start, Clock::now());
  EXPECT_EQ(response.body.size(), 375u * 1000u);
  EXPECT_GT(wall, 0.12);
  EXPECT_LT(wall, 0.45);
  server.stop();
}

}  // namespace
}  // namespace abr::net
