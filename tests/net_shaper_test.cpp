// The emulated access link (ShaperGate): quantum release instants follow the
// trace's cumulative allowance, scaled by the speedup; a claim charges every
// quantum released by its instant; and the link is one FIFO that hands
// itself from holder to waiter. The release checks are exact: the gate's
// epoch is bracketed by two clock reads, so no test sleeps.
#include "net/shaper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "media/manifest.hpp"
#include "net/chunk_server.hpp"
#include "net/epoll_server.hpp"
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

/// Release instant of the gate's next quantum of at most `bytes`, which it
/// then charges at exactly that instant: the per-quantum schedule, one
/// quantum at a time. An empty claim names the instant without charging.
Clock::time_point release_one(ShaperGate& gate, std::size_t bytes) {
  const ShaperGate::Claim waiting = gate.claim(bytes, Clock::time_point::min());
  EXPECT_EQ(waiting.bytes, 0u);
  const std::size_t quantum = std::min(ShaperGate::kQuantumBytes, bytes);
  EXPECT_EQ(gate.claim(bytes, waiting.next_release).bytes, quantum);
  return waiting.next_release;
}

/// Paces `bytes` through a fresh gate in kQuantumBytes quanta, one quantum
/// per claim, and returns the release instant of the last quantum as
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
    release = release_one(gate, bytes - sent);
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
  // 8 s of trace time already charged.
  ASSERT_EQ(gate.claim(1000 * 1000, Clock::time_point::max()).bytes,
            1000u * 1000u);
  const Clock::time_point before = Clock::now();
  gate.reset_epoch();
  const Clock::time_point after = Clock::now();
  // After the reset, the next quantum is charged from zero again.
  const double expected_s =
      trace.transfer_end_time(kilobits(ShaperGate::kQuantumBytes), 0.0) /
      10.0;
  const Clock::time_point release =
      gate.claim(ShaperGate::kQuantumBytes, Clock::time_point::min())
          .next_release;
  EXPECT_LE(seconds(after, release), expected_s + 1e-6);
  EXPECT_GE(seconds(before, release), expected_s - 1e-6);
}

/// Checks batched claims against the per-quantum schedule of `bytes` on
/// `trace`. A reference gate releases the body one quantum per claim; its
/// release instants, taken relative to its first, are exact offsets
/// between quanta (both gates compute them with the same arithmetic). A
/// second gate's empty claim names its own first instant, which pins every
/// later one exactly. Claims at and one clock tick before chosen release
/// instants must then charge exactly the quanta released by then.
void expect_claims_follow_schedule(const trace::ThroughputTrace& trace,
                                   double speedup, std::size_t bytes) {
  ShaperGate reference(trace, speedup);
  std::vector<Clock::time_point> schedule;  // release instant of quantum k
  std::vector<std::size_t> ends;            // body offset after quantum k
  for (std::size_t sent = 0; sent < bytes;) {
    schedule.push_back(release_one(reference, bytes - sent));
    sent += std::min(ShaperGate::kQuantumBytes, bytes - sent);
    ends.push_back(sent);
  }
  ASSERT_GE(schedule.size(), 8u);
  for (std::size_t k = 1; k < schedule.size(); ++k) {
    ASSERT_LT(schedule[k - 1], schedule[k]);  // distinct probe instants
  }

  const Clock::time_point before = Clock::now();
  ShaperGate gate(trace, speedup);
  const Clock::time_point after = Clock::now();
  const ShaperGate::Claim first = gate.claim(bytes, before);
  ASSERT_EQ(first.bytes, 0u);  // nothing is released at the epoch
  // The first release sits at the first quantum's trace time.
  const double first_s =
      trace.transfer_end_time(kilobits(ends[0]), 0.0) / speedup;
  EXPECT_LE(seconds(after, first.next_release), first_s + 1e-6);
  EXPECT_GE(seconds(before, first.next_release), first_s - 1e-6);
  auto release_of = [&](std::size_t k) {
    return first.next_release + (schedule[k] - schedule[0]);
  };

  // Probe quanta (0-based) in increasing order; the last is the body's end.
  const std::size_t last = schedule.size() - 1;
  std::size_t sent = 0;
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              last / 2, last - 1, last}) {
    const std::size_t before_k = k == 0 ? 0 : ends[k - 1];
    if (before_k < sent) continue;  // already claimed by an earlier probe
    // One tick early: every quantum before k, and no more.
    const ShaperGate::Claim early =
        gate.claim(bytes - sent, release_of(k) - Clock::duration(1));
    EXPECT_EQ(early.bytes, before_k - sent) << "quantum " << k;
    sent += early.bytes;
    if (early.bytes == 0) {
      // An empty claim names the next quantum's release instant.
      EXPECT_EQ(early.next_release, release_of(k)) << "quantum " << k;
    }
    // At its instant: quantum k too.
    const ShaperGate::Claim on_time = gate.claim(bytes - sent, release_of(k));
    EXPECT_EQ(on_time.bytes, ends[k] - sent) << "quantum " << k;
    sent += on_time.bytes;
  }
  EXPECT_EQ(sent, bytes);
}

TEST(ShaperGate, ClaimsFollowTheQuantumScheduleOnConstantTrace) {
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  expect_claims_follow_schedule(trace, 10.0, 500 * 1000);
}

TEST(ShaperGate, ClaimsFollowTheQuantumScheduleAcrossRateChanges) {
  // The 2 s step falls inside the body: 1 Mbps carries 250 kB of it.
  const trace::ThroughputTrace trace({{2.0, 1000.0}, {10.0, 8000.0}});
  expect_claims_follow_schedule(trace, 10.0, 500 * 1000);
}

TEST(ShaperGate, ClaimsFollowTheQuantumScheduleUnderSpeedup) {
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  expect_claims_follow_schedule(trace, 50.0, 250 * 1000 + 123);
}

TEST(ShaperGate, ClaimNeverCrossesMaxBytes) {
  // 1 Tbps: every quantum is released long before "now".
  const auto trace = trace::ThroughputTrace::constant(1e9, 1000.0);
  ShaperGate gate(trace, 1.0);
  const Clock::time_point later = Clock::now() + std::chrono::seconds(1);
  // Two whole quanta and a short one that ends at the limit.
  EXPECT_EQ(gate.claim(40000, later).bytes, 40000u);
  EXPECT_EQ(gate.claim(5, later).bytes, 5u);
  EXPECT_EQ(gate.claim(ShaperGate::kQuantumBytes, later).bytes,
            ShaperGate::kQuantumBytes);
  // A long limit is claimed whole when it is all released.
  EXPECT_EQ(gate.claim(1500 * 1000, later).bytes, 1500u * 1000u);
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

TEST(ShaperGate, UnboundShapedSegmentArrivesByteExact) {
  // At 1 Tbps the trace never binds, so each send carries everything left
  // of the body; the top rung of the default ladder is 3000 kbps * 4 s =
  // 1.5 MB, 92 quanta.
  const auto manifest = media::VideoManifest::envivio_default();
  const auto trace = trace::ThroughputTrace::constant(1e9, 1000.0);
  ChunkServer server(manifest, trace, /*speedup=*/1.0);
  server.start();
  HttpClient client("127.0.0.1", server.port(), 5000);
  const std::size_t top = manifest.level_count() - 1;
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{3}}) {
    const HttpResponse response = client.get(
        "/video/" + std::to_string(top) + "/seg-" + std::to_string(chunk) +
        ".m4s");
    const auto expected_bytes = static_cast<std::size_t>(
        manifest.chunk_kilobits(chunk, top) * 1000.0 / 8.0);
    ASSERT_EQ(response.body.size(), expected_bytes);
    ASSERT_GT(expected_bytes, 90 * ShaperGate::kQuantumBytes);
    const char fill = static_cast<char>('A' + (chunk + top) % 26);
    EXPECT_EQ(response.body, std::string(expected_bytes, fill));
  }
  server.stop();
}

/// Serves "/<plain|shaped>/<offset>/<length>" as that slice of its block
/// repeated end to end, so tests can check the reactor's tiling byte by
/// byte on a block whose bytes differ by position.
class TiledBodyHandler final : public EpollServer::Handler {
 public:
  explicit TiledBodyHandler(std::shared_ptr<const std::string> block)
      : block_(std::move(block)) {}

  EpollServer::Response on_request(const HttpRequest& request) override {
    const std::string& target = request.target;
    const std::size_t second = target.find('/', 1);
    const std::size_t third = target.find('/', second + 1);
    EpollServer::Response response;
    response.shaped = target.substr(1, second - 1) == "shaped";
    response.body_shared = block_;
    response.body_offset =
        std::stoul(target.substr(second + 1, third - second - 1));
    response.body_length = std::stoul(target.substr(third + 1));
    response.head = response_head(200, "OK", HttpHeaders{},
                                  response.body_length);
    return response;
  }
  EpollServer::Response on_bad_request() override { return closing(400); }
  EpollServer::Response on_reject() override { return closing(503); }
  void on_response_done(const EpollServer::Response&,
                        EpollServer::Response::Kind, double,
                        EpollServer::Outcome) override {}

 private:
  static EpollServer::Response closing(int status) {
    EpollServer::Response response;
    response.head = response_head(status, "Error", HttpHeaders{}, 0);
    response.close_after = true;
    return response;
  }

  std::shared_ptr<const std::string> block_;
};

TEST(ShaperGate, RepeatedBlockBodiesArriveByteExact) {
  // A 1000-byte block: quanta (16 KB) and the 64-iovec send cap both end
  // mid-block, and the offsets start mid-block.
  std::string block(1000, '\0');
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<char>((i * 7919) % 251);
  }
  const auto shared = std::make_shared<const std::string>(block);
  // 8 Mbps at speedup 10: 200 kB takes 20 ms, one quantum per claim.
  const auto trace = trace::ThroughputTrace::constant(8000.0, 1000.0);
  ShaperGate gate(trace, 10.0);
  TiledBodyHandler handler(shared);
  EpollServer::EpollServerOptions options;
  options.shards = 1;
  EpollServer server(&handler, options);
  server.set_shaper_gate(&gate);
  server.start();
  HttpClient client("127.0.0.1", server.port(), 5000);
  for (const char* kind : {"plain", "shaped"}) {
    for (const auto& [offset, length] :
         {std::pair<std::size_t, std::size_t>{0, 1000},
          {1234, 200 * 1000}, {999, 1}, {5, 0}}) {
      const HttpResponse response =
          client.get(std::string("/") + kind + "/" + std::to_string(offset) +
                     "/" + std::to_string(length));
      std::string expected(length, '\0');
      for (std::size_t i = 0; i < length; ++i) {
        expected[i] = block[(offset + i) % block.size()];
      }
      EXPECT_EQ(response.body, expected)
          << kind << " offset " << offset << " length " << length;
    }
  }
  server.stop();
}

}  // namespace
}  // namespace abr::net
