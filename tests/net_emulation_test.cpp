#include <gtest/gtest.h>

#include "core/buffer_based.hpp"
#include "core/mpc_controller.hpp"
#include "media/mpd.hpp"
#include "net/chunk_server.hpp"
#include "net/streaming_client.hpp"
#include "predict/predictor.hpp"
#include "test_helpers.hpp"

namespace abr::net {
namespace {

TEST(ParseSegmentPath, ValidPaths) {
  std::size_t level = 99;
  std::size_t number = 99;
  ASSERT_TRUE(parse_segment_path("/video/2/seg-17.m4s", level, number));
  EXPECT_EQ(level, 2u);
  EXPECT_EQ(number, 17u);
  ASSERT_TRUE(parse_segment_path("/video/0/seg-0.m4s", level, number));
  EXPECT_EQ(level, 0u);
  EXPECT_EQ(number, 0u);
}

TEST(ParseSegmentPath, RejectsMalformed) {
  std::size_t level = 0;
  std::size_t number = 0;
  EXPECT_FALSE(parse_segment_path("/video/2/seg-17.mp4", level, number));
  EXPECT_FALSE(parse_segment_path("/video/x/seg-17.m4s", level, number));
  EXPECT_FALSE(parse_segment_path("/video/2/frag-17.m4s", level, number));
  EXPECT_FALSE(parse_segment_path("/audio/2/seg-17.m4s", level, number));
  EXPECT_FALSE(parse_segment_path("/video/2/seg-.m4s", level, number));
  EXPECT_FALSE(parse_segment_path("/video/2", level, number));
}

TEST(ChunkServer, ServesManifestAndSegments) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(50000.0, 1000.0);
  ChunkServer server(manifest, trace, 100.0);
  server.start();

  HttpClient client("127.0.0.1", server.port());
  const HttpResponse mpd_response = client.get("/manifest.mpd");
  const auto fetched = media::from_mpd(mpd_response.body);
  EXPECT_EQ(fetched.chunk_count(), manifest.chunk_count());
  EXPECT_EQ(fetched.level_count(), manifest.level_count());

  const HttpResponse segment = client.get("/video/1/seg-3.m4s");
  const auto expected_bytes =
      static_cast<std::size_t>(manifest.chunk_kilobits(3, 1) * 1000.0 / 8.0);
  EXPECT_EQ(segment.body.size(), expected_bytes);
  EXPECT_GE(server.requests_served(), 2u);
  server.stop();
}

TEST(ChunkServer, Returns404ForUnknownPaths) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(50000.0, 1000.0);
  ChunkServer server(manifest, trace, 100.0);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  EXPECT_THROW(client.get("/nope"), std::runtime_error);
  EXPECT_THROW(client.get("/video/9/seg-1.m4s"), std::runtime_error);  // level OOR
  EXPECT_THROW(client.get("/video/0/seg-999.m4s"), std::runtime_error);
  server.stop();
}

TEST(HttpChunkSource, FetchesAndMeasures) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(3000.0, 1000.0);
  const double speedup = 100.0;
  ChunkServer server(manifest, trace, speedup);
  server.start();
  HttpChunkSource source("127.0.0.1", server.port(), manifest, speedup);
  server.reset_trace_clock();

  const media::VideoManifest fetched = source.fetch_manifest();
  EXPECT_EQ(fetched.chunk_count(), 8u);

  // Chunk at level 2 = 6000 kb over a 3000 kbps shaped link: ~2 s of
  // session time.
  const sim::FetchOutcome outcome = source.fetch(0, 2, {});
  EXPECT_NEAR(outcome.kilobits, 6000.0, 1.0);
  EXPECT_GT(outcome.duration_s, 1.0);
  EXPECT_LT(outcome.duration_s, 4.0);
  server.stop();
}

TEST(Emulation, FullSessionMatchesSimulatorShape) {
  // The headline integration check: the emulated (real TCP, shaped) session
  // must produce buffer/bitrate behaviour close to the virtual-time
  // simulation on the same trace.
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(1600.0, 1000.0);
  sim::SessionConfig config;

  core::BufferBasedController bb_sim(5.0, 10.0);
  predict::HarmonicMeanPredictor pred_sim(5);
  const sim::SessionResult simulated =
      sim::simulate(trace, manifest, qoe, config, bb_sim, pred_sim);

  core::BufferBasedController bb_net(5.0, 10.0);
  predict::HarmonicMeanPredictor pred_net(5);
  const sim::SessionResult emulated = run_emulated_session(
      trace, manifest, qoe, config, bb_net, pred_net, /*speedup=*/60.0);

  ASSERT_EQ(emulated.chunks.size(), simulated.chunks.size());
  // Same decision sequence (BB depends only on buffer, which evolves almost
  // identically) and similar aggregate outcomes.
  EXPECT_NEAR(emulated.average_bitrate_kbps, simulated.average_bitrate_kbps,
              260.0);
  EXPECT_NEAR(emulated.total_rebuffer_s, simulated.total_rebuffer_s, 1.5);
  EXPECT_NEAR(emulated.startup_delay_s, simulated.startup_delay_s, 0.5);
}

TEST(Emulation, MpcControllerRunsOverRealHttp) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const trace::ThroughputTrace trace({{5.0, 2500.0}, {5.0, 900.0}});
  sim::SessionConfig config;
  core::MpcConfig mpc_config;
  mpc_config.robust = true;
  core::MpcController controller(manifest, qoe, mpc_config);
  predict::HarmonicMeanPredictor predictor(5);
  const sim::SessionResult result = run_emulated_session(
      trace, manifest, qoe, config, controller, predictor, /*speedup=*/60.0);
  ASSERT_EQ(result.chunks.size(), manifest.chunk_count());
  EXPECT_GT(result.average_bitrate_kbps, 0.0);
}

}  // namespace
}  // namespace abr::net
