// serve_mixed.
//
// One ChunkServer on the sharded engine (2 shards) serves a CBR ladder over
// loopback. Its trace is far above loopback speed, so shaping never binds;
// every segment body still holds the server's single ShaperGate link. Two
// closed-loop keep-alive HttpClient threads send a seeded mix: half whole
// segments (random rung and chunk, 175 KB-1.5 MB), half
// "Range: bytes=0-1023" requests answered with 206. Every body is checked
// byte for byte.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "media/manifest.hpp"
#include "net/chunk_server.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "probes.hpp"
#include "trace/throughput_trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Workload sizing (see perfbench/README.md for the reasons).
constexpr std::size_t kShards = 2;
constexpr std::size_t kClients = 2;
constexpr double kUnshapedKbps = 1e9;  // 1 Tbps: shaping never binds
constexpr std::size_t kRangeBytes = 1024;
// The untimed pass runs in this many rounds, each on a freshly set-up
// server, so set-up is timed this often, spread over the run. The
// calibration kernel runs kCalibrations times between rounds, while no
// server runs.
constexpr int kRounds = 10;
constexpr int kCalibrations = 3;
constexpr int kTimeoutMs = 10000;
// Throughput is sampled in windows of this length; the run reports its
// fast windows.
constexpr double kWindowS = 0.5;
// Requests per client whose digest is compared between the untimed and the
// traced pass.
constexpr std::size_t kDigestLimit = 4096;

struct Request {
  std::size_t chunk = 0;
  std::size_t level = 0;
  bool range = false;
};

Request draw(abr::util::Rng& rng, const abr::media::VideoManifest& manifest) {
  Request request;
  request.range = rng.uniform() < 0.5;
  request.level = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(manifest.level_count()) - 1));
  request.chunk = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(manifest.chunk_count()) - 1));
  return request;
}

std::string target_of(const Request& request) {
  return "/video/" + std::to_string(request.level) + "/seg-" +
         std::to_string(request.chunk) + ".m4s";
}

/// True when every byte of `body` equals `fill` (word-at-a-time).
bool all_bytes_equal(const std::string& body, char fill) {
  std::uint64_t pattern = 0;
  std::memset(&pattern, fill, sizeof pattern);
  const char* data = body.data();
  const std::size_t words = body.size() / 8;
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i * 8, 8);
    diff |= word ^ pattern;
  }
  for (std::size_t i = words * 8; i < body.size(); ++i) {
    diff |= static_cast<unsigned char>(data[i] ^ fill);
  }
  return diff == 0;
}

struct ClientStats {
  // Read by the window sampler while the client runs.
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> completed_bytes{0};

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> small_us;
  std::vector<double> segment_us;
  std::vector<double> small_ttfb_us;
  std::vector<double> segment_ttfb_us;
  double cpu_s = 0.0;
  std::vector<std::uint64_t> digests;
  SpanLog spans;
};

/// One closed-loop client: sends its seeded request sequence until
/// `deadline`, timing and checking every response.
void client_loop(std::uint16_t port, const abr::media::VideoManifest& manifest,
                 std::uint64_t seed, std::size_t client_id,
                 Clock::time_point deadline, bool traced, ClientStats& stats) {
  const double cpu_start = thread_cpu_s();
  abr::net::HttpClient client("127.0.0.1", port, kTimeoutMs);
  Fingerprint stream_seed;
  stream_seed.add(seed);
  stream_seed.add(client_id);
  abr::util::Rng rng(stream_seed.value());
  abr::net::HttpHeaders range_headers;
  range_headers.set("Range", "bytes=0-" + std::to_string(kRangeBytes - 1));
  std::int64_t first_byte_ns = 0;
  const auto on_progress = [&first_byte_ns](std::size_t bytes, bool) {
    if (first_byte_ns == 0 && bytes > 0) first_byte_ns = now_ns();
  };
  const abr::net::ProgressCallback progress = on_progress;

  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const Request request = draw(rng, manifest);
    const std::string target = target_of(request);
    const auto full_bytes = static_cast<std::size_t>(
        manifest.chunk_kilobits(request.chunk, request.level) * 1000.0 / 8.0);
    const char fill =
        static_cast<char>('A' + (request.chunk + request.level) % 26);
    const std::uint64_t owner =
        (static_cast<std::uint64_t>(client_id) << 48) | i;
    const bool keep = traced && sampled(seed, owner, 256);

    ++stats.attempted;
    first_byte_ns = 0;
    const std::int64_t start = now_ns();
    abr::net::HttpResponse response;
    try {
      response = request.range ? client.request(target, range_headers, progress)
                               : client.request(target, progress);
    } catch (const std::exception& error) {
      ++stats.failed;
      if (stats.failures.size() < 8) {
        stats.failures.push_back(target + ": " + error.what());
      }
      continue;
    }
    const std::int64_t end = now_ns();
    if (first_byte_ns == 0) first_byte_ns = end;

    const int want_status = request.range ? 206 : 200;
    const std::size_t want_bytes = request.range ? kRangeBytes : full_bytes;
    bool ok = response.status == want_status &&
              response.body.size() == want_bytes &&
              all_bytes_equal(response.body, fill);
    if (ok && request.range) {
      const std::string* content_range = response.headers.find("Content-Range");
      ok = content_range != nullptr &&
           *content_range == "bytes 0-" + std::to_string(kRangeBytes - 1) +
                                 "/" + std::to_string(full_bytes);
    }
    if (!ok) {
      ++stats.failed;
      if (stats.failures.size() < 8) {
        stats.failures.push_back(target + ": status " +
                                 std::to_string(response.status) + ", " +
                                 std::to_string(response.body.size()) +
                                 " body bytes");
      }
      continue;
    }
    const double latency_us = static_cast<double>(end - start) * 1e-3;
    const double ttfb_us = static_cast<double>(first_byte_ns - start) * 1e-3;
    (request.range ? stats.small_us : stats.segment_us).push_back(latency_us);
    (request.range ? stats.small_ttfb_us : stats.segment_ttfb_us)
        .push_back(ttfb_us);
    stats.completed.fetch_add(1, std::memory_order_relaxed);
    stats.completed_bytes.fetch_add(response.body.size(),
                                    std::memory_order_relaxed);
    if (stats.digests.size() < kDigestLimit) {
      Fingerprint digest;
      digest.add(request.chunk);
      digest.add(request.level);
      digest.add(static_cast<std::uint64_t>(response.status));
      digest.add(response.body.size());
      digest.add(static_cast<unsigned char>(response.body.front()));
      stats.digests.push_back(digest.value());
    }
    if (keep) {
      const std::int64_t span = static_cast<std::int64_t>(stats.spans.size());
      stats.spans.add("net.client.request", start, end, owner, -1);
      stats.spans.add("net.client.ttfb", start, first_byte_ns, owner, span);
    }
  }
  stats.cpu_s = thread_cpu_s() - cpu_start;
}

/// Both clients for `seconds`, sampled in fixed windows.
/// Starts a server and warms its fill buffers: one top-rung segment per
/// fill character, so every shared body buffer reaches full size.
std::unique_ptr<abr::net::ChunkServer> start_server(
    const abr::media::VideoManifest& manifest,
    const abr::trace::ThroughputTrace& trace) {
  abr::net::ChunkServerOptions server_options;
  server_options.engine = abr::net::ServerEngine::kSharded;
  server_options.shards = kShards;
  auto server = std::make_unique<abr::net::ChunkServer>(manifest, trace, 1.0,
                                                        server_options);
  server->start();
  abr::net::HttpClient warm("127.0.0.1", server->port(), kTimeoutMs);
  const std::size_t top = manifest.level_count() - 1;
  for (std::size_t fill = 0; fill < 26; ++fill) {
    const std::size_t chunk = (fill + 26 - top % 26) % 26;
    (void)warm.get(target_of(Request{chunk, top, false}));
  }
  return server;
}

/// Everything a pass measured, over all of its rounds.
struct Pass {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  double client_cpu_s = 0.0;
  std::size_t served = 0;  ///< requests_served() past the warm-up
  std::size_t shed = 0;
  std::vector<double> small_us, segment_us, small_ttfb_us, segment_ttfb_us;
  // Per window, sorted: completed requests per second and body MB per
  // second.
  std::vector<double> window_rate;
  std::vector<double> window_goodput_mb;
  /// Per round: process CPU per completed request, microseconds, as
  /// measured and at the reference speed (when calibrated).
  std::vector<double> round_cpu_us;
  std::vector<double> round_reference_us;
  /// First round only: per-client response digests and sampled spans.
  std::vector<std::vector<std::uint64_t>> digests;
  std::vector<SpanLog> spans;
};

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Both clients against `server` for `seconds`, sampled in windows of about
/// kWindowS; adds what they measured to `pass`.
void run_round(abr::net::ChunkServer& server,
               const abr::media::VideoManifest& manifest, std::uint64_t seed,
               double seconds, bool traced, Pass& pass, RunResult& result) {
  std::vector<std::unique_ptr<ClientStats>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ClientStats>());
  }
  const std::size_t served_before = server.requests_served();
  const double cpu_start = process_cpu_s();
  const Clock::time_point start = Clock::now();
  const auto after = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const int windows = std::max(1, static_cast<int>(seconds / kWindowS + 0.5));
  const double window_s = seconds / windows;
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c, port = server.port()] {
        ClientStats& stats = *clients[c];
        try {
          client_loop(port, manifest, seed, c, after(seconds), traced, stats);
        } catch (const std::exception& error) {
          ++stats.failed;
          stats.failures.push_back(std::string("client aborted: ") +
                                   error.what());
        }
      });
    }
    // This thread only samples the clients' progress at window edges.
    std::uint64_t last_done = 0;
    std::uint64_t last_bytes = 0;
    for (int w = 1; w <= windows; ++w) {
      std::this_thread::sleep_until(after(w * window_s));
      std::uint64_t done = 0;
      std::uint64_t bytes = 0;
      for (const auto& stats : clients) {
        done += stats->completed.load(std::memory_order_relaxed);
        bytes += stats->completed_bytes.load(std::memory_order_relaxed);
      }
      const auto window_done = static_cast<double>(done - last_done);
      pass.window_rate.push_back(window_done / window_s);
      pass.window_goodput_mb.push_back(
          static_cast<double>(bytes - last_bytes) / 1e6 / window_s);
      last_done = done;
      last_bytes = bytes;
    }
  }  // jthreads join here
  pass.wall_s += seconds_since(start);
  pass.process_cpu_s += process_cpu_s() - cpu_start;
  const std::size_t served = server.requests_served() - served_before;
  pass.served += served;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const bool first_round = pass.digests.empty();
  for (const auto& client : clients) {
    ClientStats& stats = *client;
    attempted += stats.attempted;
    failed += stats.failed;
    pass.client_cpu_s += stats.cpu_s;
    append(pass.small_us, stats.small_us);
    append(pass.segment_us, stats.segment_us);
    append(pass.small_ttfb_us, stats.small_ttfb_us);
    append(pass.segment_ttfb_us, stats.segment_ttfb_us);
    for (const std::string& failure : stats.failures) {
      result.notes.push_back("FAIL " + failure);
    }
    if (first_round) {
      pass.digests.push_back(std::move(stats.digests));
      pass.spans.push_back(std::move(stats.spans));
    }
  }
  pass.attempted += attempted;
  pass.failed += failed;
  pass.completed += attempted - failed;
  result.attempted += attempted;
  if (failed > 0) {
    result.fail(failed, std::to_string(failed) +
                            " requests failed or returned wrong bytes");
  }
  if (served != attempted) {
    result.fail(0, "server counted " + std::to_string(served) +
                       " requests, clients sent " + std::to_string(attempted));
  }
}

/// `rounds` rounds of: run the calibration kernel while no server runs
/// (when given), set up a fresh server, serve both clients for
/// seconds / rounds, stop it. With a calibration, the set-up CPU time of
/// each round is added to `setup_s` and its CPU per request to
/// `pass.round_reference_us`, both at the reference speed.
Pass run_pass(const abr::media::VideoManifest& manifest,
              const abr::trace::ThroughputTrace& trace, std::uint64_t seed,
              double seconds, int rounds, bool traced, Calibration* calibration,
              std::vector<double>& setup_s, RunResult& result) {
  Pass pass;
  for (int r = 0; r < rounds; ++r) {
    std::unique_ptr<abr::net::ChunkServer> server;
    const auto set_up = [&] { server = start_server(manifest, trace); };
    if (calibration != nullptr) {
      calibration->sample(kCalibrations);
      setup_s.push_back(calibration->to_reference(setup_cpu_s(set_up)));
    } else {
      set_up();
    }
    const double cpu_before = pass.process_cpu_s;
    const std::uint64_t completed_before = pass.completed;
    run_round(*server, manifest, seed, seconds / rounds, traced, pass, result);
    const std::uint64_t done = pass.completed - completed_before;
    const double cpu_us = (pass.process_cpu_s - cpu_before) * 1e6 /
                          static_cast<double>(std::max<std::uint64_t>(1, done));
    pass.round_cpu_us.push_back(cpu_us);
    if (calibration != nullptr) {
      pass.round_reference_us.push_back(calibration->to_reference(cpu_us));
    }
    pass.shed += server->shed_connections();
    server->stop();
    server.reset();
    malloc_trim(0);  // the next round's peak RSS is one server's
  }
  for (auto* windows : {&pass.window_rate, &pass.window_goodput_mb}) {
    std::sort(windows->begin(), windows->end());
  }
  if (pass.shed != 0) {
    result.fail(0, std::to_string(pass.shed) + " connections shed");
  }
  return pass;
}

void note_latency(RunResult& result, const char* what,
                  const std::vector<double>& samples) {
  const LatencySummary s = summarize(samples);
  std::ostringstream line;
  line << what << ": n=" << s.count << " p50=" << s.p50 << "us p99=" << s.p99
       << "us";
  if (s.tail_q > 0.99) {
    line << " p" << s.tail_q * 100.0 << "=" << s.tail << "us";
  }
  result.notes.push_back(line.str());
}

}  // namespace

RunResult run_serve(const RunOptions& options) {
  RunResult result;
  const abr::media::VideoManifest manifest =
      abr::media::VideoManifest::envivio_default();
  const abr::trace::ThroughputTrace unshaped =
      abr::trace::ThroughputTrace::constant(kUnshapedKbps, 3600.0);

  // Untimed pass, in rounds that each start from a freshly set-up server,
  // so the set-up samples are spread over the run.
  const double untimed_seconds =
      options.trace ? options.seconds / 2.0 : options.seconds;
  const int rounds = options.trace ? kRounds / 2 : kRounds;
  Calibration calibration(static_cast<int>(kClients + kShards));
  std::vector<double> setup_s;
  const Pass plain =
      run_pass(manifest, unshaped, options.seed, untimed_seconds, rounds,
               false, &calibration, setup_s, result);
  result.metrics["setup_s"] = median(setup_s);
  // The end-to-end figure is the CPU cost per request, each round scaled
  // by the calibration kernel run just before it: time the hypervisor
  // steals from a vCPU stalls the closed loop (the rates swing 2x on a busy
  // host) but is not CPU time of this process. The rates are per-layer
  // figures, at the 90th percentile of the windows, since other tenants
  // only ever slow the loop down.
  const double cpu_us = median(plain.round_cpu_us);
  result.metrics["cpu_us_per_op"] = median(plain.round_reference_us);
  result.metrics["peak_rss_mb"] =
      (peak_rss_kb() - calibration.resident_kb()) / 1024.0;
  result.metrics["net.req_per_s"] = quantile_sorted(plain.window_rate, 0.9);
  result.metrics["net.goodput_mb_per_s"] =
      quantile_sorted(plain.window_goodput_mb, 0.9);
  const LatencySummary small = summarize(plain.small_us);
  const LatencySummary segment = summarize(plain.segment_us);
  result.metrics["net.client.small.p50_us"] = small.p50;
  result.metrics["net.client.small.p99_us"] = small.p99;
  result.metrics["net.client.segment.p50_us"] = segment.p50;
  result.metrics["net.client.segment.p99_us"] = segment.p99;
  result.metrics["net.client.segment.ttfb_p99_us"] =
      summarize(plain.segment_ttfb_us).p99;
  note_latency(result, "small (1 KiB range)", plain.small_us);
  note_latency(result, "segment", plain.segment_us);
  note_latency(result, "segment ttfb", plain.segment_ttfb_us);
  result.metrics["net.server.shed"] = static_cast<double>(plain.shed);
  std::ostringstream note;
  note << "serve: " << kClients << " clients, " << kShards << " shards, "
       << rounds << " rounds, " << plain.completed
       << " checked responses untimed, " << cpu_us
       << " us CPU per request; calibration kernel "
       << calibration.median_s() << " s (reference "
       << Calibration::kReferenceS << " s)";
  result.notes.push_back(note.str());

  if (!options.trace) return result;

  // Traced pass: the same request sequences with the registry on (for
  // abr_http_request_latency_us) and client-side spans for a sample.
  abr::obs::MetricsRegistry& registry = abr::obs::MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  std::vector<double> unused;
  const Pass traced =
      run_pass(manifest, unshaped, options.seed, options.seconds / 2.0,
               rounds, true, nullptr, unused, result);
  registry.set_enabled(false);

  for (std::size_t c = 0; c < kClients; ++c) {
    const std::vector<std::uint64_t>& a = plain.digests[c];
    const std::vector<std::uint64_t>& b = traced.digests[c];
    const std::size_t common = std::min(a.size(), b.size());
    if (!std::equal(a.begin(), a.begin() + common, b.begin())) {
      result.fail(0, "client " + std::to_string(c) +
                         " received different bytes in the traced pass");
    }
  }
  // CPU and request counts per wall second of serving.
  result.metrics["net.client.cpu_s"] = traced.client_cpu_s / traced.wall_s;
  result.metrics["net.server.cpu_s"] =
      (traced.process_cpu_s - traced.client_cpu_s) / traced.wall_s;
  result.metrics["net.server.requests_served"] =
      static_cast<double>(traced.served) / traced.wall_s;
  result.metrics["net.server.shed"] =
      static_cast<double>(plain.shed + traced.shed);
  result.metrics["net.client.ttfb.small.p50_us"] =
      summarize(traced.small_ttfb_us).p50;
  result.metrics["net.client.ttfb.segment.p50_us"] =
      summarize(traced.segment_ttfb_us).p50;
  const abr::obs::MetricsSnapshot snapshot = registry.snapshot();
  if (const auto it = snapshot.histograms.find(abr::obs::kHttpRequestLatencyUs);
      it != snapshot.histograms.end()) {
    result.metrics["net.server.request.p99_us"] = it->second.p99;
  }
  result.metrics["obs.trace_overhead_frac"] =
      median(traced.round_cpu_us) / cpu_us - 1.0;
  if (!options.spans_out.empty()) {
    std::vector<const SpanLog*> logs;
    for (const SpanLog& log : traced.spans) logs.push_back(&log);
    if (!SpanLog::write(options.spans_out, logs)) {
      result.fail(0, "cannot write spans to " + options.spans_out);
    }
  }
  return result;
}

}  // namespace perfbench
