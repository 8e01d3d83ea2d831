#include "net/chunk_server.hpp"

#include <chrono>

#include "media/mpd.hpp"
#include "net/faults.hpp"
#include "net/telemetry.hpp"
#include "obs/names.hpp"
#include "util/strings.hpp"

namespace abr::net {

namespace {

/// Reactor settings for an origin with these serving knobs.
EpollServer::EpollServerOptions reactor_options(
    const ChunkServerOptions& options) {
  EpollServer::EpollServerOptions reactor;
  reactor.shards = options.shards;
  reactor.max_connections = options.max_connections;
  reactor.idle_timeout_ms = options.idle_timeout_ms;
  return reactor;
}

/// True when the request's Connection header carries the `close` token.
bool wants_close(const HttpRequest& request) {
  const std::string* value = request.headers.find("Connection");
  if (value == nullptr) return false;
  for (const std::string_view token : util::split(*value, ',')) {
    if (util::iequals(util::trim(token), "close")) return true;
  }
  return false;
}

std::string serialize_head(const RoutedResponse& response) {
  return response_head(response.status, response.reason, response.headers,
                       response.body_size());
}

/// Replaces a routed response with an injected HTTP error (fault
/// kHttpError), dropping any shared body slice.
void apply_http_error(RoutedResponse& response, int status) {
  response.status = status;
  response.reason = "Service Unavailable";
  response.headers = HttpHeaders{};
  response.body_inline = "injected fault\n";
  response.body_shared = nullptr;
  response.body_offset = 0;
  response.body_length = 0;
}

}  // namespace

bool parse_segment_path(std::string_view target, std::size_t& level,
                        std::size_t& number) {
  constexpr std::string_view kPrefix = "/video/";
  constexpr std::string_view kSeg = "seg-";
  constexpr std::string_view kExt = ".m4s";
  if (!util::starts_with(target, kPrefix)) return false;
  target.remove_prefix(kPrefix.size());
  const std::size_t slash = target.find('/');
  if (slash == std::string_view::npos) return false;
  if (!util::parse_size(target.substr(0, slash), level)) return false;
  target.remove_prefix(slash + 1);
  if (!util::starts_with(target, kSeg)) return false;
  target.remove_prefix(kSeg.size());
  if (target.size() <= kExt.size() ||
      target.substr(target.size() - kExt.size()) != kExt) {
    return false;
  }
  return util::parse_size(target.substr(0, target.size() - kExt.size()),
                          number);
}

ChunkServer::ChunkServer(const media::VideoManifest& manifest,
                         const trace::ThroughputTrace& trace, double speedup,
                         ChunkServerOptions options)
    : manifest_(&manifest),
      mpd_(media::to_mpd(manifest)),
      speedup_(speedup),
      options_(std::move(options)),
      requests_counter_(&obs::MetricsRegistry::global().counter(
          obs::kHttpRequestsTotal, options_.metric_label)),
      bytes_counter_(&obs::MetricsRegistry::global().counter(
          obs::kHttpBytesServedTotal, options_.metric_label)),
      connections_gauge_(&obs::MetricsRegistry::global().gauge(
          obs::kHttpActiveConnections, options_.metric_label)),
      peak_connections_gauge_(&obs::MetricsRegistry::global().gauge(
          obs::kHttpPeakConnections, options_.metric_label)),
      shed_counter_(&obs::MetricsRegistry::global().counter(
          obs::kOriginShedTotal, options_.metric_label)),
      drain_forced_counter_(&obs::MetricsRegistry::global().counter(
          obs::kDrainForcedClosesTotal, options_.metric_label)),
      bad_request_malformed_(&obs::MetricsRegistry::global().counter(
          obs::kHttpBadRequestsTotal, obs::bad_request_label("malformed"))),
      bad_request_method_(&obs::MetricsRegistry::global().counter(
          obs::kHttpBadRequestsTotal, obs::bad_request_label("method"))),
      bad_request_not_found_(&obs::MetricsRegistry::global().counter(
          obs::kHttpBadRequestsTotal, obs::bad_request_label("not_found"))),
      bad_request_range_(&obs::MetricsRegistry::global().counter(
          obs::kHttpBadRequestsTotal, obs::bad_request_label("range"))),
      range_requests_(&obs::MetricsRegistry::global().counter(
          obs::kHttpRangeRequestsTotal, options_.metric_label)),
      request_latency_(&obs::MetricsRegistry::global().histogram(
          obs::kHttpRequestLatencyUs, options_.metric_label)),
      telemetry_metrics_requests_(&obs::MetricsRegistry::global().counter(
          obs::kTelemetryRequestsTotal,
          obs::telemetry_endpoint_label("/metrics"))),
      telemetry_statusz_requests_(&obs::MetricsRegistry::global().counter(
          obs::kTelemetryRequestsTotal,
          obs::telemetry_endpoint_label("/statusz"))),
      telemetry_scrape_latency_(&obs::MetricsRegistry::global().histogram(
          obs::kTelemetryScrapeLatencyUs, "",
          obs::exponential_buckets(10.0, 2.0, 16))),
      telemetry_deadline_counter_(&obs::MetricsRegistry::global().counter(
          obs::kTelemetryDeadlineExceededTotal)),
      gate_(trace, speedup),
      // The cast happens here because the Handler base is private.
      server_(static_cast<EpollServer::Handler*>(this),
              reactor_options(options_)) {
  server_.set_shaper_gate(&gate_);
}

ChunkServer::~ChunkServer() { stop(); }

void ChunkServer::start(std::uint16_t port) {
  started_ = std::chrono::steady_clock::now();
  server_.start(port);
}

void ChunkServer::stop() {
  server_.stop();
  flush_metrics();
}

double ChunkServer::uptime_s() const {
  if (started_ == std::chrono::steady_clock::time_point{}) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_)
      .count();
}

void ChunkServer::flush_metrics() {
  // Shed connections force-closed before their 503 was planned never
  // counted themselves: the transport's rejected tally is ground truth.
  const std::size_t rejected = server_.rejected_connections();
  const std::size_t handled = shed_handled_.exchange(rejected);
  if (rejected > handled) {
    shed_counter_->increment(static_cast<double>(rejected - handled));
  }
  const auto peak = static_cast<double>(server_.peak_connections());
  if (peak > peak_connections_gauge_->value()) {
    peak_connections_gauge_->set(peak);
  }
  connections_gauge_->set(static_cast<double>(server_.active_connections()));
}

std::size_t ChunkServer::drain(double deadline_s) {
  const std::size_t forced = server_.drain(deadline_s);
  if (forced > 0) {
    drain_forced_counter_->increment(static_cast<double>(forced));
  }
  flush_metrics();
  return forced;
}

void ChunkServer::reset_trace_clock() { gate_.reset_epoch(); }

std::shared_ptr<const std::string> ChunkServer::fill_block(char fill) const {
  const util::MutexLock lock(fill_mutex_);
  std::shared_ptr<const std::string>& slot = fill_blocks_[fill - 'A'];
  if (slot == nullptr) {
    slot = std::make_shared<const std::string>(kFillBlockBytes, fill);
  }
  return slot;
}

RoutedResponse ChunkServer::route(const HttpRequest& request) const {
  RoutedResponse response;
  if (request.method != "GET") {
    bad_request_method_->increment();
    response.status = 405;
    response.reason = "Method Not Allowed";
    response.headers.set("Allow", "GET");
    return response;
  }
  if (request.target == "/healthz") {
    response.headers.set("Content-Type", "text/plain");
    if (server_.draining()) {
      response.status = 503;
      response.reason = "Service Unavailable";
      response.body_inline = "draining\n";
    } else {
      response.body_inline = "ok\n";
    }
    return response;
  }
  if (is_telemetry_target(request.target)) {
    // Live telemetry plane: the registry scrape and the status snapshot.
    // Bodies are sent unshaped under the telemetry deadline so a scrape can
    // never worsen overload.
    if (request.target == "/metrics") {
      telemetry_metrics_requests_->increment();
    } else {
      telemetry_statusz_requests_->increment();
    }
    // Connections open and close on reactor threads without a callback;
    // refresh the gauge from transport truth at every scrape.
    connections_gauge_->set(
        static_cast<double>(server_.active_connections()));
    TelemetryStatus status;
    status.uptime_s = uptime_s();
    status.draining = server_.draining();
    status.active_connections = server_.active_connections();
    status.peak_connections = server_.peak_connections();
    status.shed_connections = server_.rejected_connections();
    status.requests_served = requests_served_.load();
    const HttpResponse scrape = telemetry_response(
        obs::MetricsRegistry::global(), request.target, status);
    response.status = scrape.status;
    response.reason = scrape.reason;
    response.headers = scrape.headers;
    response.body_inline = scrape.body;
    response.telemetry = true;
    return response;
  }
  if (request.target == "/manifest.mpd") {
    response.headers.set("Content-Type", "application/dash+xml");
    response.body_inline = mpd_;
    return response;
  }
  std::size_t level = 0;
  std::size_t number = 0;
  if (parse_segment_path(request.target, level, number) &&
      level < manifest_->level_count() && number < manifest_->chunk_count()) {
    const double kilobits = manifest_->chunk_kilobits(number, level);
    const auto bytes = static_cast<std::size_t>(kilobits * 1000.0 / 8.0);
    response.headers.set("Content-Type", "video/iso.segment");
    response.headers.set("Accept-Ranges", "bytes");
    // Deterministic filler payload; content is irrelevant to the transport.
    // The body repeats a shared per-character block — response delivery
    // never copies chunk bytes.
    const char fill = static_cast<char>('A' + (number + level) % 26);
    response.body_shared = fill_block(fill);
    response.body_offset = 0;
    response.body_length = bytes;
    if (const std::string* range_header = request.headers.find("Range")) {
      ByteRange range;
      switch (parse_range_header(*range_header, bytes, range)) {
        case RangeParse::kNone:
          break;  // ignored per RFC 7233: the full body goes out as a 200
        case RangeParse::kValid:
          range_requests_->increment();
          response.status = 206;
          response.reason = "Partial Content";
          response.headers.set(
              "Content-Range", "bytes " + std::to_string(range.first) + "-" +
                                   std::to_string(range.last) + "/" +
                                   std::to_string(bytes));
          response.body_offset = range.first;
          response.body_length = range.last - range.first + 1;
          break;
        case RangeParse::kUnsatisfiable:
          bad_request_range_->increment();
          response.status = 416;
          response.reason = "Range Not Satisfiable";
          response.headers.set("Content-Range",
                               "bytes */" + std::to_string(bytes));
          response.body_shared = nullptr;
          response.body_length = 0;
          break;
      }
    }
    return response;
  }
  bad_request_not_found_->increment();
  response.status = 404;
  response.reason = "Not Found";
  return response;
}

// --- request plane ---------------------------------------------------------
//
// The EpollServer parses requests and delivers responses; these callbacks
// (reactor threads) plan each one as route → count → close header → fault →
// bytes counter, expressed as directives (delays, stalls, pacing) that the
// reactor carries out with timers instead of sleeps.

EpollServer::Response ChunkServer::on_request(const HttpRequest& request) {
  RoutedResponse routed = route(request);
  ++requests_served_;
  requests_counter_->increment();

  // Close after this response when draining (keep-alive sessions end at
  // the next request boundary) or when the client asked to.
  const bool close_after = server_.draining() || wants_close(request);
  if (close_after) routed.headers.set("Connection", "close");

  EpollServer::Response out;

  // Fault injection applies to segment requests only (the MPD and error
  // responses go out faithfully).
  testing::FaultDecision fault;
  std::size_t level = 0;
  std::size_t number = 0;
  if (injector_ != nullptr &&
      (routed.status == 200 || routed.status == 206) &&
      parse_segment_path(request.target, level, number)) {
    fault = injector_->next(number);
  }
  if (fault.kind == testing::FaultKind::kReset) {
    // Tear the connection down without answering: the client's read fails
    // mid-request.
    out.reset = true;
    return out;
  }
  if (fault.kind == testing::FaultKind::kHttpError) {
    apply_http_error(routed, injector_->plan().http_status);
  }
  if (fault.kind == testing::FaultKind::kLatencySpike) {
    // First-byte delay, in wall time scaled like the shaper.
    out.first_byte_delay_s = fault.latency_s / speedup_;
  }
  if (fault.kind == testing::FaultKind::kStall) {
    out.stall_after_fraction = fault.body_fraction;
    out.stall_wall_s = fault.stall_s / speedup_;
  }
  if (fault.kind == testing::FaultKind::kPartialBody) {
    // The head still promises the full Content-Length — the client must
    // detect the short body.
    out.truncate_after_fraction = fault.body_fraction;
  }

  bytes_counter_->increment(static_cast<double>(routed.body_size()));

  out.head = serialize_head(routed);
  out.body_inline = std::move(routed.body_inline);
  out.body_shared = std::move(routed.body_shared);
  out.body_offset = routed.body_offset;
  out.body_length = routed.body_length;
  out.telemetry = routed.telemetry;
  if (routed.telemetry) {
    // Telemetry goes out unshaped (never queued behind a shaped segment
    // send) under the same hard deadline as the standalone telemetry
    // endpoint: a scraper that stops reading is disconnected — shed, not
    // queued.
    out.shaped = false;
    out.write_deadline_ms = TelemetryServer::kDeadlineMs;
  } else {
    out.shaped = true;
  }
  out.close_after = close_after;
  return out;
}

EpollServer::Response ChunkServer::on_bad_request() {
  bad_request_malformed_->increment();
  RoutedResponse routed;
  routed.status = 400;
  routed.reason = "Bad Request";
  routed.headers.set("Connection", "close");
  routed.body_inline = "bad request\n";
  EpollServer::Response out;
  out.head = serialize_head(routed);
  out.body_inline = std::move(routed.body_inline);
  out.close_after = true;
  return out;
}

EpollServer::Response ChunkServer::on_reject() {
  shed_counter_->increment();
  shed_handled_.fetch_add(1);
  RoutedResponse routed;
  routed.status = 503;
  routed.reason = "Service Unavailable";
  routed.headers.set("Retry-After", std::to_string(options_.retry_after_s));
  routed.headers.set("Connection", "close");
  routed.body_inline = "overloaded\n";
  EpollServer::Response out;
  out.head = serialize_head(routed);
  out.body_inline = std::move(routed.body_inline);
  out.close_after = true;
  return out;
}

void ChunkServer::on_response_done(const EpollServer::Response& response,
                                   EpollServer::Response::Kind kind,
                                   double wall_us,
                                   EpollServer::Outcome outcome) {
  if (kind != EpollServer::Response::Kind::kRequest) return;
  // Request latency covers routing plus the (shaped) body send — the time
  // the client actually waits, i.e. the emulated link is part of it.
  request_latency_->observe(wall_us);
  if (response.telemetry) {
    telemetry_scrape_latency_->observe(wall_us);
    if (outcome != EpollServer::Outcome::kComplete) {
      // The write deadline is the only bound on a telemetry write, so any
      // failed one counts as a deadline trip.
      telemetry_deadline_counter_->increment();
    }
  }
}

}  // namespace abr::net
