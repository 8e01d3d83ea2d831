#include "net/telemetry.hpp"

#include <sstream>
#include <utility>

#include "obs/journal.hpp"
#include "obs/names.hpp"

namespace abr::net {

std::string statusz_json(const TelemetryStatus& status) {
  std::string out = "{";
  out += "\"uptime_s\":" + obs::json_number(status.uptime_s);
  out += ",\"draining\":";
  out += status.draining ? "true" : "false";
  out += ",\"active_connections\":" +
         std::to_string(status.active_connections);
  out += ",\"peak_connections\":" + std::to_string(status.peak_connections);
  out += ",\"shed_connections\":" + std::to_string(status.shed_connections);
  out += ",\"requests_served\":" + std::to_string(status.requests_served);
  out += "}";
  return out;
}

bool is_telemetry_target(std::string_view target) {
  return target == "/metrics" || target == "/statusz";
}

HttpResponse telemetry_response(obs::MetricsRegistry& registry,
                                std::string_view target,
                                const TelemetryStatus& status) {
  HttpResponse response;
  if (target == "/metrics") {
    std::ostringstream body;
    registry.write_prometheus(body);
    response.headers.set("Content-Type", kPrometheusContentType);
    response.body = std::move(body).str();
  } else {
    response.headers.set("Content-Type", "application/json");
    response.body = statusz_json(status) + "\n";
  }
  return response;
}

namespace {

/// Reactor settings: one shard is plenty for a handful of scrapers, and the
/// one deadline bounds reading the request, writing the response, and how
/// long a shed connection may take to send the request it owes.
EpollServer::EpollServerOptions reactor_options() {
  EpollServer::EpollServerOptions options;
  options.shards = 1;
  options.max_connections = TelemetryServer::kMaxConnections;
  options.idle_timeout_ms = TelemetryServer::kDeadlineMs;
  options.reject_timeout_ms = TelemetryServer::kDeadlineMs;
  return options;
}

/// The one-request-per-connection reply: Connection: close, then EOF.
EpollServer::Response closing(HttpResponse response) {
  response.headers.set("Connection", "close");
  EpollServer::Response out;
  out.head = response_head(response.status, response.reason,
                           response.headers, response.body.size());
  out.body_inline = std::move(response.body);
  out.telemetry = true;
  out.close_after = true;
  return out;
}

}  // namespace

TelemetryServer::TelemetryServer(obs::MetricsRegistry& registry)
    : registry_(&registry),
      metrics_requests_(&obs::MetricsRegistry::global().counter(
          obs::kTelemetryRequestsTotal,
          obs::telemetry_endpoint_label("/metrics"))),
      statusz_requests_(&obs::MetricsRegistry::global().counter(
          obs::kTelemetryRequestsTotal,
          obs::telemetry_endpoint_label("/statusz"))),
      scrape_latency_(&obs::MetricsRegistry::global().histogram(
          obs::kTelemetryScrapeLatencyUs, "",
          obs::exponential_buckets(10.0, 2.0, 16))),
      deadline_exceeded_(&obs::MetricsRegistry::global().counter(
          obs::kTelemetryDeadlineExceededTotal)),
      // The cast happens here because the Handler base is private.
      server_(static_cast<EpollServer::Handler*>(this), reactor_options()) {}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::start(std::uint16_t port) {
  started_ = std::chrono::steady_clock::now();
  server_.start(port);
}

void TelemetryServer::stop() { server_.stop(); }

TelemetryStatus TelemetryServer::status() const {
  TelemetryStatus status;
  status.uptime_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - started_)
                        .count();
  status.draining = server_.draining();
  status.active_connections = server_.active_connections();
  status.peak_connections = server_.peak_connections();
  status.shed_connections = server_.rejected_connections();
  status.requests_served = requests_served_.load();
  return status;
}

EpollServer::Response TelemetryServer::on_request(const HttpRequest& request) {
  ++requests_served_;
  HttpResponse response;
  if (request.method != "GET") {
    response.status = 405;
    response.reason = "Method Not Allowed";
    response.headers.set("Allow", "GET");
  } else if (is_telemetry_target(request.target)) {
    (request.target == "/metrics" ? metrics_requests_ : statusz_requests_)
        ->increment();
    response = telemetry_response(*registry_, request.target, status());
  } else if (request.target == "/healthz") {
    response.headers.set("Content-Type", "text/plain");
    response.body = "ok\n";
  } else {
    response.status = 404;
    response.reason = "Not Found";
  }
  return closing(std::move(response));
}

EpollServer::Response TelemetryServer::on_bad_request() {
  HttpResponse bad;
  bad.status = 400;
  bad.reason = "Bad Request";
  return closing(std::move(bad));
}

EpollServer::Response TelemetryServer::on_reject() {
  HttpResponse response;
  response.status = 503;
  response.reason = "Service Unavailable";
  response.headers.set("Retry-After", "1");
  response.body = "overloaded\n";
  return closing(std::move(response));
}

void TelemetryServer::on_response_done(
    const EpollServer::Response& /*response*/,
    EpollServer::Response::Kind kind, double wall_us,
    EpollServer::Outcome outcome) {
  if (kind != EpollServer::Response::Kind::kRequest) return;
  scrape_latency_->observe(wall_us);
  // Write-deadline trips and peers gone mid-response: the scrape was shed
  // rather than queued.
  if (outcome != EpollServer::Outcome::kComplete) {
    deadline_exceeded_->increment();
  }
}

}  // namespace abr::net
