#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/epoll_server.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"

namespace abr::net {

/// Content type of a Prometheus text-format (0.0.4) scrape body.
inline constexpr char kPrometheusContentType[] =
    "text/plain; version=0.0.4; charset=utf-8";

/// Point-in-time server state rendered by /statusz.
struct TelemetryStatus {
  double uptime_s = 0.0;
  bool draining = false;
  std::size_t active_connections = 0;
  std::size_t peak_connections = 0;
  std::size_t shed_connections = 0;
  std::size_t requests_served = 0;
};

/// Compact single-line JSON for /statusz.
std::string statusz_json(const TelemetryStatus& status);

/// True for the request targets served by the telemetry plane (/metrics and
/// /statusz). Telemetry responses bypass traffic shaping and are written
/// under a hard per-request deadline, so a scrape can never worsen overload.
bool is_telemetry_target(std::string_view target);

/// Builds the /metrics (Prometheus text exposition) or /statusz (JSON)
/// response. `target` must satisfy is_telemetry_target().
HttpResponse telemetry_response(obs::MetricsRegistry& registry,
                                std::string_view target,
                                const TelemetryStatus& status);

/// Standalone scrape endpoint for client-side processes (`abrsim
/// --telemetry-port`): serves GET /metrics, /statusz, and /healthz from a
/// registry on a one-shard EpollServer. Each connection carries one request,
/// answered with Connection: close. A scraper that stalls sending its
/// request or reading the response for kDeadlineMs is disconnected, and
/// connections past kMaxConnections are shed with a terse 503 — never
/// queued. The registry must outlive the server.
class TelemetryServer : private EpollServer::Handler {
 public:
  /// Admission cap on concurrent scrape connections.
  static constexpr std::size_t kMaxConnections = 4;
  /// Idle and write deadline per connection, milliseconds. A write-deadline
  /// trip counts in abr_telemetry_deadline_exceeded_total.
  static constexpr int kDeadlineMs = 250;

  explicit TelemetryServer(obs::MetricsRegistry& registry);
  ~TelemetryServer() override;

  /// Port 0 picks an ephemeral port.
  void start(std::uint16_t port = 0);
  void stop();

  std::uint16_t port() const { return server_.port(); }
  std::size_t requests_served() const { return requests_served_.load(); }
  std::size_t shed_connections() const {
    return server_.rejected_connections();
  }

 private:
  // EpollServer::Handler (reactor thread).
  EpollServer::Response on_request(const HttpRequest& request) override;
  EpollServer::Response on_bad_request() override;
  EpollServer::Response on_reject() override;
  void on_response_done(const EpollServer::Response& response,
                        EpollServer::Response::Kind kind, double wall_us,
                        EpollServer::Outcome outcome) override;

  TelemetryStatus status() const;

  obs::MetricsRegistry* registry_;
  std::chrono::steady_clock::time_point started_;
  std::atomic<std::size_t> requests_served_{0};

  obs::Counter* metrics_requests_;
  obs::Counter* statusz_requests_;
  obs::Histogram* scrape_latency_;
  obs::Counter* deadline_exceeded_;

  EpollServer server_;  ///< last: its threads call back into the members
};

}  // namespace abr::net
