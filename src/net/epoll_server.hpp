#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "net/socket.hpp"

namespace abr::net {

class ShaperGate;

/// Sharded epoll server: one accept thread pins connections to N reactor
/// shards round-robin; each shard owns one epoll instance, one timer heap,
/// and a private connection table (no global connection lock on the serving
/// path). Sockets are nonblocking and edge-triggered; request parsing is an
/// incremental state machine with the same limits and error behaviour as
/// the blocking HttpConnection (8 KB request line, 64 KB header block,
/// slowloris idle deadlines), and response bodies are written zero-copy
/// from shared immutable blocks via sendmsg.
///
/// The server is protocol-agnostic above the request boundary: a Handler
/// turns each parsed request into a fully planned Response (pre-serialized
/// head, body slice, pacing/fault directives). Routing lives in the
/// handlers: ChunkServer (the DASH origin) and TelemetryServer (the
/// standalone scrape endpoint).
class EpollServer final {
 public:
  /// A fully planned response. The head is pre-serialized (status line,
  /// headers, Content-Length, blank line); the body is either an owned
  /// string or cut from a shared immutable block (zero-copy: one block can
  /// back any number of in-flight responses of any length).
  struct Response {
    /// Which handler planned this response — on_response_done uses it to
    /// decide what to account (e.g. request latency only for kRequest).
    enum class Kind { kRequest, kBadRequest, kReject };

    std::string head;
    std::string body_inline;
    /// When set (non-empty), the body is `body_length` bytes of this block
    /// repeated end to end, starting at `body_offset` of the first copy;
    /// body_inline is then unused.
    std::shared_ptr<const std::string> body_shared;
    std::size_t body_offset = 0;
    std::size_t body_length = 0;

    /// Pace the body through the shaper gate (the emulated access link).
    bool shaped = false;
    /// Telemetry-plane response: written under write_deadline_ms, and a
    /// deadline trip is reported via Handler::on_response_done.
    bool telemetry = false;
    /// Close the connection after the response is written (drain, the
    /// client's Connection: close, 503, 400); the write side is shut down
    /// first so the peer sees EOF.
    bool close_after = false;
    /// Drop the connection without writing anything (fault kReset).
    bool reset = false;
    /// First-byte delay in wall seconds (fault kLatencySpike).
    double first_byte_delay_s = 0.0;
    /// When >= 0: stall for stall_wall_s after this fraction of the body
    /// (fault kStall). The link is released while stalled.
    double stall_after_fraction = -1.0;
    double stall_wall_s = 0.0;
    /// When >= 0: shut the connection down after this fraction of the body
    /// (fault kPartialBody; the head still promises full Content-Length).
    double truncate_after_fraction = -1.0;
    /// Per-write-progress deadline for this response; 0 uses the
    /// transport-wide idle deadline.
    int write_deadline_ms = 0;

    std::size_t body_size() const {
      return body_shared != nullptr ? body_length : body_inline.size();
    }
  };

  /// How a response delivery ended (Handler::on_response_done).
  enum class Outcome {
    kComplete,       ///< body fully written (or deliberately truncated)
    kWriteDeadline,  ///< peer stalled past the response's write deadline
    kPeerGone,       ///< connection died mid-response
  };

  /// Request-plane callbacks, invoked on reactor threads (must be
  /// thread-safe). All four must be set.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A complete request was parsed; plan its response.
    virtual Response on_request(const HttpRequest& request) = 0;
    /// The request was malformed (bad framing, oversized line/headers, EOF
    /// mid-message); plan the terse 400. The connection closes after it.
    virtual Response on_bad_request() = 0;
    /// The connection was refused by the admission cap and its (best
    /// effort) request has been consumed; plan the terse 503.
    virtual Response on_reject() = 0;
    /// A response finished; wall_us covers parse-complete to last byte.
    virtual void on_response_done(const Response& response,
                                  Response::Kind kind, double wall_us,
                                  Outcome outcome) = 0;
  };

  struct EpollServerOptions {
    /// Reactor shard count; 0 picks a small default from the host.
    std::size_t shards = 0;
    /// Admission cap on live connections; 0 = unlimited.
    std::size_t max_connections = 0;
    /// Per-progress socket deadline (slowloris guard), milliseconds.
    int idle_timeout_ms = 120000;
    /// Read deadline for admission-rejected connections, milliseconds (the
    /// 503 goes out even when the deadline fires mid-request).
    int reject_timeout_ms = 2000;
  };

  /// The handler and gate (optional) must outlive the server.
  EpollServer(Handler* handler, EpollServerOptions options);
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Attaches the pacing gate for shaped bodies. Must be set before
  /// start() when any Response uses shaped=true.
  void set_shaper_gate(ShaperGate* gate) { gate_ = gate; }

  /// Binds 127.0.0.1 and starts accepting; port 0 picks an ephemeral port.
  /// A stopped (or drained) server may be started again — passing the old
  /// port() restarts the origin on the same address, which is how the
  /// chaos harness brings a killed origin back.
  void start(std::uint16_t port = 0);

  /// Hard stop: closes every live connection and joins every thread.
  void stop();

  /// Graceful shutdown: stops accepting, waits up to `deadline_s` for
  /// in-flight connections to finish on their own, then force-closes the
  /// stragglers. Returns the number of forced closes. Idempotent with
  /// stop() in either order.
  std::size_t drain(double deadline_s);

  /// True from the moment drain() begins until the next start().
  bool draining() const { return draining_.load(); }

  std::uint16_t port() const { return port_; }

  /// Connections currently live (admitted and rejected alike).
  std::size_t active_connections() const { return live_.load(); }
  std::size_t peak_connections() const { return peak_.load(); }
  /// Connections refused by the admission cap.
  std::size_t rejected_connections() const { return rejected_.load(); }
  /// Connection-table entries across shards (tests use this to show closed
  /// connections are reclaimed, keeping the tables bounded).
  std::size_t tracked_connections() const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  class Shard;

  void accept_loop();
  void join_shards();
  /// Hands a released/cancelled link grant to the ticket's shard (no-op for
  /// ticket 0).
  void forward_grant(std::uint64_t ticket);

  Handler* handler_;
  EpollServerOptions options_;
  ShaperGate* gate_ = nullptr;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> forced_closes_{0};
  std::uint64_t next_serial_ = 0;  ///< accept-thread only
};

}  // namespace abr::net
