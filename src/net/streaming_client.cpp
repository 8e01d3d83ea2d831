#include "net/streaming_client.hpp"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "media/mpd.hpp"
#include "net/chunk_server.hpp"
#include "net/faults.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "util/mutex.hpp"
#include "util/strings.hpp"

namespace abr::net {

namespace {

bool is_timeout(const std::system_error& error) {
  const std::error_code& code = error.code();
  return code == std::errc::resource_unavailable_try_again ||
         code == std::errc::operation_would_block ||
         code == std::errc::timed_out;
}

std::string segment_target(std::size_t chunk, std::size_t level) {
  return "/video/" + std::to_string(level) + "/seg-" + std::to_string(chunk) +
         ".m4s";
}

/// Extracts the first-byte position from "Content-Range: bytes F-L/N".
bool parse_content_range_start(const std::string& value, std::size_t& first) {
  std::string_view v = util::trim(value);
  if (!util::starts_with(v, "bytes ")) return false;
  v.remove_prefix(6);
  const std::size_t dash = v.find('-');
  if (dash == std::string_view::npos) return false;
  return util::parse_size(util::trim(v.substr(0, dash)), first);
}

/// One GET attempt of a chunk (or of its suffix) under the abort monitor.
struct ControlledAttempt {
  enum class Status { kComplete, kAborted, kFailed };
  Status status = Status::kFailed;
  std::size_t have_bytes = 0;      ///< valid prefix after this attempt
  std::size_t received_bytes = 0;  ///< bytes that landed during it
  bool resumed = false;            ///< a Range request was issued
};

/// GETs `target` (a range resume when `have_bytes` > 0) under a wall-clock
/// watchdog translating the FetchControl deadline projection into real time
/// (session seconds = wall seconds * speedup). The watchdog cancels the
/// request via HttpClient::abort() — the caller must treat that outcome as
/// self-inflicted (no breaker report, no failure count).
ControlledAttempt controlled_attempt(HttpClient& client,
                                     const std::string& target,
                                     std::size_t have_bytes,
                                     std::size_t total_bytes,
                                     const sim::FetchControl& control,
                                     double speedup) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.counter(obs::kHttpRequestsTotal, "side=\"client\"").increment();

  ControlledAttempt result;
  result.have_bytes = have_bytes;

  HttpHeaders headers;
  if (have_bytes > 0) {
    headers.set("Range", "bytes=" + std::to_string(have_bytes) + "-");
    result.resumed = true;
    registry.counter(obs::kHttpRangeRequestsTotal, "side=\"client\"")
        .increment();
  }

  std::atomic<std::size_t> received{0};
  std::atomic<bool> done{false};
  std::atomic<bool> self_abort{false};

  std::thread watchdog;
  if (control.abort_enabled && control.check_interval_s > 0.0) {
    watchdog = std::thread([&] {
      const auto start = std::chrono::steady_clock::now();
      const auto interval =
          std::chrono::duration<double>(control.check_interval_s / speedup);
      const auto goal_bytes = static_cast<double>(total_bytes - have_bytes);
      while (!done.load()) {
        std::this_thread::sleep_for(interval);
        if (done.load()) break;
        const double elapsed_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count() *
            speedup;
        if (elapsed_s < control.min_observation_s) continue;
        const auto done_bytes = static_cast<double>(received.load());
        const double rate = done_bytes / elapsed_s;  // bytes per session-s
        const double remaining = goal_bytes - done_bytes;
        const double cushion =
            std::max(0.0, control.buffer_s - elapsed_s);
        if (rate <= 0.0 || remaining / rate > cushion + control.max_stall_s) {
          self_abort.store(true);
          client.abort();
          break;
        }
      }
    });
  }
  const auto finish_watchdog = [&] {
    done.store(true);
    if (watchdog.joinable()) watchdog.join();
  };

  try {
    const HttpResponse response = client.request(
        target, headers,
        [&received](std::size_t bytes_so_far, bool) {
          received.store(bytes_so_far);
        });
    finish_watchdog();
    if (response.status == 206) {
      std::size_t first = 0;
      const std::string* content_range =
          response.headers.find("Content-Range");
      if (content_range != nullptr &&
          parse_content_range_start(*content_range, first) &&
          first == have_bytes) {
        result.received_bytes = response.body.size();
        result.have_bytes =
            std::min(have_bytes + response.body.size(), total_bytes);
        if (result.have_bytes >= total_bytes) {
          result.status = ControlledAttempt::Status::kComplete;
        }
      }
      // A 206 from the wrong offset is discarded: credit unchanged, the
      // attempt reads as failed and the retry loop reissues the range.
    } else if (response.status == 200) {
      // Origin ignored (or never saw) the range: the full body replaces
      // whatever prefix we held.
      result.received_bytes = response.body.size();
      result.have_bytes = std::min(response.body.size(), total_bytes);
      if (result.have_bytes >= total_bytes) {
        result.status = ControlledAttempt::Status::kComplete;
      }
    } else if (response.status == 416 && have_bytes >= total_bytes) {
      // Resume offset == body length: the origin is telling us we already
      // hold the whole chunk.
      result.status = ControlledAttempt::Status::kComplete;
    } else if (response.status >= 300 && response.status < 500) {
      throw std::runtime_error("HTTP GET " + target + " -> " +
                               std::to_string(response.status));
    }
    // Other statuses (5xx, unexpected 416): retryable failure.
  } catch (const std::system_error& error) {
    finish_watchdog();
    const std::size_t landed = received.load();
    result.received_bytes = landed;
    result.have_bytes = std::min(have_bytes + landed, total_bytes);
    if (self_abort.load()) {
      result.status = ControlledAttempt::Status::kAborted;
    } else if (is_timeout(error)) {
      registry.counter(obs::kFetchTimeoutsTotal).increment();
    }
  } catch (const std::invalid_argument&) {
    // Truncated mid-body (or the watchdog's shutdown surfaced as framing):
    // the landed prefix stays valid under range resume.
    finish_watchdog();
    const std::size_t landed = received.load();
    result.received_bytes = landed;
    result.have_bytes = std::min(have_bytes + landed, total_bytes);
    if (self_abort.load()) {
      result.status = ControlledAttempt::Status::kAborted;
    }
  }
  return result;
}

}  // namespace

HttpChunkSource::HttpChunkSource(std::string host, std::uint16_t port,
                                 const media::VideoManifest& manifest,
                                 double speedup, sim::RetryPolicy retry,
                                 std::uint64_t jitter_seed)
    : HttpChunkSource(
          std::vector<OriginEndpoint>{OriginEndpoint{std::move(host), port}},
          manifest, speedup, retry, jitter_seed) {}

HttpChunkSource::HttpChunkSource(std::vector<OriginEndpoint> origins,
                                 const media::VideoManifest& manifest,
                                 double speedup, sim::RetryPolicy retry,
                                 std::uint64_t jitter_seed,
                                 FailoverOptions failover)
    : origins_(std::move(origins)),
      manifest_(&manifest),
      speedup_(speedup),
      retry_(retry),
      failover_(failover),
      pool_(origins_.empty() ? 1 : origins_.size(), failover.breaker,
            failover.seed),
      jitter_rng_(jitter_seed),
      epoch_(std::chrono::steady_clock::now()) {
  if (origins_.empty()) {
    throw std::invalid_argument("HttpChunkSource: need at least one origin");
  }
  if (speedup <= 0.0) {
    throw std::invalid_argument("HttpChunkSource: non-positive speedup");
  }
  if (retry_.max_attempts == 0) {
    throw std::invalid_argument("HttpChunkSource: max_attempts must be >= 1");
  }
  clients_.reserve(origins_.size());
  for (const OriginEndpoint& origin : origins_) {
    clients_.push_back(std::make_unique<HttpClient>(
        origin.host, origin.port, retry_.request_timeout_ms));
  }
}

double HttpChunkSource::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(elapsed).count() * speedup_;
}

sim::FetchOutcome HttpChunkSource::fetch(std::size_t chunk, std::size_t level,
                                         const sim::FetchControl& control) {
  const std::string target = segment_target(chunk, level);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::LatencyTimer latency(&registry.histogram(obs::kHttpFetchLatencyUs));
  obs::Counter& retries_total = registry.counter(obs::kFetchRetriesTotal);
  obs::Counter& failures_total =
      registry.counter(obs::kFetchAttemptFailuresTotal);
  obs::Counter& failovers_total = registry.counter(obs::kOriginFailoversTotal);

  const double total_kb = manifest_->chunk_kilobits(chunk, level);
  const auto total_bytes = static_cast<std::size_t>(total_kb * 1000.0 / 8.0);
  // Resume credit in whole bytes, rounded down — never claim an undelivered
  // byte.
  const std::size_t credit_bytes = std::min(
      static_cast<std::size_t>(control.resume_from_kilobits * 125.0),
      total_bytes);
  std::size_t have_bytes = credit_bytes;
  std::size_t transferred_bytes = 0;

  const double start_session_s = now();
  sim::FetchOutcome outcome;
  outcome.attempts = 0;

  const auto finish = [&](bool failed, bool aborted) {
    outcome.failed = failed;
    outcome.aborted = aborted;
    outcome.kilobits = static_cast<double>(transferred_bytes) * 8.0 / 1000.0;
    // A completed chunk is exactly the manifest's size: whole-byte rounding
    // must not shave the recorded size of a VBR chunk.
    outcome.delivered_kilobits =
        failed || aborted ? static_cast<double>(have_bytes) * 8.0 / 1000.0
                          : total_kb;
    outcome.duration_s = std::max(now() - start_session_s, 1e-6);
    outcome.origin = current_origin_;
    latency.stop();
    return outcome;
  };

  if (!control.keep_prefix && failover_.hedge_startup && clients_.size() > 1 &&
      chunk < failover_.hedge_chunks) {
    const std::optional<std::size_t> body =
        try_hedged_fetch(target, have_bytes, total_bytes, outcome.attempts);
    if (body.has_value()) {
      transferred_bytes = *body;
      return finish(false, false);
    }
    // No eligible second origin, or both legs failed: the retry loop
    // finishes the job with whatever attempt budget remains.
  }

  // The RetryPolicy budget applies per origin; the breaker usually fails
  // over long before one origin's budget is exhausted.
  const std::size_t budget = retry_.max_attempts * clients_.size();
  std::size_t consecutive_failures = 0;
  while (outcome.attempts < budget) {
    if (have_bytes >= total_bytes) return finish(false, false);
    ++outcome.attempts;
    const std::optional<std::size_t> origin = pool_.acquire(current_origin_);
    if (!origin.has_value()) {
      // Every breaker is open and no probe is due. The denied consults
      // advanced each probe schedule, so a later cycle will be let through;
      // the backoff below keeps this loop from spinning.
      failures_total.increment();
    } else {
      if (*origin != current_origin_) {
        ++failovers_;
        failovers_total.increment();
        current_origin_ = *origin;
      }
      const ControlledAttempt result = controlled_attempt(
          *clients_[*origin], target, have_bytes, total_bytes, control,
          speedup_);
      have_bytes = result.have_bytes;
      transferred_bytes += result.received_bytes;
      if (result.resumed) ++outcome.resumes;
      switch (result.status) {
        case ControlledAttempt::Status::kComplete:
          pool_.report_success(*origin);
          return finish(false, false);
        case ControlledAttempt::Status::kAborted:
          // Self-inflicted: the breaker must not open on it and it is not
          // an attempt failure.
          return finish(false, true);
        case ControlledAttempt::Status::kFailed:
          pool_.report_failure(*origin);
          failures_total.increment();
          if (!control.keep_prefix) {
            // The truncated body is discarded: the next attempt refetches
            // from the credit and counts only its own bytes.
            have_bytes = credit_bytes;
            transferred_bytes = 0;
          }
          break;
      }
    }
    ++consecutive_failures;
    if (outcome.attempts < budget) {
      retries_total.increment();
      const double backoff_s =
          retry_.backoff_s(consecutive_failures, jitter_rng_);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff_s / speedup_));
    }
  }
  return finish(/*failed=*/have_bytes < total_bytes, false);
}

std::optional<std::size_t> HttpChunkSource::try_hedged_fetch(
    const std::string& target, std::size_t have_bytes,
    std::size_t total_bytes, std::size_t& burned) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::optional<std::size_t> primary = pool_.acquire(current_origin_);
  if (!primary.has_value()) return std::nullopt;
  if (*primary != current_origin_) {
    ++failovers_;
    registry.counter(obs::kOriginFailoversTotal).increment();
    current_origin_ = *primary;
  }

  // Legs run without the abort monitor: a self-aborted leg would be
  // indistinguishable from a lost race. A leg yields its body size when it
  // completes the chunk.
  const sim::FetchControl whole_body;
  const auto leg_attempt = [&](std::size_t origin) {
    const ControlledAttempt result =
        controlled_attempt(*clients_[origin], target, have_bytes, total_bytes,
                           whole_body, speedup_);
    return result.status == ControlledAttempt::Status::kComplete
               ? std::optional<std::size_t>(result.received_bytes)
               : std::nullopt;
  };

  const std::optional<std::size_t> secondary = pool_.hedge_target(*primary);
  if (!secondary.has_value()) {
    // Nobody healthy to race against; honour the claim we already made with
    // a single ordinary attempt, then let the retry loop take over.
    ++burned;
    const std::optional<std::size_t> body = leg_attempt(*primary);
    if (body.has_value()) {
      pool_.report_success(*primary);
      return body;
    }
    pool_.report_failure(*primary);
    registry.counter(obs::kFetchAttemptFailuresTotal).increment();
    return std::nullopt;
  }

  ++hedges_launched_;
  registry.counter(obs::kHedgedRequestsTotal).increment();

  struct Leg {
    bool done = false;
    std::optional<std::size_t> body;
  };
  util::Mutex mutex;
  util::CondVar cv;
  Leg legs[2];
  bool hedge_ran = false;
  const std::size_t leg_origin[2] = {*primary, *secondary};

  std::thread hedge([&] {
    if (failover_.hedge_delay_s > 0.0) {
      const util::MutexLock lock(mutex);
      const bool primary_won = cv.wait_for(
          mutex,
          std::chrono::duration<double>(failover_.hedge_delay_s / speedup_),
          [&] { return legs[0].done && legs[0].body.has_value(); });
      if (primary_won) {
        legs[1].done = true;  // cancelled before launch
        cv.notify_all();
        return;
      }
    }
    {
      const util::MutexLock lock(mutex);
      hedge_ran = true;
    }
    const std::optional<std::size_t> body = leg_attempt(leg_origin[1]);
    bool primary_done = false;
    {
      const util::MutexLock lock(mutex);
      legs[1].done = true;
      legs[1].body = body;
      primary_done = legs[0].done;
      cv.notify_all();
    }
    // A winning hedge cancels the still-running primary leg: its blocked
    // read fails and the main thread moves on immediately instead of riding
    // the slow origin to its socket timeout.
    if (body.has_value() && !primary_done) clients_[leg_origin[0]]->abort();
  });

  const std::optional<std::size_t> primary_result = leg_attempt(leg_origin[0]);
  bool hedge_pending = false;
  {
    const util::MutexLock lock(mutex);
    legs[0].done = true;
    legs[0].body = primary_result;
    hedge_pending = !legs[1].done;
    cv.notify_all();
  }

  if (primary_result.has_value()) {
    // Primary won; cancel a still-running hedge (harmless no-op when the
    // hedge is idle or already finished).
    if (hedge_pending) clients_[leg_origin[1]]->abort();
    hedge.join();
    pool_.report_success(leg_origin[0]);
    // The hedge leg is never reported: a failure may only mean we aborted
    // it, and the breaker must not open on self-inflicted errors.
    burned += 1 + (hedge_ran ? 1 : 0);
    return primary_result;
  }

  // Primary failed — genuinely, or because a winning hedge aborted it.
  std::optional<std::size_t> hedge_result;
  {
    const util::MutexLock lock(mutex);
    cv.wait(mutex, [&] { return legs[1].done; });
    hedge_result = legs[1].body;
  }
  hedge.join();

  const bool hedge_won = hedge_result.has_value();
  // Skip the primary's failure report only when the hedge finished first
  // and won (the abort case); a failure that predates the hedge's finish is
  // real even if the hedge went on to win.
  if (hedge_pending || !hedge_won) {
    pool_.report_failure(leg_origin[0]);
    registry.counter(obs::kFetchAttemptFailuresTotal).increment();
  }

  if (hedge_won) {
    pool_.report_success(leg_origin[1]);
    ++hedge_wins_;
    registry.counter(obs::kHedgeWinsTotal).increment();
    current_origin_ = leg_origin[1];
    burned += 2;
    return hedge_result;
  }

  // Both legs failed for real.
  pool_.report_failure(leg_origin[1]);
  registry.counter(obs::kFetchAttemptFailuresTotal).increment();
  burned += hedge_ran ? 2 : 1;
  return std::nullopt;
}

void HttpChunkSource::wait(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(seconds / speedup_));
}

media::VideoManifest HttpChunkSource::fetch_manifest() {
  const HttpResponse response = clients_[0]->get("/manifest.mpd");
  media::VideoManifest fetched = media::from_mpd(response.body);
  if (fetched.level_count() != manifest_->level_count() ||
      fetched.chunk_count() != manifest_->chunk_count()) {
    throw std::runtime_error("fetch_manifest: origin disagrees with local");
  }
  return fetched;
}

sim::SessionResult run_emulated_session(
    const trace::ThroughputTrace& trace, const media::VideoManifest& manifest,
    const qoe::QoeModel& qoe, const sim::SessionConfig& config,
    sim::BitrateController& controller,
    predict::ThroughputPredictor& predictor, double speedup,
    const EmulationFaults* faults) {
  ChunkServer server(manifest, trace, speedup);
  std::optional<FaultInjector> injector;
  sim::RetryPolicy retry;
  if (faults != nullptr) {
    injector.emplace(faults->plan);
    server.set_fault_injector(&*injector);
    retry = faults->retry;
  }
  server.start();

  HttpChunkSource source("127.0.0.1", server.port(), manifest, speedup, retry);
  server.reset_trace_clock();

  sim::PlayerSession session(manifest, qoe, config);
  sim::SessionResult result = session.run(source, controller, predictor);
  server.stop();
  return result;
}

}  // namespace abr::net
