#include "sim/player.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/session_log.hpp"

namespace abr::sim {

PlayerSession::PlayerSession(const media::VideoManifest& manifest,
                             const qoe::QoeModel& qoe, SessionConfig config)
    : manifest_(&manifest), qoe_(&qoe), config_(config) {
  validate(config_);
}

SessionResult PlayerSession::run(ChunkSource& source,
                                 BitrateController& controller,
                                 predict::ThroughputPredictor& predictor) const {
  controller.reset();

  const media::VideoManifest& manifest = *manifest_;
  const double chunk_duration = manifest.chunk_duration_s();
  const double buffer_capacity = config_.buffer_capacity_s;
  const std::size_t chunk_count = manifest.chunk_count();

  SessionResult result;
  result.chunks.reserve(chunk_count);

  // Observability: metrics go to the global registry (a no-op unless it has
  // been enabled); the per-chunk timeline goes to the optional journal.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& chunks_total = registry.counter(obs::kChunksDownloadedTotal);
  obs::Counter& rebuffer_total = registry.counter(obs::kRebufferSecondsTotal);
  obs::Counter& wait_total = registry.counter(obs::kWaitSecondsTotal);
  obs::Counter& degraded_total = registry.counter(obs::kChunksDegradedTotal);
  obs::Counter& skipped_total = registry.counter(obs::kChunksSkippedTotal);
  obs::Counter& aborted_total = registry.counter(obs::kChunksAbortedTotal);
  obs::Counter& partial_total = registry.counter(obs::kChunksPartialTotal);
  obs::Counter& wasted_total = registry.counter(obs::kWastedKilobitsTotal);
  obs::Counter& resumes_total = registry.counter(obs::kRangeResumesTotal);
  obs::Counter& sessions_total = registry.counter(obs::kSessionsTotal);
  obs::Gauge& buffer_gauge = registry.gauge(obs::kBufferLevelSeconds);
  obs::Histogram& download_hist =
      registry.histogram(obs::kChunkDownloadSeconds, "",
                         obs::exponential_buckets(0.01, 2.0, 16));
  obs::Histogram& decide_hist = registry.histogram(
      obs::kDecideLatencyUs, "controller=\"" + controller.name() + "\"");
  // Skip the clock reads entirely when nobody is listening.
  const bool time_decisions = registry.enabled();

  qoe::QoeModel::Accumulator qoe_acc(*qoe_);
  QoeAttribution attribution;
  obs::Journal* journal = config_.journal;
  const std::string algorithm_name = controller.name();

  std::vector<double> history_kbps;
  history_kbps.reserve(chunk_count);

  double buffer_s = 0.0;
  bool playing = false;
  double startup_delay = 0.0;
  std::size_t prev_level = 0;
  bool has_prev = false;

  // Drains `drain_s` of playback from the buffer and returns the stall time
  // incurred (the part not covered by buffered video).
  const auto drain = [&buffer_s](double drain_s) {
    assert(drain_s >= 0.0);
    const double stall = std::max(0.0, drain_s - buffer_s);
    buffer_s = std::max(0.0, buffer_s - drain_s);
    return stall;
  };

  for (std::size_t k = 0; k < chunk_count; ++k) {
    const double now = source.now();

    // Fixed-delay startup: playback may begin while the player idles or
    // between downloads.
    if (!playing && config_.startup_policy == StartupPolicy::kFixedDelay &&
        now >= config_.fixed_startup_delay_s) {
      playing = true;
      startup_delay = config_.fixed_startup_delay_s;
      // Time already elapsed past Ts was play time.
      drain(now - config_.fixed_startup_delay_s);
    }

    // 1. Predict.
    predict::PredictionInput input;
    input.history_kbps = history_kbps;
    input.now_s = now;
    input.chunk_duration_s = chunk_duration;
    input.truth = source.truth();
    const std::size_t horizon =
        std::min(controller.prediction_horizon(), chunk_count - k);
    const std::vector<double> predictions =
        predictor.predict(input, std::max<std::size_t>(horizon, 1));

    // 2. Decide.
    AbrState state;
    state.chunk_index = k;
    state.buffer_s = buffer_s;
    state.prev_level = prev_level;
    state.has_prev = has_prev;
    state.throughput_history_kbps = history_kbps;
    state.prediction_kbps = predictions;
    state.now_s = now;
    state.playback_started = playing;
    // Runs controller.decide() with latency instrumentation; shared by the
    // per-chunk decision and any mid-chunk re-decides.
    const auto timed_decide = [&](const AbrState& st) {
      std::size_t lvl = 0;
      if (time_decisions) {
        const auto t0 = std::chrono::steady_clock::now();
        lvl = controller.decide(st, manifest);
        const double decide_us = std::chrono::duration<double, std::micro>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count();
        decide_hist.observe(decide_us);
      } else {
        lvl = controller.decide(st, manifest);
      }
      if (lvl >= manifest.level_count()) {
        throw std::logic_error("controller '" + controller.name() +
                               "' returned an out-of-range ladder index");
      }
      return lvl;
    };
    std::size_t level = timed_decide(state);
    // Snapshot decision telemetry now — the pointee is invalidated by the
    // next decide()/reset().
    DecisionTelemetry decision_telemetry;
    if (const DecisionTelemetry* t = controller.last_decision()) {
      decision_telemetry = *t;
    }

    // 3. Download. One transfer loop serves both delivery modes. Without an
    // active abort policy it is the paper's whole-chunk fetch: a failed
    // transfer keeps no prefix, so the loop falls back to the lowest rung
    // (graceful degradation) and then skips. With one, every transfer runs
    // under the deadline monitor: on abort the controller re-decides at a
    // strictly lower rung and the next transfer range-resumes from the
    // delivered prefix (prefixes are assumed aligned across the ladder, so
    // the credit is re-expressed as the same fraction of the new rung's
    // size — DESIGN §12). A failure at the last rung with a delivered prefix
    // becomes a partial chunk: the prefix plays, only the missing suffix is
    // charged as a stall.
    ChunkRecord record;
    record.index = k;
    record.start_s = now;
    record.buffer_before_s = buffer_s;
    record.predicted_kbps = predictions.empty() ? 0.0 : predictions.front();

    const bool abort_active =
        config_.abort_policy.enabled && source.supports_range();
    FetchOutcome outcome;
    outcome.attempts = 0;
    bool degraded = false;
    bool partial = false;
    double played_fraction = 1.0;
    double fraction_done = 0.0;   // delivered fraction of the chunk
    double elapsed = 0.0;
    double transferred_kb = 0.0;  // every bit that flowed, waste included
    for (;;) {
      const double size_kb = manifest.chunk_kilobits(k, level);
      FetchControl control;
      control.resume_from_kilobits = fraction_done * size_kb;
      control.keep_prefix = abort_active;
      control.abort_enabled = abort_active && playing && level > 0;
      control.buffer_s = std::max(0.0, buffer_s - elapsed);
      control.max_stall_s = config_.abort_policy.max_stall_s;
      control.min_observation_s = config_.abort_policy.min_observation_s;
      control.check_interval_s = config_.abort_policy.check_interval_s;
      if (control.resume_from_kilobits > 0.0) {
        record.resumed_from_byte = static_cast<std::size_t>(
            std::llround(control.resume_from_kilobits * 125.0));
      }
      const FetchOutcome att = source.fetch(k, level, control);
      elapsed += att.duration_s;
      transferred_kb += att.kilobits;
      outcome.attempts += att.attempts;
      outcome.faults += att.faults;
      outcome.origin = att.origin;
      record.resumes += att.resumes;
      fraction_done = size_kb > 0.0
                          ? std::min(att.delivered_kilobits / size_kb, 1.0)
                          : 1.0;
      if (att.aborted) {
        record.aborted = true;
        // Re-decide with the post-abort buffer; mid-chunk the throughput
        // history is unchanged, so the forecast vector is reused.
        AbrState restate = state;
        restate.buffer_s = std::max(0.0, buffer_s - elapsed);
        restate.now_s = source.now();
        const std::size_t next_level =
            std::min(timed_decide(restate), level - 1);
        record.wasted_kilobits +=
            att.delivered_kilobits -
            fraction_done * manifest.chunk_kilobits(k, next_level);
        level = next_level;
        continue;
      }
      if (att.failed && config_.degrade_on_failure && level != 0) {
        degraded = true;
        record.wasted_kilobits += att.delivered_kilobits -
                                  fraction_done * manifest.chunk_kilobits(k, 0);
        level = 0;
        continue;
      }
      outcome.failed = att.failed;
      break;
    }
    outcome.duration_s = std::max(elapsed, 1e-9);
    outcome.kilobits = transferred_kb;
    record.level = level;
    record.bitrate_kbps = manifest.bitrate_kbps(level);
    record.size_kilobits = fraction_done * manifest.chunk_kilobits(k, level);
    if (outcome.failed && fraction_done > 0.0) {
      // Third degradation rung: play the delivered prefix.
      partial = true;
      played_fraction = fraction_done;
      outcome.failed = false;
    }
    if (record.aborted || partial) {
      // The re-decide (or the truncation) may have changed the solver
      // telemetry; snapshot the final state for the journal.
      if (const DecisionTelemetry* t = controller.last_decision()) {
        decision_telemetry = *t;
      }
    }
    const bool skipped = outcome.failed;
    if (skipped) {
      record.bitrate_kbps = 0.0;
      record.size_kilobits = 0.0;
    }
    record.attempts = outcome.attempts;
    record.origin = outcome.origin;
    record.faults = outcome.faults;
    record.degraded = degraded;
    record.skipped = skipped;
    record.partial = partial;
    assert(outcome.duration_s > 0.0);
    record.download_s = outcome.duration_s;
    record.throughput_kbps =
        skipped ? 0.0 : outcome.kilobits / outcome.duration_s;

    // 4. Buffer dynamics during the download (Eq. (3)).
    double rebuffer_s = 0.0;
    if (playing) {
      rebuffer_s = drain(outcome.duration_s);
    } else if (config_.startup_policy == StartupPolicy::kFixedDelay &&
               source.now() > config_.fixed_startup_delay_s) {
      // Playback started mid-download.
      playing = true;
      startup_delay = config_.fixed_startup_delay_s;
      rebuffer_s = drain(source.now() - config_.fixed_startup_delay_s);
    }
    if (skipped) {
      // The chunk never arrived: the viewer loses its whole duration, which
      // Eq. (5) charges as a stall (skip-with-rebuffer accounting).
      rebuffer_s += chunk_duration;
    } else if (partial) {
      // Partial chunk: the delivered prefix plays; the missing suffix is a
      // stall Eq. (5) pays for.
      buffer_s += played_fraction * chunk_duration;
      rebuffer_s += (1.0 - played_fraction) * chunk_duration;
    } else {
      buffer_s += chunk_duration;
    }

    // 5. Startup transitions that trigger on chunk completion. A skipped
    // chunk delivers nothing, so it cannot start playback.
    if (!playing && !skipped) {
      switch (config_.startup_policy) {
        case StartupPolicy::kFirstChunk:
          playing = true;
          startup_delay = source.now();
          break;
        case StartupPolicy::kBufferThreshold:
          if (buffer_s >= config_.startup_buffer_threshold_s) {
            playing = true;
            startup_delay = source.now();
          }
          break;
        case StartupPolicy::kFixedDelay:
          break;  // handled by the clock checks above
      }
    }

    // 6. Buffer-full wait (Eq. (4)): drain the excess before the next
    // request. If playback has not begun (large fixed delay), idle until it
    // does, then drain.
    double wait_s = 0.0;
    if (buffer_s > buffer_capacity) {
      if (!playing) {
        assert(config_.startup_policy == StartupPolicy::kFixedDelay);
        const double idle =
            std::max(0.0, config_.fixed_startup_delay_s - source.now());
        source.wait(idle);
        wait_s += idle;
        playing = true;
        startup_delay = config_.fixed_startup_delay_s;
      }
      const double excess = buffer_s - buffer_capacity;
      source.wait(excess);
      wait_s += excess;
      buffer_s = buffer_capacity;
    }

    record.rebuffer_s = rebuffer_s;
    record.wait_s = wait_s;
    record.buffer_after_s = buffer_s;
    result.chunks.push_back(record);

    chunks_total.increment();
    rebuffer_total.increment(rebuffer_s);
    wait_total.increment(wait_s);
    if (degraded) degraded_total.increment();
    if (skipped) skipped_total.increment();
    if (record.aborted) aborted_total.increment();
    if (partial) partial_total.increment();
    if (record.wasted_kilobits > 0.0)
      wasted_total.increment(record.wasted_kilobits);
    if (record.resumes > 0)
      resumes_total.increment(static_cast<double>(record.resumes));
    download_hist.observe(record.download_s);
    buffer_gauge.set(buffer_s);

    qoe_acc.add_chunk(record.bitrate_kbps, rebuffer_s);
    if (journal != nullptr) {
      journal_chunk(*journal, config_.session_label, algorithm_name, record,
                    attribution.add(*qoe_, record.bitrate_kbps, rebuffer_s),
                    decision_telemetry);
    }
    if (!skipped) {
      // A skipped chunk yields no throughput sample and no played level:
      // predictors and controllers keep seeing the last real transfer.
      history_kbps.push_back(record.throughput_kbps);
      prev_level = level;
      has_prev = true;
    }
  }

  // A fixed startup delay later than the whole download still counts.
  if (!playing && config_.startup_policy == StartupPolicy::kFixedDelay) {
    startup_delay = config_.fixed_startup_delay_s;
  }

  sessions_total.increment();
  finalize_session(result, qoe_acc, startup_delay, source.now(),
                   config_.include_startup_in_qoe);
  if (journal != nullptr) {
    journal_session(*journal, config_.session_label, algorithm_name, result,
                    qoe_acc, *qoe_, config_.include_startup_in_qoe);
  }
  return result;
}

SessionResult simulate(const trace::ThroughputTrace& trace,
                       const media::VideoManifest& manifest,
                       const qoe::QoeModel& qoe, const SessionConfig& config,
                       BitrateController& controller,
                       predict::ThroughputPredictor& predictor) {
  TraceChunkSource source(trace, manifest);
  PlayerSession session(manifest, qoe, config);
  return session.run(source, controller, predictor);
}

}  // namespace abr::sim
