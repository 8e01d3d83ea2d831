#include "sim/multiplayer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/session_log.hpp"

namespace abr::sim {

double jain_index(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

namespace {

enum class Phase : std::uint8_t { kIdle, kDownloading, kWaiting, kDone };

/// (event time, player index): a pending join or buffer-full wait expiry.
/// Min-heap on time; same-tick events are re-sorted by index before
/// processing, so controllers run in ascending player order.
using Event = std::pair<double, std::uint32_t>;

}  // namespace

MultiPlayerResult simulate_shared_link(
    const trace::ThroughputTrace& link, const media::VideoManifest& manifest,
    const qoe::QoeModel& qoe, const MultiPlayerConfig& config,
    std::span<BitrateController* const> controllers,
    std::span<predict::ThroughputPredictor* const> predictors) {
  if (controllers.empty() || controllers.size() != predictors.size()) {
    throw std::invalid_argument(
        "simulate_shared_link: need one controller and predictor per player");
  }
  if (config.session.startup_policy == StartupPolicy::kFixedDelay) {
    throw std::invalid_argument(
        "simulate_shared_link: fixed-delay startup is not supported");
  }
  if (config.time_step_s <= 0.0) {
    throw std::invalid_argument("simulate_shared_link: bad time step");
  }

  const std::size_t n = controllers.size();
  const double chunk_duration = manifest.chunk_duration_s();
  const double capacity = config.session.buffer_capacity_s;
  const std::size_t chunk_count = manifest.chunk_count();
  const double dt = config.time_step_s;

  // Hot per-player state: parallel contiguous vectors (the advance pass
  // touches only these).
  std::vector<Phase> phase(n, Phase::kIdle);
  std::vector<double> buffer_s(n, 0.0);
  std::vector<double> remaining_kb(n, 0.0);
  std::vector<double> stall_s(n, 0.0);
  std::vector<std::uint8_t> playing(n, 0);

  // Warm state: read on chunk boundaries only.
  std::vector<double> join_time_s(n);
  std::vector<double> chunk_kb(n, 0.0);
  std::vector<double> download_started_s(n, 0.0);
  std::vector<double> buffer_before_s(n, 0.0);
  std::vector<double> startup_delay_s(n, 0.0);
  std::vector<std::uint32_t> next_chunk(n, 0);
  std::vector<std::uint32_t> level(n, 0);
  std::vector<std::uint32_t> prev_level(n, 0);
  std::vector<std::uint8_t> has_prev(n, 0);
  std::vector<std::vector<double>> history(n);

  // Cold state: results, QoE accumulators, journal attribution.
  FleetSeries* fleet = config.fleet;
  obs::Journal* journal = config.journal;
  std::vector<SessionResult> session(n);
  std::vector<qoe::QoeModel::Accumulator> qoe_acc;
  qoe_acc.reserve(n);
  std::vector<QoeAttribution> attribution(
      journal != nullptr || fleet != nullptr ? n : 0);
  std::vector<DecisionTelemetry> telemetry(n);

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  for (std::size_t i = 0; i < n; ++i) {
    controllers[i]->reset();
    qoe_acc.emplace_back(qoe);
    join_time_s[i] = static_cast<double>(i) * config.startup_stagger_s;
    events.emplace(join_time_s[i], static_cast<std::uint32_t>(i));
    // Every session downloads every chunk; reserving up front removes the
    // growth-copy chains from the hot completion path (no output change).
    session[i].chunks.reserve(chunk_count);
    history[i].reserve(chunk_count);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Gauge& fleet_active_gauge = registry.gauge(obs::kFleetSessionsActive);
  obs::Histogram& step_latency =
      registry.histogram(obs::kFleetStepLatencyUs, "",
                         obs::exponential_buckets(1.0, 2.0, 20));
  const bool metrics_on = registry.enabled();
  // Per-player instruments are fetched only when the registry is live: a
  // million-session soak must not allocate two million no-op instruments.
  std::vector<obs::Counter*> chunk_counters(metrics_on ? n : 0);
  std::vector<obs::Counter*> rebuffer_counters(metrics_on ? n : 0);
  if (metrics_on) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string label = "player=\"" + std::to_string(i) + "\"";
      chunk_counters[i] = &registry.counter(obs::kChunksDownloadedTotal, label);
      rebuffer_counters[i] =
          &registry.counter(obs::kRebufferSecondsTotal, label);
    }
  }

  // Starts the download of player `i`'s next chunk (runs the controller).
  const auto begin_chunk = [&](std::size_t i, double now) {
    predict::PredictionInput input;
    input.history_kbps = history[i];
    input.now_s = now;
    input.chunk_duration_s = chunk_duration;
    input.truth = nullptr;  // the fair share is not the raw trace
    const std::size_t horizon = std::max<std::size_t>(
        1, std::min(controllers[i]->prediction_horizon(),
                    chunk_count - next_chunk[i]));
    const std::vector<double> predictions =
        predictors[i]->predict(input, horizon);

    AbrState state;
    state.chunk_index = next_chunk[i];
    state.buffer_s = buffer_s[i];
    state.prev_level = prev_level[i];
    state.has_prev = has_prev[i] != 0;
    state.throughput_history_kbps = history[i];
    state.prediction_kbps = predictions;
    state.now_s = now;
    state.playback_started = playing[i] != 0;
    const std::size_t chosen = controllers[i]->decide(state, manifest);
    if (chosen >= manifest.level_count()) {
      throw std::logic_error("shared-link controller returned bad level");
    }
    telemetry[i] = DecisionTelemetry{};
    if (const DecisionTelemetry* t = controllers[i]->last_decision()) {
      telemetry[i] = *t;
    }

    level[i] = static_cast<std::uint32_t>(chosen);
    chunk_kb[i] = manifest.chunk_kilobits(next_chunk[i], chosen);
    remaining_kb[i] = chunk_kb[i];
    download_started_s[i] = now;
    stall_s[i] = 0.0;
    buffer_before_s[i] = buffer_s[i];
    phase[i] = Phase::kDownloading;

    ChunkRecord record;
    record.index = next_chunk[i];
    record.level = chosen;
    record.bitrate_kbps = manifest.bitrate_kbps(chosen);
    record.size_kilobits = chunk_kb[i];
    record.start_s = now;
    record.buffer_before_s = buffer_s[i];
    record.predicted_kbps = predictions.empty() ? 0.0 : predictions.front();
    session[i].chunks.push_back(record);
  };

  double now = 0.0;
  double delivered_kb = 0.0;
  double busy_span_end = 0.0;
  std::size_t live = n;

  // Downloading players, ascending index (the advance pass order).
  std::vector<std::uint32_t> active_list;
  active_list.reserve(n);
  std::vector<std::uint32_t> due;
  std::vector<std::uint32_t> joined;

  while (live > 0) {
    const bool timing = metrics_on;
    const auto step_begin = timing ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};

    // 1. Phase transitions that happen at this instant. Only players with a
    // due event are touched, in index order.
    if (!events.empty() && events.top().first <= now + 1e-12) {
      due.clear();
      joined.clear();
      do {
        due.push_back(events.top().second);
        events.pop();
      } while (!events.empty() && events.top().first <= now + 1e-12);
      std::sort(due.begin(), due.end());
      for (const std::uint32_t i : due) {
        if (phase[i] == Phase::kIdle) {
          begin_chunk(i, now);
          joined.push_back(i);
        } else if (phase[i] == Phase::kWaiting) {
          if (next_chunk[i] < chunk_count) {
            begin_chunk(i, now);
            joined.push_back(i);
          } else {
            phase[i] = Phase::kDone;
            --live;
          }
        }
      }
      if (!joined.empty()) {
        const auto mid = static_cast<std::ptrdiff_t>(active_list.size());
        active_list.insert(active_list.end(), joined.begin(), joined.end());
        std::inplace_merge(active_list.begin(), active_list.begin() + mid,
                           active_list.end());
      }
    }

    // 2. Fair share for this step.
    const std::size_t active = active_list.size();
    fleet_active_gauge.set(static_cast<double>(active));
    if (active == 0) {
      // Idle tick: nobody downloads, nothing drains (waiting buffers were
      // pre-drained at append time). O(1) — skip straight to the clock.
      now += dt;
      if (now > 100.0 * manifest.duration_s() + 1000.0) {
        throw std::runtime_error(
            "simulate_shared_link: link cannot sustain video");
      }
      continue;
    }

    const double step_kb = link.kilobits_between(now, now + dt);
    const double share_kb = step_kb / static_cast<double>(active);
    delivered_kb += step_kb;
    busy_span_end = now + dt;
    if (fleet != nullptr) fleet->note_active(now, active);

    // 3. Advance every downloading player by dt — one pass over contiguous
    // state, compacting completed players out in place (order-preserving).
    std::size_t out = 0;
    for (std::size_t pos = 0; pos < active_list.size(); ++pos) {
      const std::uint32_t i = active_list[pos];
      if (playing[i] != 0) {
        const double drained = std::min(buffer_s[i], dt);
        stall_s[i] += dt - drained;
        buffer_s[i] -= drained;
      }
      remaining_kb[i] -= share_kb;
      if (remaining_kb[i] > 1e-9) {
        active_list[out++] = i;
        continue;
      }

      // Chunk complete.
      const double end = now + dt;
      const double duration = std::max(end - download_started_s[i], 1e-9);
      ChunkRecord& record = session[i].chunks.back();
      record.download_s = duration;
      record.throughput_kbps = chunk_kb[i] / duration;
      record.rebuffer_s = stall_s[i];

      buffer_s[i] += chunk_duration;
      if (playing[i] == 0) {
        switch (config.session.startup_policy) {
          case StartupPolicy::kFirstChunk:
            playing[i] = 1;
            startup_delay_s[i] = end - join_time_s[i];
            break;
          case StartupPolicy::kBufferThreshold:
            if (buffer_s[i] >= config.session.startup_buffer_threshold_s) {
              playing[i] = 1;
              startup_delay_s[i] = end - join_time_s[i];
            }
            break;
          case StartupPolicy::kFixedDelay:
            break;  // rejected above
        }
      }

      double wait_s = 0.0;
      if (buffer_s[i] > capacity) {
        wait_s = buffer_s[i] - capacity;
        buffer_s[i] = capacity;
      }
      record.wait_s = wait_s;
      record.buffer_after_s = buffer_s[i];

      if (metrics_on) {
        chunk_counters[i]->increment();
        rebuffer_counters[i]->increment(record.rebuffer_s);
      }
      qoe_acc[i].add_chunk(record.bitrate_kbps, record.rebuffer_s);
      if (journal != nullptr || fleet != nullptr) {
        const QoeAttribution::Charge charge =
            attribution[i].add(qoe, record.bitrate_kbps, record.rebuffer_s);
        if (fleet != nullptr) fleet->record_chunk(end, record, charge.chunk);
        if (journal != nullptr) {
          journal_chunk(*journal, "p" + std::to_string(i),
                        controllers[i]->name(), record, charge, telemetry[i]);
        }
      }
      history[i].push_back(record.throughput_kbps);
      prev_level[i] = level[i];
      has_prev[i] = 1;
      ++next_chunk[i];

      if (wait_s > 0.0 || next_chunk[i] >= chunk_count) {
        if (next_chunk[i] >= chunk_count) {
          phase[i] = Phase::kDone;
          --live;
        } else {
          phase[i] = Phase::kWaiting;
          events.emplace(end + wait_s, i);
        }
      } else {
        begin_chunk(i, end);
        active_list[out++] = i;  // chained download: still active
      }
    }
    active_list.resize(out);

    now += dt;
    // Safety valve: a link far too slow for even the lowest bitrate would
    // otherwise spin forever.
    if (now > 100.0 * manifest.duration_s() + 1000.0) {
      throw std::runtime_error(
          "simulate_shared_link: link cannot sustain video");
    }
    if (timing) {
      step_latency.observe(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - step_begin)
                               .count());
    }
  }

  // Finalize per-player results.
  MultiPlayerResult result;
  result.players.reserve(n);
  std::vector<double> average_bitrates;
  for (std::size_t i = 0; i < n; ++i) {
    SessionResult& player = session[i];
    finalize_session(player, qoe_acc[i], startup_delay_s[i], now,
                     config.session.include_startup_in_qoe);
    if (journal != nullptr) {
      journal_session(*journal, "p" + std::to_string(i),
                      controllers[i]->name(), player, qoe_acc[i], qoe,
                      config.session.include_startup_in_qoe);
    }
    average_bitrates.push_back(player.average_bitrate_kbps);
    result.players.push_back(std::move(player));
  }

  result.jain_fairness = jain_index(average_bitrates);
  const double offered_kb = link.kilobits_between(0.0, busy_span_end);
  result.link_utilization = offered_kb > 0.0 ? delivered_kb / offered_kb : 0.0;
  registry.gauge(obs::kMultiplayerJainFairness).set(result.jain_fairness);
  registry.gauge(obs::kMultiplayerLinkUtilization)
      .set(result.link_utilization);
  return result;
}

}  // namespace abr::sim
