#include "sim/multiplayer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <queue>
#include <span>
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

/// Marks a slot whose download left the active set this tick.
constexpr std::uint32_t kNoPlayer = UINT32_MAX;

// The two per-tick slot passes stay out of line: inlined into the tick
// loop, they compete with it for registers and spill their induction
// variables, which costs more than the call.

/// Advances `count` in-flight downloads by one tick of `dt` seconds, each
/// receiving `share_kb`. Branch-free, so GCC vectorizes it at -O3. For a
/// playing slot (factor 1.0) it performs exactly `drained = min(buffer,
/// dt); stall += dt - drained; buffer -= drained`. For a paused one (0.0)
/// it adds +0.0 to the stall and subtracts +0.0 from the buffer, bitwise
/// no-ops on these non-negative values. std::min on a reference or a bool
/// reduction in this loop blocks vectorization.
[[gnu::noinline]] void advance_slots(std::size_t count, double dt,
                                     double share_kb, double* buffer_s,
                                     double* stall_s, double* remaining_kb,
                                     const double* playing) {
  for (std::size_t k = 0; k < count; ++k) {
    const double b = buffer_s[k];
    const double d = (dt < b ? dt : b) * playing[k];
    stall_s[k] += (dt - d) * playing[k];
    buffer_s[k] = b - d;
    remaining_kb[k] -= share_kb;
  }
}

/// Appends (player, slot) for every slot whose download is complete.
/// `!(x > 1e-9)` also completes a NaN remainder.
[[gnu::noinline]] void collect_finished(
    std::span<const std::uint32_t> slot_player, const double* remaining_kb,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& finished) {
  for (std::size_t k = 0; k < slot_player.size(); ++k) {
    if (!(remaining_kb[k] > 1e-9)) {
      finished.emplace_back(slot_player[k], static_cast<std::uint32_t>(k));
    }
  }
}

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
  validate(config.session);
  if (config.time_step_s <= 0.0) {
    throw std::invalid_argument("simulate_shared_link: bad time step");
  }

  const std::size_t n = controllers.size();
  const double chunk_duration = manifest.chunk_duration_s();
  const double capacity = config.session.buffer_capacity_s;
  const std::size_t chunk_count = manifest.chunk_count();
  const double dt = config.time_step_s;

  // Per-player state. While a download is in flight its slot (below) holds
  // the player's buffer level; buffer_s is authoritative only for waiting,
  // idle and finished players and at chunk boundaries.
  std::vector<Phase> phase(n, Phase::kIdle);
  std::vector<double> buffer_s(n, 0.0);
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
    download_started_s[i] = now;
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

  // Finishes player `i`'s download at `end` with `stall_s` seconds stalled
  // (buffer_s[i] already holds the drained level): records the chunk, starts
  // playback, feeds the sinks, and schedules what comes next. Returns true
  // when the player chains straight into its next download.
  const auto complete_chunk = [&](std::size_t i, double end, double stall_s) {
    const double duration = std::max(end - download_started_s[i], 1e-9);
    ChunkRecord& record = session[i].chunks.back();
    record.download_s = duration;
    record.throughput_kbps = chunk_kb[i] / duration;
    record.rebuffer_s = stall_s;

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

    if (next_chunk[i] >= chunk_count) {
      phase[i] = Phase::kDone;
      --live;
      return false;
    }
    if (wait_s > 0.0) {
      phase[i] = Phase::kWaiting;
      events.emplace(end + wait_s, static_cast<std::uint32_t>(i));
      return false;
    }
    return true;
  };

  // In-flight downloads, one slot each, in no particular order: the advance
  // pass streams these arrays. A join appends a slot; a download that leaves
  // the active set hands its buffer back to buffer_s and its slot is
  // compacted out (stably, on ticks where someone leaves only). The playing
  // factor is 1.0 or 0.0 (see advance_slots).
  std::vector<std::uint32_t> slot_player;
  std::vector<double> slot_buffer_s;
  std::vector<double> slot_stall_s;
  std::vector<double> slot_remaining_kb;
  std::vector<double> slot_playing;
  const auto resize_slots = [&](std::size_t size) {
    slot_player.resize(size);
    slot_buffer_s.resize(size);
    slot_stall_s.resize(size);
    slot_remaining_kb.resize(size);
    slot_playing.resize(size);
  };
  // Points slot `k` at player `i`'s freshly begun download.
  const auto load_slot = [&](std::size_t k, std::uint32_t i) {
    slot_player[k] = i;
    slot_buffer_s[k] = buffer_s[i];
    slot_stall_s[k] = 0.0;
    slot_remaining_kb[k] = chunk_kb[i];
    slot_playing[k] = playing[i] != 0 ? 1.0 : 0.0;
  };

  std::vector<std::uint32_t> due;
  // (player, slot) of the downloads that finished this tick.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> finished;

  while (live > 0) {
    const bool timing = metrics_on;
    const auto step_begin = timing ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};

    // 1. Phase transitions that happen at this instant. Only players with a
    // due event are touched, in index order.
    if (!events.empty() && events.top().first <= now + 1e-12) {
      due.clear();
      do {
        due.push_back(events.top().second);
        events.pop();
      } while (!events.empty() && events.top().first <= now + 1e-12);
      std::sort(due.begin(), due.end());
      const std::size_t first_new = slot_player.size();
      for (const std::uint32_t i : due) {
        const bool joins =
            phase[i] == Phase::kIdle ||
            (phase[i] == Phase::kWaiting && next_chunk[i] < chunk_count);
        if (joins) {
          begin_chunk(i, now);
          slot_player.push_back(i);
        } else if (phase[i] == Phase::kWaiting) {
          phase[i] = Phase::kDone;
          --live;
        }
      }
      // Joins append slots, one resize per tick.
      resize_slots(slot_player.size());
      for (std::size_t k = first_new; k < slot_player.size(); ++k) {
        load_slot(k, slot_player[k]);
      }
    }

    // 2. Fair share for this step.
    const std::size_t active = slot_player.size();
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

    // 3. Advance every in-flight download by dt: one pass over the slot
    // arrays.
    advance_slots(active, dt, share_kb, slot_buffer_s.data(),
                  slot_stall_s.data(), slot_remaining_kb.data(),
                  slot_playing.data());

    // 4. Completions, in ascending player order whatever the slot order, so
    // controller calls, events, journal and fleet records keep their order.
    finished.clear();
    collect_finished(slot_player, slot_remaining_kb.data(), finished);
    if (!finished.empty()) {
      std::sort(finished.begin(), finished.end());
      const double end = now + dt;
      bool left = false;
      for (const auto& [i, k] : finished) {
        buffer_s[i] = slot_buffer_s[k];
        if (complete_chunk(i, end, slot_stall_s[k])) {
          begin_chunk(i, end);
          load_slot(k, i);
        } else {
          slot_player[k] = kNoPlayer;
          left = true;
        }
      }
      if (left) {
        std::size_t out = 0;
        for (std::size_t k = 0; k < active; ++k) {
          if (slot_player[k] == kNoPlayer) continue;
          slot_player[out] = slot_player[k];
          slot_buffer_s[out] = slot_buffer_s[k];
          slot_stall_s[out] = slot_stall_s[k];
          slot_remaining_kb[out] = slot_remaining_kb[k];
          slot_playing[out] = slot_playing[k];
          ++out;
        }
        resize_slots(out);
      }
    }

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
