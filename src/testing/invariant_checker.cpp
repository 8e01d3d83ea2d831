#include "testing/invariant_checker.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

namespace abr::testing {

namespace {

class Collector {
 public:
  explicit Collector(InvariantReport& report) : report_(&report) {}

  // Appends a violation like "chunk 3: rebuffer_s: got 1.25, want 0.5".
  template <typename Got, typename Want>
  void mismatch(std::size_t chunk, const char* what, Got got, Want want) {
    std::ostringstream os;
    os << "chunk " << chunk << ": " << what << ": got " << got << ", want "
       << want;
    report_->violations.push_back(os.str());
  }

  template <typename Got, typename Want>
  void mismatch(const char* what, Got got, Want want) {
    std::ostringstream os;
    os << what << ": got " << got << ", want " << want;
    report_->violations.push_back(os.str());
  }

  void note(std::size_t chunk, const std::string& what) {
    std::ostringstream os;
    os << "chunk " << chunk << ": " << what;
    report_->violations.push_back(os.str());
  }

  bool near(double got, double want, double tol) const {
    return std::abs(got - want) <= tol;
  }

  void expect_near(std::size_t chunk, const char* what, double got,
                   double want, double tol) {
    if (!near(got, want, tol)) mismatch(chunk, what, got, want);
  }

  void expect_near(const char* what, double got, double want, double tol) {
    if (!near(got, want, tol)) mismatch(what, got, want);
  }

 private:
  InvariantReport* report_;
};

}  // namespace

std::string InvariantReport::to_string() const {
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) out += '\n';
    out += v;
  }
  return out;
}

InvariantReport InvariantChecker::check_buffer_dynamics(
    const sim::SessionResult& result) const {
  return buffer_dynamics(result, 0.0);
}

InvariantReport InvariantChecker::buffer_dynamics(
    const sim::SessionResult& result, double join_time_s) const {
  InvariantReport report;
  Collector check(report);
  const double duration = options_.chunk_duration_s;
  const double capacity = options_.buffer_capacity_s;
  const double tol = options_.tolerance;

  double buffer_s = 0.0;
  bool playing = false;
  double startup_s = 0.0;
  bool started = false;
  double rebuffer_sum = 0.0;
  double wait_sum = 0.0;
  double clock_s = 0.0;

  for (std::size_t k = 0; k < result.chunks.size(); ++k) {
    const sim::ChunkRecord& r = result.chunks[k];
    if (!options_.allow_failures &&
        (r.skipped || r.partial || r.degraded || r.aborted)) {
      check.note(k, "failure-path flags set in a fault-free session");
    }
    if (options_.check_time_continuity) {
      check.expect_near(k, "start_s", r.start_s, clock_s, tol);
    }
    check.expect_near(k, "buffer_before_s", r.buffer_before_s, buffer_s, tol);
    if (r.download_s <= 0.0) {
      check.note(k, "download_s is not positive");
    }

    // Eq. (3): the buffer drains (and may stall) while the chunk downloads.
    double stall = 0.0;
    if (playing) {
      stall = std::max(0.0, r.download_s - buffer_s);
      buffer_s = std::max(0.0, buffer_s - r.download_s);
    }

    // Append. A skipped chunk delivers nothing and charges its duration as a
    // stall; a partial chunk appends only the played prefix and charges the
    // missing suffix. The prefix length is recovered from the recorded
    // rebuffer (appended = duration - suffix charge), which the consistency
    // checks below pin down.
    if (r.skipped) {
      check.expect_near(k, "rebuffer_s (skipped chunk)", r.rebuffer_s,
                        stall + duration, tol);
    } else if (r.partial) {
      const double appended = duration - (r.rebuffer_s - stall);
      if (appended < -tol || appended > duration + tol) {
        check.note(k, "partial-chunk rebuffer outside [stall, stall + "
                      "chunk_duration]");
      }
      buffer_s += std::clamp(appended, 0.0, duration);
    } else {
      check.expect_near(k, "rebuffer_s", r.rebuffer_s, stall, tol);
      buffer_s += duration;
    }

    // Startup (kFirstChunk): the first delivered chunk starts playback at
    // its completion time.
    if (!playing && !r.skipped) {
      playing = true;
      startup_s = r.start_s + r.download_s - join_time_s;
      started = true;
    }

    // Eq. (4): drain the excess over capacity before the next request.
    const double wait = std::max(0.0, buffer_s - capacity);
    buffer_s = std::min(buffer_s, capacity);
    check.expect_near(k, "wait_s", r.wait_s, wait, tol);
    check.expect_near(k, "buffer_after_s", r.buffer_after_s, buffer_s, tol);
    if (buffer_s < -tol || buffer_s > capacity + tol) {
      check.note(k, "buffer left [0, capacity]");
    }
    if (r.rebuffer_s < -tol) check.note(k, "negative rebuffer_s");
    if (r.wait_s < -tol) check.note(k, "negative wait_s");

    rebuffer_sum += r.rebuffer_s;
    wait_sum += r.wait_s;
    clock_s = r.start_s + r.download_s + r.wait_s;
  }

  check.expect_near("total_rebuffer_s", result.total_rebuffer_s, rebuffer_sum,
                    tol * std::max<double>(1, result.chunks.size()));
  check.expect_near("total_wait_s", result.total_wait_s, wait_sum,
                    tol * std::max<double>(1, result.chunks.size()));
  if (started) {
    check.expect_near("startup_delay_s", result.startup_delay_s, startup_s,
                      tol);
  }
  if (options_.check_time_continuity && !result.chunks.empty()) {
    check.expect_near("session_duration_s", result.session_duration_s,
                      clock_s, tol);
  }
  return report;
}

InvariantReport InvariantChecker::check_qoe_conservation(
    const sim::SessionResult& result, const qoe::QoeModel& model) const {
  InvariantReport report;
  Collector check(report);

  std::vector<double> bitrates;
  std::vector<double> rebuffers;
  bitrates.reserve(result.chunks.size());
  rebuffers.reserve(result.chunks.size());
  for (const sim::ChunkRecord& r : result.chunks) {
    bitrates.push_back(r.bitrate_kbps);
    rebuffers.push_back(r.rebuffer_s);
  }
  const double startup =
      options_.include_startup_in_qoe ? result.startup_delay_s : 0.0;
  const double expected = model.session_qoe(bitrates, rebuffers, startup);
  check.expect_near("qoe (Eq. 5 conservation)", result.qoe, expected,
                    options_.qoe_tolerance);
  return report;
}

InvariantReport InvariantChecker::check_aggregates(
    const sim::SessionResult& result) const {
  InvariantReport report;
  Collector check(report);
  const double tol = options_.tolerance;

  double bitrate_sum = 0.0;
  double change_sum = 0.0;
  double wasted = 0.0;
  std::size_t stalled = 0, switches = 0, degraded = 0, skipped = 0;
  std::size_t aborted = 0, partial = 0, resumes = 0, attempts = 0;
  for (std::size_t k = 0; k < result.chunks.size(); ++k) {
    const sim::ChunkRecord& r = result.chunks[k];
    bitrate_sum += r.bitrate_kbps;
    if (r.rebuffer_s > 0.0) ++stalled;
    if (r.degraded) ++degraded;
    if (r.skipped) ++skipped;
    if (r.aborted) ++aborted;
    if (r.partial) ++partial;
    resumes += r.resumes;
    attempts += r.attempts;
    wasted += r.wasted_kilobits;
    if (k > 0) {
      const double delta =
          std::abs(r.bitrate_kbps - result.chunks[k - 1].bitrate_kbps);
      change_sum += delta;
      if (delta > 0.0) ++switches;
    }
  }
  const auto n = static_cast<double>(result.chunks.size());
  check.expect_near("average_bitrate_kbps", result.average_bitrate_kbps,
                    n > 0 ? bitrate_sum / n : 0.0, tol * std::max(1.0, n));
  check.expect_near("average_bitrate_change_kbps",
                    result.average_bitrate_change_kbps,
                    n > 1 ? change_sum / (n - 1.0) : 0.0,
                    tol * std::max(1.0, n));
  check.expect_near("rebuffer_chunk_fraction", result.rebuffer_chunk_fraction,
                    n > 0 ? static_cast<double>(stalled) / n : 0.0, tol);
  check.expect_near("wasted_kilobits", result.wasted_kilobits, wasted,
                    tol * std::max(1.0, n));
  if (result.switch_count != switches) {
    check.mismatch("switch_count", result.switch_count, switches);
  }
  if (result.degraded_chunks != degraded) {
    check.mismatch("degraded_chunks", result.degraded_chunks, degraded);
  }
  if (result.skipped_chunks != skipped) {
    check.mismatch("skipped_chunks", result.skipped_chunks, skipped);
  }
  if (result.aborted_chunks != aborted) {
    check.mismatch("aborted_chunks", result.aborted_chunks, aborted);
  }
  if (result.partial_chunks != partial) {
    check.mismatch("partial_chunks", result.partial_chunks, partial);
  }
  if (result.resume_count != resumes) {
    check.mismatch("resume_count", result.resume_count, resumes);
  }
  if (result.total_attempts != attempts) {
    check.mismatch("total_attempts", result.total_attempts, attempts);
  }
  return report;
}

InvariantReport InvariantChecker::check_all(const sim::SessionResult& result,
                                            const qoe::QoeModel& model) const {
  return session(result, model, 0.0);
}

InvariantReport InvariantChecker::session(const sim::SessionResult& result,
                                          const qoe::QoeModel& model,
                                          double join_time_s) const {
  InvariantReport report = buffer_dynamics(result, join_time_s);
  InvariantReport qoe = check_qoe_conservation(result, model);
  InvariantReport agg = check_aggregates(result);
  report.violations.insert(report.violations.end(), qoe.violations.begin(),
                           qoe.violations.end());
  report.violations.insert(report.violations.end(), agg.violations.begin(),
                           agg.violations.end());
  return report;
}

InvariantReport InvariantChecker::check_shared_link(
    const sim::MultiPlayerResult& result, const trace::ThroughputTrace& link,
    const sim::MultiPlayerConfig& config, const qoe::QoeModel& model) const {
  InvariantReport report;
  Collector check(report);
  const double tol = options_.tolerance;
  const double dt = config.time_step_s;

  // Per session: the single-player replay, clocked from the join time.
  InvariantOptions session_options = options_;
  session_options.buffer_capacity_s = config.session.buffer_capacity_s;
  session_options.include_startup_in_qoe =
      config.session.include_startup_in_qoe;
  session_options.check_time_continuity = false;
  const InvariantChecker player_checker(session_options);
  for (std::size_t i = 0; i < result.players.size(); ++i) {
    const InvariantReport player = player_checker.session(
        result.players[i], model,
        static_cast<double>(i) * config.startup_stagger_s);
    for (const std::string& v : player.violations) {
      report.violations.push_back("player " + std::to_string(i) + ": " + v);
    }
  }

  // Each chunk as a run of whole ticks [first, first + count).
  struct Span {
    const sim::ChunkRecord* record = nullptr;
    std::size_t player = 0;
    std::size_t first = 0;
    std::size_t count = 0;
  };
  std::vector<Span> spans;
  std::size_t ticks = 0;
  const auto tick_of = [dt](double t) {
    return static_cast<std::size_t>(std::max(0.0, std::round(t / dt)));
  };
  const auto flag = [&](const Span& span, const char* what) {
    std::ostringstream os;
    os << "player " << span.player << ": chunk " << span.record->index << ": "
       << what;
    report.violations.push_back(os.str());
  };
  for (std::size_t i = 0; i < result.players.size(); ++i) {
    double ready_s = static_cast<double>(i) * config.startup_stagger_s;
    for (const sim::ChunkRecord& r : result.players[i].chunks) {
      Span span{&r, i, tick_of(r.start_s),
                std::max<std::size_t>(1, tick_of(r.download_s))};
      if (r.start_s < ready_s - tol || r.start_s >= ready_s + dt + tol) {
        flag(span, "start_s not within one tick of join or previous wait");
      }
      ready_s = r.start_s + r.download_s + r.wait_s;
      ticks = std::max(ticks, span.first + span.count);
      spans.push_back(span);
    }
  }

  // Tick times are accumulated exactly as the simulator's clock is.
  std::vector<double> tick_s(ticks + 1);
  double now = 0.0;
  for (double& t : tick_s) {
    t = now;
    now += dt;
  }
  std::vector<std::ptrdiff_t> starts_minus_ends(ticks + 1, 0);
  for (const Span& span : spans) {
    const sim::ChunkRecord& r = *span.record;
    if (!check.near(r.start_s, tick_s[span.first], tol) ||
        !check.near(r.start_s + r.download_s,
                    tick_s[span.first + span.count], tol)) {
      flag(span, "download is not whole ticks");
    }
    ++starts_minus_ends[span.first];
    --starts_minus_ends[span.first + span.count];
  }
  std::vector<std::size_t> active(ticks, 0);
  std::vector<double> capacity_kb(ticks, 0.0);
  std::ptrdiff_t running = 0;
  for (std::size_t t = 0; t < ticks; ++t) {
    running += starts_minus_ends[t];
    active[t] = static_cast<std::size_t>(running);
    if (active[t] > 0) {
      capacity_kb[t] = link.kilobits_between(tick_s[t], tick_s[t] + dt);
    }
  }
  const auto share = [&](std::size_t t) {
    return capacity_kb[t] / static_cast<double>(active[t]);
  };

  // Equal split, and what each chunk takes on its last tick.
  std::vector<double> finishing_kb(ticks, 0.0);
  std::vector<std::size_t> finishing(ticks, 0);
  for (const Span& span : spans) {
    const double size_kb = span.record->size_kilobits;
    double before_last = 0.0;
    const std::size_t last = span.first + span.count - 1;
    for (std::size_t t = span.first; t < last; ++t) before_last += share(t);
    const double eps = tol * std::max(1.0, size_kb);
    if (before_last >= size_kb + eps ||
        before_last + share(last) < size_kb - eps) {
      std::ostringstream os;
      os << "not the equal split: " << size_kb << " kb, shares "
         << before_last << " kb before tick " << last << " and "
         << before_last + share(last) << " kb with it";
      flag(span, os.str().c_str());
    }
    finishing_kb[last] += size_kb - before_last;
    ++finishing[last];
  }

  // Capacity conservation, and the busy ticks behind link_utilization.
  double delivered_kb = 0.0;
  double busy_span_end = 0.0;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (active[t] == 0) continue;
    const double sent_kb =
        static_cast<double>(active[t] - finishing[t]) * share(t) +
        finishing_kb[t];
    if (sent_kb > capacity_kb[t] + tol * std::max(1.0, capacity_kb[t])) {
      std::ostringstream os;
      os << "tick " << t << ": delivered " << sent_kb
         << " kb over link capacity " << capacity_kb[t] << " kb";
      report.violations.push_back(os.str());
    }
    delivered_kb += capacity_kb[t];
    busy_span_end = tick_s[t] + dt;
  }
  const double offered_kb = link.kilobits_between(0.0, busy_span_end);
  check.expect_near("link_utilization", result.link_utilization,
                    offered_kb > 0.0 ? delivered_kb / offered_kb : 0.0, tol);

  std::vector<double> average_bitrates;
  for (const sim::SessionResult& player : result.players) {
    average_bitrates.push_back(player.average_bitrate_kbps);
  }
  check.expect_near("jain_fairness", result.jain_fairness,
                    sim::jain_index(average_bitrates), tol);
  return report;
}

}  // namespace abr::testing
