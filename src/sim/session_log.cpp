#include "sim/session_log.hpp"

#include <cmath>

#include "obs/journal.hpp"

namespace abr::sim {

QoeAttribution::Charge QoeAttribution::add(const qoe::QoeModel& model,
                                           double bitrate_kbps,
                                           double rebuffer_s) {
  const qoe::QoeWeights& weights = model.weights();
  Charge charge;
  charge.utility = model.quality(bitrate_kbps);
  charge.switch_penalty =
      has_prev_ ? weights.lambda * std::abs(charge.utility - prev_quality_)
                : 0.0;
  charge.rebuffer_charge =
      weights.mu * rebuffer_s + (rebuffer_s > 0.0 ? weights.mu_event : 0.0);
  charge.chunk =
      charge.utility - charge.switch_penalty - charge.rebuffer_charge;
  prev_quality_ = charge.utility;
  has_prev_ = true;
  cumulative_ += charge.chunk;
  charge.cumulative = cumulative_;
  return charge;
}

void journal_chunk(obs::Journal& journal, const std::string& session,
                   const std::string& algorithm, const ChunkRecord& record,
                   const QoeAttribution::Charge& charge,
                   const DecisionTelemetry& telemetry) {
  obs::ChunkJournalEntry entry;
  entry.session = session;
  entry.algorithm = algorithm;
  entry.chunk = record.index;
  entry.level = record.level;
  entry.t_s = record.start_s;
  entry.bitrate_kbps = record.bitrate_kbps;
  entry.download_s = record.download_s;
  entry.throughput_kbps = record.throughput_kbps;
  entry.buffer_before_s = record.buffer_before_s;
  entry.buffer_after_s = record.buffer_after_s;
  entry.rebuffer_s = record.rebuffer_s;
  entry.wait_s = record.wait_s;
  entry.qoe_utility = charge.utility;
  entry.qoe_switch_penalty = charge.switch_penalty;
  entry.qoe_rebuffer_charge = charge.rebuffer_charge;
  entry.qoe_chunk = charge.chunk;
  entry.qoe_cumulative = charge.cumulative;
  entry.predicted_kbps = record.predicted_kbps;
  entry.effective_kbps = telemetry.effective_forecast_kbps;
  entry.error_window = telemetry.error_window;
  entry.nodes_expanded = telemetry.nodes_expanded;
  entry.warm_start = telemetry.warm_start;
  entry.solver_path = telemetry.path;
  entry.origin = record.origin;
  entry.attempts = record.attempts;
  entry.faults = record.faults;
  entry.degraded = record.degraded;
  entry.skipped = record.skipped;
  entry.aborted = record.aborted;
  entry.partial = record.partial;
  entry.wasted_kb = record.wasted_kilobits;
  entry.resumed_from_byte = record.resumed_from_byte;
  journal.chunk(entry);
}

void finalize_session(SessionResult& result, qoe::QoeModel::Accumulator& qoe,
                      double startup_delay_s, double duration_s,
                      bool include_startup_in_qoe) {
  result.startup_delay_s = startup_delay_s;
  result.session_duration_s = duration_s;
  if (include_startup_in_qoe) qoe.set_startup_delay(startup_delay_s);
  result.total_rebuffer_s = qoe.total_rebuffer_s();
  result.qoe = qoe.total();

  double bitrate_sum = 0.0;
  double change_sum = 0.0;
  double wait_sum = 0.0;
  std::size_t stalled_chunks = 0;
  for (std::size_t k = 0; k < result.chunks.size(); ++k) {
    const ChunkRecord& r = result.chunks[k];
    bitrate_sum += r.bitrate_kbps;
    wait_sum += r.wait_s;
    if (r.rebuffer_s > 0.0) ++stalled_chunks;
    if (r.degraded) ++result.degraded_chunks;
    if (r.skipped) ++result.skipped_chunks;
    if (r.aborted) ++result.aborted_chunks;
    if (r.partial) ++result.partial_chunks;
    result.resume_count += r.resumes;
    result.wasted_kilobits += r.wasted_kilobits;
    result.total_attempts += r.attempts;
    if (k > 0) {
      const double delta =
          std::abs(r.bitrate_kbps - result.chunks[k - 1].bitrate_kbps);
      change_sum += delta;
      if (delta > 0.0) ++result.switch_count;
    }
  }
  const auto n = static_cast<double>(result.chunks.size());
  result.average_bitrate_kbps = n > 0 ? bitrate_sum / n : 0.0;
  result.average_bitrate_change_kbps =
      result.chunks.size() > 1 ? change_sum / (n - 1.0) : 0.0;
  result.total_wait_s = wait_sum;
  result.rebuffer_chunk_fraction =
      n > 0 ? static_cast<double>(stalled_chunks) / n : 0.0;
}

void journal_session(obs::Journal& journal, const std::string& session,
                     const std::string& algorithm, const SessionResult& result,
                     const qoe::QoeModel::Accumulator& qoe,
                     const qoe::QoeModel& model, bool include_startup_in_qoe) {
  const qoe::QoeWeights& weights = model.weights();
  obs::SessionJournalEntry entry;
  entry.session = session;
  entry.algorithm = algorithm;
  entry.chunks = result.chunks.size();
  entry.duration_s = result.session_duration_s;
  entry.startup_delay_s = result.startup_delay_s;
  entry.qoe = result.qoe;
  entry.qoe_utility = qoe.total_quality();
  entry.qoe_switch_penalty = weights.lambda * qoe.total_smoothness_penalty();
  entry.qoe_rebuffer_charge =
      weights.mu * qoe.total_rebuffer_s() +
      weights.mu_event * static_cast<double>(qoe.rebuffer_events());
  entry.qoe_startup_charge =
      include_startup_in_qoe ? weights.mu_startup * result.startup_delay_s
                             : 0.0;
  entry.average_bitrate_kbps = result.average_bitrate_kbps;
  entry.rebuffer_s = result.total_rebuffer_s;
  entry.switches = result.switch_count;
  entry.degraded_chunks = result.degraded_chunks;
  entry.skipped_chunks = result.skipped_chunks;
  entry.attempts = result.total_attempts;
  for (const ChunkRecord& r : result.chunks) entry.faults += r.faults;
  entry.aborted_chunks = result.aborted_chunks;
  entry.partial_chunks = result.partial_chunks;
  entry.resumes = result.resume_count;
  entry.wasted_kb = result.wasted_kilobits;
  journal.session(entry);
}

}  // namespace abr::sim
