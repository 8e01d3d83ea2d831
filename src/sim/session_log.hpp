#pragma once

// Session bookkeeping shared by PlayerSession and simulate_shared_link: the
// Eq. (5) per-chunk attribution, the journal records, and the aggregates of
// a finished session.

#include <string>

#include "qoe/qoe.hpp"
#include "sim/controller.hpp"
#include "sim/player.hpp"

namespace abr::obs {
class Journal;
}

namespace abr::sim {

/// Per-chunk Eq. (5) attribution with the exact Accumulator semantics:
/// skipped chunks contribute q(0), transitions through 0 count as switches,
/// and every stalled chunk pays the per-event charge, so a session's
/// per-chunk charges sum to its Accumulator totals.
class QoeAttribution {
 public:
  struct Charge {
    double utility = 0.0;          ///< q(R_k)
    double switch_penalty = 0.0;   ///< lambda * |q_k - q_{k-1}|
    double rebuffer_charge = 0.0;  ///< mu * rebuffer + mu_event per stall
    double chunk = 0.0;            ///< this chunk's net contribution
    double cumulative = 0.0;       ///< running sum of `chunk`
  };

  Charge add(const qoe::QoeModel& model, double bitrate_kbps,
             double rebuffer_s);

 private:
  double prev_quality_ = 0.0;
  bool has_prev_ = false;
  double cumulative_ = 0.0;
};

/// Writes the journal record of a finished chunk.
void journal_chunk(obs::Journal& journal, const std::string& session,
                   const std::string& algorithm, const ChunkRecord& record,
                   const QoeAttribution::Charge& charge,
                   const DecisionTelemetry& telemetry);

/// Sets a finished session's startup delay, duration, rebuffer and QoE
/// totals, and recomputes every derived aggregate from its chunk log.
void finalize_session(SessionResult& result, qoe::QoeModel::Accumulator& qoe,
                      double startup_delay_s, double duration_s,
                      bool include_startup_in_qoe);

/// Writes the journal record of a session finalize_session() completed.
void journal_session(obs::Journal& journal, const std::string& session,
                     const std::string& algorithm, const SessionResult& result,
                     const qoe::QoeModel::Accumulator& qoe,
                     const qoe::QoeModel& model, bool include_startup_in_qoe);

}  // namespace abr::sim
