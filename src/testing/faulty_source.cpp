#include "testing/faulty_source.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace abr::testing {

FaultySource::FaultySource(sim::ChunkSource& inner, FaultPlan plan,
                           sim::RetryPolicy retry)
    : inner_(&inner),
      plan_(plan),
      retry_(retry),
      jitter_rng_(plan.seed ^ 0xA5A5A5A5A5A5A5A5ULL) {
  plan_.validate();
}

sim::FetchOutcome FaultySource::fetch(std::size_t chunk, std::size_t level,
                                      const sim::FetchControl& control) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& retries_total = registry.counter(obs::kFetchRetriesTotal);
  obs::Counter& failures_total =
      registry.counter(obs::kFetchAttemptFailuresTotal);

  std::size_t& used = attempts_used_[chunk];
  const double start_s = inner_->now();
  sim::FetchOutcome outcome;
  outcome.attempts = 0;

  // Valid prefix accumulated so far; grows when a partial body keeps its
  // bytes (keep_prefix), and every inner transfer resumes from it.
  double resume_kb = control.resume_from_kilobits;

  // Carries an inner transfer's provenance into this outcome: the origin
  // that served it, the faults it hit, and the attempts it spent beyond the
  // one this local attempt already counts (an origin pool retries and
  // fails over inside a single call).
  const auto absorb = [&](const sim::FetchOutcome& inner) {
    outcome.origin = inner.origin;
    outcome.faults += inner.faults;
    outcome.attempts += inner.attempts - 1;
    outcome.resumes += inner.resumes;
  };

  const auto finish = [&](const sim::FetchOutcome& inner, bool failed) {
    outcome.aborted = inner.aborted;
    outcome.failed = failed;
    outcome.delivered_kilobits =
        failed ? resume_kb : inner.delivered_kilobits;
    outcome.kilobits = std::max(
        0.0, outcome.delivered_kilobits - control.resume_from_kilobits);
    outcome.duration_s = std::max(inner_->now() - start_s, 1e-9);
    return outcome;
  };

  for (std::size_t local = 0; local < retry_.max_attempts; ++local) {
    const std::size_t attempt = used++;
    ++outcome.attempts;
    const FaultDecision decision = plan_.decide(chunk, attempt);
    if (decision.kind != FaultKind::kNone) {
      ++faults_injected_;
      ++outcome.faults;
      registry
          .counter(obs::kFaultsInjectedTotal,
                   obs::fault_kind_label(fault_kind_name(decision.kind)))
          .increment();
    }

    sim::FetchControl inner_control = control;
    inner_control.resume_from_kilobits = resume_kb;

    switch (decision.kind) {
      case FaultKind::kNone:
      case FaultKind::kLatencySpike:
      case FaultKind::kStall: {
        if (decision.kind == FaultKind::kLatencySpike) {
          inner_->wait(decision.latency_s);
        }
        const sim::FetchOutcome inner =
            inner_->fetch(chunk, level, inner_control);
        absorb(inner);
        // A transfer that was aborted, or that the inner source could not
        // deliver at all, never rides out the stall tail.
        if (decision.kind == FaultKind::kStall && !inner.aborted &&
            !inner.failed) {
          inner_->wait(decision.stall_s);
        }
        return finish(inner, inner.failed);
      }
      case FaultKind::kPartialBody: {
        // The connection dies mid-body. Under keep_prefix only the
        // body_fraction prefix of the remaining payload flows, and it stays
        // useful as resume credit for the next attempt. Otherwise the full
        // transfer time elapses (bytes flowed) and the truncated body is
        // discarded.
        if (control.keep_prefix) {
          inner_control.truncate_after_fraction = decision.body_fraction;
        }
        const sim::FetchOutcome inner =
            inner_->fetch(chunk, level, inner_control);
        absorb(inner);
        if (inner.aborted) return finish(inner, false);
        if (control.keep_prefix) resume_kb = inner.delivered_kilobits;
        break;
      }
      case FaultKind::kReset:
        inner_->wait(plan_.reset_delay_s);
        break;
      case FaultKind::kHttpError:
        inner_->wait(plan_.error_response_s);
        break;
    }

    failures_total.increment();
    if (local + 1 < retry_.max_attempts) {
      ++retries_;
      retries_total.increment();
      inner_->wait(retry_.backoff_s(local + 1, jitter_rng_));
    }
  }

  sim::FetchOutcome exhausted;
  exhausted.delivered_kilobits = resume_kb;
  return finish(exhausted, true);
}

}  // namespace abr::testing
