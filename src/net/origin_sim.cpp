#include "net/origin_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace abr::net {

SimulatedOriginSource::SimulatedOriginSource(
    const trace::ThroughputTrace& trace, const media::VideoManifest& manifest,
    testing::OutageScript script, SimulatedOriginOptions options)
    : base_(trace, manifest),
      script_(std::move(script)),
      options_(options),
      pool_(options.origins, options.breaker, options.seed),
      backoff_rng_(options.seed ^ 0x9e3779b97f4a7c15ULL) {
  script_.validate();
  if (options_.retry.max_attempts == 0) {
    throw std::invalid_argument(
        "SimulatedOriginSource: max_attempts must be >= 1");
  }
  if (options_.connect_fail_s <= 0.0) {
    throw std::invalid_argument(
        "SimulatedOriginSource: connect_fail_s must be positive");
  }
}

sim::FetchOutcome SimulatedOriginSource::fetch(
    std::size_t chunk, std::size_t level,
    const sim::FetchControl& /*control*/) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& retries_total = registry.counter(obs::kFetchRetriesTotal);
  obs::Counter& failures_total =
      registry.counter(obs::kFetchAttemptFailuresTotal);
  obs::Counter& failovers_total = registry.counter(obs::kOriginFailoversTotal);

  const double start_s = base_.now();
  sim::FetchOutcome outcome;
  outcome.attempts = 0;
  outcome.origin = current_origin_;

  // The RetryPolicy budget applies per origin: exhausting it on one origin
  // is what licenses moving on to the next (the breaker usually fails over
  // sooner, after failure_threshold consecutive failures).
  const std::size_t budget = options_.retry.max_attempts * pool_.size();
  std::size_t consecutive_failures = 0;
  while (outcome.attempts < budget) {
    ++outcome.attempts;
    const std::optional<std::size_t> origin = pool_.acquire(current_origin_);
    if (!origin.has_value()) {
      // Every breaker is open and no probe is due: a denied cycle. It still
      // costs time, and the denial ticks every probe schedule forward, so
      // the loop cannot livelock — some origin becomes probeable soon.
      base_.wait(options_.connect_fail_s);
      ++attempt_failures_;
      ++outcome.faults;
      failures_total.increment();
    } else {
      if (*origin != current_origin_) {
        ++failovers_;
        failovers_total.increment();
        current_origin_ = *origin;
      }
      if (script_.down(*origin, base_.now())) {
        base_.wait(options_.connect_fail_s);
        pool_.report_failure(*origin);
        ++attempt_failures_;
        ++outcome.faults;
        failures_total.increment();
      } else {
        const sim::FetchOutcome inner = base_.fetch(chunk, level, {});
        pool_.report_success(*origin);
        outcome.kilobits = inner.kilobits;
        outcome.delivered_kilobits = inner.delivered_kilobits;
        outcome.duration_s = std::max(base_.now() - start_s, 1e-9);
        outcome.origin = *origin;
        return outcome;
      }
    }
    ++consecutive_failures;
    if (outcome.attempts < budget) {
      ++retries_;
      retries_total.increment();
      base_.wait(options_.retry.backoff_s(consecutive_failures, backoff_rng_));
    }
  }

  outcome.failed = true;
  outcome.kilobits = 0.0;
  outcome.duration_s = std::max(base_.now() - start_s, 1e-9);
  outcome.origin = current_origin_;
  return outcome;
}

}  // namespace abr::net
