// The traced run's probes. Every layer is timed from outside, around calls
// into its public interface: forwarding decorators for the controller and
// the predictor, and span records for a seeded sample of
// sessions and requests. Nothing here reaches into src/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "predict/predictor.hpp"
#include "sim/controller.hpp"

namespace perfbench {

/// Calls into one layer: count, busy time, and one latency sample per call.
struct LayerTimer {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;
  std::vector<double> samples_us;

  void add(std::int64_t ns) {
    ++calls;
    busy_ns += ns;
    samples_us.push_back(static_cast<double>(ns) * 1e-3);
  }
  double busy_s() const { return static_cast<double>(busy_ns) * 1e-9; }
};

/// In-memory span store, written once when the run ends. Spans of one
/// session or request share `owner`; `parent` is the index of the enclosing
/// span (-1 at the root). One log per thread.
class SpanLog {
 public:
  /// Opens a span and returns its index; close() sets its end.
  std::int64_t open(const char* name, std::uint64_t owner, std::int64_t parent);
  void close(std::int64_t index);
  /// Records a finished span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t owner, std::int64_t parent);

  std::size_t size() const { return spans_.size(); }

  /// Writes the logs as one Chrome trace-event JSON array (`tid` = log
  /// number, args carry id/parent/owner). Returns false on I/O failure.
  static bool write(const std::string& path,
                    const std::vector<const SpanLog*>& logs);

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t owner;
    std::int64_t parent;
  };
  std::vector<Span> spans_;
};

/// Per-layer counters shared by the decorators of one thread.
struct Probes {
  LayerTimer decide;
  LayerTimer predict;

  // Solver accounting read from BitrateController::last_decision().
  std::uint64_t telemetry_decisions = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t table_lookups = 0;

  SpanLog spans;
  /// Span index new child spans attach to (set by the workload).
  std::int64_t parent_span = -1;
};

/// Times BitrateController::decide; everything else forwards unchanged.
class TimedController final : public abr::sim::BitrateController {
 public:
  /// `sampled` sessions also record a span per decision.
  TimedController(abr::sim::BitrateController& inner, Probes& probes,
                  std::uint64_t owner, bool sampled)
      : inner_(inner), probes_(probes), owner_(owner), sampled_(sampled) {}

  std::size_t decide(const abr::sim::AbrState& state,
                     const abr::media::VideoManifest& manifest) override;
  std::size_t prediction_horizon() const override {
    return inner_.prediction_horizon();
  }
  void reset() override { inner_.reset(); }
  const abr::sim::DecisionTelemetry* last_decision() const override {
    return inner_.last_decision();
  }
  std::string name() const override { return inner_.name(); }

 private:
  abr::sim::BitrateController& inner_;
  Probes& probes_;
  std::uint64_t owner_;
  bool sampled_;
};

/// Times ThroughputPredictor::predict.
class TimedPredictor final : public abr::predict::ThroughputPredictor {
 public:
  TimedPredictor(abr::predict::ThroughputPredictor& inner, Probes& probes,
                 std::uint64_t owner, bool sampled)
      : inner_(inner), probes_(probes), owner_(owner), sampled_(sampled) {}

  std::vector<double> predict(const abr::predict::PredictionInput& input,
                              std::size_t horizon) override;
  std::string name() const override { return inner_.name(); }

 private:
  abr::predict::ThroughputPredictor& inner_;
  Probes& probes_;
  std::uint64_t owner_;
  bool sampled_;
};

/// True for the seeded sample of owners (sessions, requests) whose spans
/// are kept: about one in `one_in`.
bool sampled(std::uint64_t seed, std::uint64_t owner, std::uint64_t one_in);

}  // namespace perfbench
