#include "probes.hpp"

#include <fstream>

#include "common.hpp"

namespace perfbench {

std::int64_t SpanLog::open(const char* name, std::uint64_t owner,
                           std::int64_t parent) {
  const std::int64_t start = now_ns();
  spans_.push_back(Span{name, start, start, owner, parent});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::uint64_t owner, std::int64_t parent) {
  spans_.push_back(Span{name, start_ns, end_ns, owner, parent});
}

bool SpanLog::write(const std::string& path,
                    const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = 0;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans_) {
      if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
    }
  }
  out << "[";
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    const std::vector<Span>& spans = logs[tid]->spans_;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(span.start_ns - origin) * 1e-3
          << ",\"dur\":"
          << static_cast<double>(span.end_ns - span.start_ns) * 1e-3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
          << ",\"owner\":" << span.owner << "}}";
      first = false;
    }
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

std::size_t TimedController::decide(const abr::sim::AbrState& state,
                                    const abr::media::VideoManifest& manifest) {
  const std::int64_t start = now_ns();
  const std::size_t level = inner_.decide(state, manifest);
  const std::int64_t end = now_ns();
  probes_.decide.add(end - start);
  if (const abr::sim::DecisionTelemetry* t = inner_.last_decision()) {
    ++probes_.telemetry_decisions;
    probes_.nodes_expanded += t->nodes_expanded;
    probes_.warm_starts += t->warm_start ? 1 : 0;
    probes_.table_lookups += std::string_view(t->path) == "table" ? 1 : 0;
  }
  if (sampled_) {
    probes_.spans.add("core.decide", start, end, owner_, probes_.parent_span);
  }
  return level;
}

std::vector<double> TimedPredictor::predict(
    const abr::predict::PredictionInput& input, std::size_t horizon) {
  const std::int64_t start = now_ns();
  std::vector<double> forecast = inner_.predict(input, horizon);
  const std::int64_t end = now_ns();
  probes_.predict.add(end - start);
  if (sampled_) {
    probes_.spans.add("predict", start, end, owner_, probes_.parent_span);
  }
  return forecast;
}

bool sampled(std::uint64_t seed, std::uint64_t owner, std::uint64_t one_in) {
  Fingerprint mix;
  mix.add(seed);
  mix.add(owner);
  return mix.value() % one_in == 0;
}

}  // namespace perfbench
