// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set (probes off, global
// metrics registry off); with --trace 1 they are the per-layer set from a
// run that first repeats the untimed measurement and then a traced one.
// Exits 1 when any correctness check failed or a metric the workload must
// measure is missing, 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

// Which workloads must measure a per-layer metric. The others do not
// exercise that layer and report 0 for it.
enum Workloads : unsigned {
  kFleets = 1U << 0,
  kServe = 1U << 1,
  kAll = kFleets | kServe,
};

struct MetricSpec {
  const char* name;
  const char* unit;
  unsigned measured_by = kAll;
};

// Keep in step with BENCHMARK.json (run.py checks the printed names).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.decide.calls", "count", kFleets},
    {"core.decide.busy_s", "s", kFleets},
    {"core.decide.p50_us", "us", kFleets},
    {"core.decide.p99_us", "us", kFleets},
    {"core.solver.nodes_per_decision", "count", kFleets},
    {"core.solver.warm_start_frac", "ratio", kFleets},
    {"core.table.path_frac", "ratio", kFleets},
    {"core.table.build_s", "s", kFleets},
    {"predict.calls", "count", kFleets},
    {"predict.busy_s", "s", kFleets},
    {"predict.p99_us", "us", kFleets},
    {"sim.sessions_per_s", "1/s", kFleets},
    {"sim.engine.self_s", "s", kFleets},
    {"sim.step.p99_us", "us", kFleets},
    {"sim.rss_kb_per_session", "KB", kFleets},
    {"net.req_per_s", "1/s", kServe},
    {"net.goodput_mb_per_s", "MB/s", kServe},
    {"net.server.cpu_s", "s", kServe},
    {"net.client.cpu_s", "s", kServe},
    {"net.server.request.p99_us", "us", kServe},
    {"net.server.requests_served", "count", kServe},
    {"net.server.shed", "count", kServe},
    {"net.client.small.p50_us", "us", kServe},
    {"net.client.small.p99_us", "us", kServe},
    {"net.client.segment.p50_us", "us", kServe},
    {"net.client.segment.p99_us", "us", kServe},
    {"net.client.segment.ttfb_p99_us", "us", kServe},
    {"net.client.ttfb.small.p50_us", "us", kServe},
    {"net.client.ttfb.segment.p50_us", "us", kServe},
    {"obs.trace_overhead_frac", "ratio", kAll},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "fleet_robustmpc|fleet_fastmpc|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n";
  std::exit(2);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag);
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::RunResult result;
  unsigned workload_bit = 0;
  try {
    if (workload == "fleet_robustmpc") {
      workload_bit = kFleets;
      result = perfbench::run_fleet(options, abr::core::Algorithm::kRobustMpc);
    } else if (workload == "fleet_fastmpc") {
      workload_bit = kFleets;
      result = perfbench::run_fleet(options, abr::core::Algorithm::kFastMpc);
    } else if (workload == "serve_mixed") {
      workload_bit = kServe;
      result = perfbench::run_serve(options);
    } else {
      usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << workload << " aborted: " << error.what()
              << "\n";
    return 1;
  }

  const std::span<const MetricSpec> selected =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  for (const std::string& note : result.notes) {
    std::cout << "# " << note << "\n";
  }
  // Figures the workload measured that the selected set does not list (the
  // traced run's figures in an untraced run) are printed for people, not
  // for the result.
  for (const auto& [name, value] : result.metrics) {
    const bool listed =
        std::any_of(selected.begin(), selected.end(),
                    [&](const MetricSpec& spec) { return name == spec.name; });
    if (!listed) std::cout << "# " << name << " = " << value << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, double value) {
    json << (first ? "" : ", ") << "\"" << spec.name
         << "\": {\"value\": " << json_number(value) << ", \"unit\": \""
         << spec.unit << "\"}";
    first = false;
  };
  for (const MetricSpec& spec : selected) {
    const auto it = result.metrics.find(spec.name);
    if (it != result.metrics.end()) {
      emit(spec, it->second);
    } else if ((spec.measured_by & workload_bit) == 0) {
      emit(spec, 0.0);  // a layer this workload does not exercise
    } else {
      std::cerr << "perfbench: " << workload << " did not measure "
                << spec.name << "\n";
      return 1;
    }
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.correct ? 0 : 1;
}
