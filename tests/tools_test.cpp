// End-to-end tests of the command-line tools (tools/abrsim, tools/tracegen,
// bench/fleet_bench): invoke the real binaries and check exit codes and
// output. Binary paths are injected by CMake via ABRSIM_PATH / TRACEGEN_PATH
// / FLEET_BENCH_PATH.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(ToolsAbrsim, HelpExitsZero) {
  const auto result = run_command(std::string(ABRSIM_PATH) + " --help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--algorithm"), std::string::npos);
}

TEST(ToolsAbrsim, RejectsUnknownAlgorithm) {
  const auto result =
      run_command(std::string(ABRSIM_PATH) + " --algorithm bogus");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown algorithm"), std::string::npos);
}

TEST(ToolsAbrsim, RunsASyntheticSession) {
  const auto result = run_command(
      std::string(ABRSIM_PATH) +
      " --algorithm bb --dataset markov --index 1 --no-optimal");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("algorithm: BB"), std::string::npos);
  EXPECT_NE(result.output.find("average bitrate:"), std::string::npos);
}

TEST(ToolsAbrsim, ChunkLogEmitsCsvRows) {
  const auto result = run_command(
      std::string(ABRSIM_PATH) +
      " --algorithm rb --dataset fcc --no-optimal --chunk-log");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("chunk,level,bitrate_kbps"), std::string::npos);
  // 65 chunk rows for the Envivio default.
  std::size_t rows = 0;
  std::size_t pos = result.output.find("chunk,level");
  while ((pos = result.output.find('\n', pos + 1)) != std::string::npos) ++rows;
  EXPECT_GE(rows, 65u);
}

TEST(ToolsAbrsim, MetricsAndTraceOutEmitObservabilityArtifacts) {
  const auto dir = std::filesystem::temp_directory_path() / "abr_obs_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto journal_path = dir / "session.jsonl";
  const auto trace_path = dir / "session.json";
  const auto result = run_command(
      std::string(ABRSIM_PATH) +
      " --algorithm robustmpc --dataset fcc --no-optimal --metrics"
      " --journal " + journal_path.string());
  EXPECT_EQ(result.exit_code, 0);

  // Prometheus dump: solve-latency histograms for every MPC flavour, with
  // real samples under the RobustMPC label (64 solves: the cold-start
  // decision for chunk 0 picks the default level without solving).
  EXPECT_NE(result.output.find("# TYPE abr_solve_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(result.output.find(
                "abr_solve_latency_us_count{algorithm=\"RobustMPC\"} 64"),
            std::string::npos);
  EXPECT_NE(result.output.find("algorithm=\"FastMPC\""), std::string::npos);
  EXPECT_NE(result.output.find("algorithm=\"MPC\""), std::string::npos);
  EXPECT_NE(result.output.find("abr_chunks_downloaded_total 65"),
            std::string::npos);

  // Chrome trace: rendered offline from the journal, it holds a
  // traceEvents array with the per-chunk spans and decisions.
  const auto render = run_command(std::string(ABRREPORT_PATH) +
                                  " --chrome-trace " + trace_path.string() +
                                  " " + journal_path.string());
  EXPECT_EQ(render.exit_code, 0) << render.output;
  EXPECT_NE(render.output.find("1 session track;"), std::string::npos)
      << render.output;
  ASSERT_TRUE(std::filesystem::exists(trace_path));
  std::ifstream in(trace_path);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"download\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decide\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  // --chrome-trace takes exactly one journal.
  EXPECT_EQ(run_command(std::string(ABRREPORT_PATH) + " --chrome-trace " +
                        trace_path.string())
                .exit_code,
            2);
  std::filesystem::remove_all(dir);
}

TEST(ToolsTracegen, GeneratesLoadableDataset) {
  const auto dir =
      std::filesystem::temp_directory_path() / "abr_tracegen_test";
  std::filesystem::remove_all(dir);
  const auto result = run_command(std::string(TRACEGEN_PATH) +
                                  " --kind fcc --count 3 --duration 60 --out " +
                                  dir.string());
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("wrote 3 FCC traces"), std::string::npos);
  std::size_t csv_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".csv") ++csv_files;
  }
  EXPECT_EQ(csv_files, 3u);
  std::filesystem::remove_all(dir);
}

TEST(ToolsTracegen, RejectsUnknownKind) {
  const auto result =
      run_command(std::string(TRACEGEN_PATH) + " --kind wifi");
  EXPECT_EQ(result.exit_code, 2);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// The determinism contract of the telemetry plane: two seeded runs with
// fault injection produce byte-identical journals.
TEST(ToolsJournal, ByteIdenticalAcrossRunsUnderFaults) {
  const auto dir = std::filesystem::temp_directory_path() / "abr_journal_det";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto plan = dir / "plan.json";
  {
    std::ofstream out(plan);
    out << "{\"seed\": 7, \"reset_rate\": 0.2, \"stall_rate\": 0.1, "
           "\"stall_max_s\": 2}\n";
  }
  const std::string base = std::string(ABRSIM_PATH) +
                           " --algorithm robustmpc --dataset fcc --no-optimal"
                           " --faults " +
                           plan.string() + " --journal ";
  const auto first = run_command(base + (dir / "a.jsonl").string());
  const auto second = run_command(base + (dir / "b.jsonl").string());
  ASSERT_EQ(first.exit_code, 0) << first.output;
  ASSERT_EQ(second.exit_code, 0) << second.output;
  const std::string journal_a = read_file(dir / "a.jsonl");
  const std::string journal_b = read_file(dir / "b.jsonl");
  EXPECT_FALSE(journal_a.empty());
  EXPECT_EQ(journal_a, journal_b);
  // Fault provenance made it into the records.
  EXPECT_NE(journal_a.find("\"faults\":"), std::string::npos);
  EXPECT_NE(first.output.find("wrote journal:"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// Same contract through the origin-pool chaos path (--kill-origin).
TEST(ToolsJournal, ByteIdenticalAcrossRunsUnderOriginChaos) {
  const auto dir = std::filesystem::temp_directory_path() / "abr_journal_ko";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base =
      std::string(ABRSIM_PATH) +
      " --algorithm robustmpc --dataset hsdpa --no-optimal"
      " --origins 2 --kill-origin at=60,restart=150 --journal ";
  const auto first = run_command(base + (dir / "a.jsonl").string());
  const auto second = run_command(base + (dir / "b.jsonl").string());
  ASSERT_EQ(first.exit_code, 0) << first.output;
  ASSERT_EQ(second.exit_code, 0) << second.output;
  const std::string journal_a = read_file(dir / "a.jsonl");
  EXPECT_FALSE(journal_a.empty());
  EXPECT_EQ(journal_a, read_file(dir / "b.jsonl"));
  // Origin provenance is recorded per chunk.
  EXPECT_NE(journal_a.find("\"origin\":"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ToolsAbrreport, SummarizesAJournal) {
  const auto dir = std::filesystem::temp_directory_path() / "abr_report_cli";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto journal = dir / "session.jsonl";
  ASSERT_EQ(run_command(std::string(ABRSIM_PATH) +
                        " --algorithm fastmpc --dataset fcc --no-optimal"
                        " --journal " +
                        journal.string())
                .exit_code,
            0);
  const auto report =
      run_command(std::string(ABRREPORT_PATH) + " " + journal.string());
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("Fig. 9 style"), std::string::npos);
  EXPECT_NE(report.output.find("FastMPC"), std::string::npos);
  EXPECT_NE(report.output.find("table"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ToolsAbrreport, CheckMetricsValidatesAbrsimDump) {
  const auto dir = std::filesystem::temp_directory_path() / "abr_report_chk";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // abrsim --metrics appends the Prometheus dump after a marker line;
  // extract the exposition section into its own file.
  const auto session = run_command(
      std::string(ABRSIM_PATH) +
      " --algorithm robustmpc --dataset fcc --no-optimal --metrics");
  ASSERT_EQ(session.exit_code, 0);
  const std::size_t marker =
      session.output.find("# metrics (Prometheus text exposition format)\n");
  ASSERT_NE(marker, std::string::npos);
  const auto scrape = dir / "metrics.txt";
  {
    std::ofstream out(scrape, std::ios::binary);
    out << session.output.substr(
        session.output.find('\n', marker) + 1);
  }
  const auto valid =
      run_command(std::string(ABRREPORT_PATH) + " --check-metrics " +
                  scrape.string());
  EXPECT_EQ(valid.exit_code, 0) << valid.output;
  EXPECT_NE(valid.output.find("valid Prometheus"), std::string::npos);

  const auto broken = dir / "broken.txt";
  {
    std::ofstream out(broken);
    out << "bad-name 1\n";
  }
  EXPECT_EQ(run_command(std::string(ABRREPORT_PATH) + " --check-metrics " +
                        broken.string())
                .exit_code,
            1);
  std::filesystem::remove_all(dir);
}

TEST(ToolsAbrsim, TelemetryEndpointServesLiveScrapes) {
  // --telemetry-port 0 picks an ephemeral port and prints it; with
  // --telemetry-linger the endpoint outlives the (fast) virtual session so
  // this test can scrape it with a plain HTTP request. Exercised in-process
  // by net_telemetry_test; here we only check the flag surface.
  const auto result = run_command(
      std::string(ABRSIM_PATH) +
      " --algorithm bb --dataset markov --duration 30 --no-optimal"
      " --telemetry-port 0");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("telemetry: 127.0.0.1:"), std::string::npos);
}

TEST(ToolsRoundTrip, TracegenOutputFeedsAbrsim) {
  const auto dir = std::filesystem::temp_directory_path() / "abr_rt_test";
  std::filesystem::remove_all(dir);
  ASSERT_EQ(run_command(std::string(TRACEGEN_PATH) +
                        " --kind markov --count 1 --duration 320 --out " +
                        dir.string())
                .exit_code,
            0);
  const auto result = run_command(
      std::string(ABRSIM_PATH) + " --algorithm robustmpc --no-optimal --trace " +
      (dir / "markov-0.csv").string());
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("algorithm: RobustMPC"), std::string::npos);
  std::filesystem::remove_all(dir);
}

/// A hand-written fleet_bench baseline recorded at `sessions` sessions. It
/// holds no outcome checksums, so a run against it simulates a tiny fleet
/// and then fails the checksum gate.
std::filesystem::path write_tiny_fleet_baseline(
    const std::filesystem::path& dir, int sessions) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = dir / "baseline.json";
  std::ofstream out(path);
  out << "{\n  \"config\": {\"sessions\": " << sessions
      << ", \"chunks\": 32},\n  \"soak\": {\"sessions_per_sec\": 1}\n}\n";
  return path;
}

TEST(ToolsFleetBench, RefusesSessionCountThatDiffersFromBaseline) {
  const auto dir =
      std::filesystem::temp_directory_path() / "abr_fleet_bench_refuse";
  const auto baseline = write_tiny_fleet_baseline(dir, 7);
  const auto out = dir / "BENCH_fleet.json";
  const auto result = run_command(std::string(FLEET_BENCH_PATH) +
                                  " --sessions 5 --baseline " +
                                  baseline.string() + " --out " + out.string());
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--sessions 5 differs from the baseline's 7"),
            std::string::npos)
      << result.output;
  // Refused before simulating: nothing was written.
  EXPECT_FALSE(std::filesystem::exists(out));
  std::filesystem::remove_all(dir);
}

TEST(ToolsFleetBench, BaselineSuppliesTheSessionCount) {
  const auto dir =
      std::filesystem::temp_directory_path() / "abr_fleet_bench_count";
  const auto baseline = write_tiny_fleet_baseline(dir, 7);
  const auto out = dir / "BENCH_fleet.json";
  const auto result = run_command(std::string(FLEET_BENCH_PATH) +
                                  " --baseline " + baseline.string() +
                                  " --out " + out.string());
  // Seven sessions ran; the checksum-free baseline then fails the gate.
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(read_file(out).find("\"sessions\": 7,"), std::string::npos)
      << read_file(out);
  EXPECT_NE(result.output.find("baseline missing total_chunks"),
            std::string::npos)
      << result.output;
  std::filesystem::remove_all(dir);
}

}  // namespace
