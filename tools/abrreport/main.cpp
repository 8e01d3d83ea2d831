// abrreport CLI. Usage:
//
//   abrreport JOURNAL.jsonl [MORE.jsonl ...]   summarize session journals
//   abrreport --check-metrics FILE             validate a /metrics scrape body
//   abrreport --chrome-trace OUT.json JOURNAL.jsonl
//                                              render a journal as a Chrome
//                                              trace-event timeline
//
// Exit codes: 0 success/valid, 1 validation issues or malformed journal
// lines, 2 usage or I/O error.
#include <algorithm>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "abrreport.hpp"

namespace {

constexpr const char* kUsage =
    "usage: abrreport [--check-metrics FILE] [JOURNAL...]\n"
    "       abrreport --chrome-trace OUT.json JOURNAL.jsonl\n";

int write_chrome_trace(const std::string& journal_path,
                       const std::string& out_path) {
  std::ifstream in(journal_path, std::ios::binary);
  if (!in) {
    std::cerr << "abrreport: cannot open " << journal_path << "\n";
    return 2;
  }
  const abr::tools::ChromeTrace trace =
      abr::tools::journal_to_chrome_trace(in);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << abr::tools::render_chrome_trace(trace);
  if (!out) {
    std::cerr << "abrreport: cannot write " << out_path << "\n";
    return 2;
  }
  std::cout << "wrote Chrome trace: " << out_path << " ("
            << trace.events.size() << " events, " << trace.sessions
            << (trace.sessions == 1 ? " session track" : " session tracks")
            << "; open chrome://tracing)\n";
  if (trace.malformed_lines > 0) {
    std::cerr << "abrreport: " << trace.malformed_lines
              << " malformed journal lines skipped — first: "
              << trace.first_error << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> journals;
  std::vector<std::string> metrics_files;
  std::string chrome_trace_out;

  for (int i = 1; i < argc; ++i) {
    const bool check_metrics = std::strcmp(argv[i], "--check-metrics") == 0;
    const bool chrome_trace = std::strcmp(argv[i], "--chrome-trace") == 0;
    if (check_metrics || chrome_trace) {
      if (i + 1 >= argc) {
        std::cerr << "abrreport: " << argv[i] << " needs a file argument\n";
        return 2;
      }
      if (check_metrics) {
        metrics_files.emplace_back(argv[++i]);
      } else {
        chrome_trace_out = argv[++i];
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << kUsage;
      return 0;
    } else if (argv[i][0] == '-') {
      std::cerr << "abrreport: unknown option " << argv[i] << "\n";
      return 2;
    } else {
      journals.emplace_back(argv[i]);
    }
  }
  if (!chrome_trace_out.empty()) {
    if (journals.size() != 1 || !metrics_files.empty()) {
      std::cerr << kUsage;
      return 2;
    }
    return write_chrome_trace(journals.front(), chrome_trace_out);
  }
  if (journals.empty() && metrics_files.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  int status = 0;
  for (const std::string& path : metrics_files) {
    status = std::max(status, abr::tools::check_metrics_file(path, std::cout));
  }
  for (const std::string& path : journals) {
    try {
      const abr::tools::ReportSummary summary =
          abr::tools::load_journal(path);
      if (journals.size() > 1) std::cout << "== " << path << " ==\n";
      std::cout << abr::tools::render_report(summary);
      if (summary.malformed_lines > 0) status = std::max(status, 1);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }
  return status;
}
