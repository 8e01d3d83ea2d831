#include "common.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0.0;
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

LatencySummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary summary;
  summary.count = samples.size();
  summary.p50 = quantile_sorted(samples, 0.5);
  summary.p99 = quantile_sorted(samples, 0.99);
  for (const double q : {0.99, 0.999, 0.9999}) {
    if (static_cast<double>(samples.size()) * (1.0 - q) >= 10.0) {
      summary.tail_q = q;
      summary.tail = quantile_sorted(samples, q);
    }
  }
  return summary;
}

namespace {
constexpr std::size_t kSortValues = std::size_t{1} << 16;  // 256 KB
constexpr int kSorts = 2;
}  // namespace

Calibration::Calibration(int threads) {
  const double rss_before_kb = current_rss_kb();
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  unsorted_.resize(kSortValues);
  for (std::uint32_t& value : unsorted_) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    value = static_cast<std::uint32_t>(state >> 32);
  }
  sorted_.assign(static_cast<std::size_t>(std::max(1, threads)),
                 std::vector<std::uint32_t>(kSortValues));
  resident_kb_ = current_rss_kb() - rss_before_kb;
}

double Calibration::run_kernel(std::vector<std::uint32_t>& sorted) const {
  const double start = thread_cpu_s();
  std::uint32_t sink = 0;
  for (int sort = 0; sort < kSorts; ++sort) {
    std::copy(unsorted_.begin(), unsorted_.end(), sorted.begin());
    sorted[0] ^= sink;  // keeps the compiler from hoisting the sort
    std::sort(sorted.begin(), sorted.end());
    sink += sorted[kSortValues / 2];
  }
  return thread_cpu_s() - start;
}

void Calibration::sample(int runs) {
  std::vector<double> times;
  for (int run = 0; run < runs; ++run) {
    // Every thread sorts its own copy at once; the sample is their mean.
    std::vector<double> thread_s(sorted_.size());
    {
      std::vector<std::jthread> helpers;
      for (std::size_t t = 1; t < sorted_.size(); ++t) {
        helpers.emplace_back(
            [this, t, &thread_s] { thread_s[t] = run_kernel(sorted_[t]); });
      }
      thread_s[0] = run_kernel(sorted_[0]);
    }
    double total = 0.0;
    for (const double s : thread_s) total += s;
    times.push_back(total / static_cast<double>(thread_s.size()));
    samples_.push_back(times.back());
  }
  last_s_ = median(times);
}

void Fingerprint::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void RunResult::fail(std::uint64_t operations, const std::string& why) {
  correct = false;
  failed += operations;
  if (notes.size() < 64) notes.push_back("FAIL " + why);
}

}  // namespace perfbench
