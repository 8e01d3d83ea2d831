// Shared plumbing for the perfbench workloads: clocks, process counters,
// sample statistics, and the result record every workload fills.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock; vDSO, ~20 ns per read).
std::int64_t now_ns();

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

/// Process CPU time (user + sys, every thread), seconds.
double process_cpu_s();

/// CPU time of the calling thread, seconds.
double thread_cpu_s();

/// Peak resident set size of the process, KB (VmHWM in /proc/self/status).
/// Not getrusage's ru_maxrss: Linux carries that across execve, so it would
/// report the launching process's RSS whenever that is the larger.
double peak_rss_kb();

/// Current resident set size of the process, KB (/proc/self/statm).
double current_rss_kb();

/// Median of `values` (0 when empty). Takes a copy: callers keep order.
double median(std::vector<double> values);

/// q-quantile (q in [0, 1]) of `sorted` by linear interpolation between
/// closest ranks; 0 when empty.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Latency summary in the form the benchmark reports it: the median and the
/// 99th percentile, plus the highest of p99 / p99.9 / p99.99 that still has
/// at least ten samples beyond it (for the human-readable lines).
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_q = 0.0;  ///< 0 when fewer than 1000 samples
  double tail = 0.0;
};
LatencySummary summarize(std::vector<double> samples);

/// A fixed kernel of branchy, data-dependent work that uses none of the
/// repository's code: two sorts of the same 64K shuffled integers (256 KB,
/// L2-resident), 10-13 ms of CPU.
///
/// The host is shared. Other tenants slow this process down in phases that
/// can outlast a run, and CPU time counts that slowdown too, because it
/// comes from contention for the core and its caches, not only from stolen
/// time. So the workloads run this kernel between their measured batches
/// and report each batch's CPU time scaled by the kernel run next to it,
/// its cost at the reference speed:
///   measured × (kReferenceS ÷ kernel time)^kElasticity.
/// A change to the repository's code moves the batch and not the kernel,
/// so it shows in full.
class Calibration {
 public:
  /// About the kernel's CPU time on the 4-vCPU Xeon (Sapphire Rapids, KVM)
  /// host the benchmark was written on. It only sets the scale.
  static constexpr double kReferenceS = 0.0100;
  /// How much more the workloads' CPU time moves with the host's load than
  /// the kernel's, in log terms. Measured on that host: log-log slopes of
  /// round time on kernel time of 1.2-1.5 within runs on both fleets, and
  /// 1.75 for RobustMPC between a busy and a quiet phase.
  static constexpr double kElasticity = 1.5;

  /// `threads` copies of the kernel run at once, one on this thread: as
  /// many as the workload keeps busy, so the sample sees every vCPU the
  /// workload uses.
  explicit Calibration(int threads = 1);

  /// Runs the kernel `runs` times. The median of their CPU times (each the
  /// mean over the threads) scales the batches measured next.
  void sample(int runs = 1);

  /// `cpu_s` at the reference speed, scaled by the latest sample().
  double to_reference(double cpu_s) const {
    return cpu_s * std::pow(kReferenceS / last_s_, kElasticity);
  }

  /// Median kernel CPU time in this run, seconds.
  double median_s() const { return median(samples_); }

  /// Resident memory of the kernel's buffers, KB. They are touched when
  /// the object is built and stay resident, so they add exactly this much
  /// to the process's peak RSS.
  double resident_kb() const { return resident_kb_; }

 private:
  /// One kernel run on the calling thread; returns its CPU seconds.
  double run_kernel(std::vector<std::uint32_t>& sorted) const;

  std::vector<std::uint32_t> unsorted_;
  std::vector<std::vector<std::uint32_t>> sorted_;  ///< one per thread
  std::vector<double> samples_;
  double last_s_ = 0.0;
  double resident_kb_ = 0.0;
};

/// Process CPU seconds (every thread, so a set-up that starts workers is
/// counted whole) of one call of `set_up`, including the release of what
/// the previous call built. Repeats the call until the calls have used
/// kMinSetupSampleS and returns the mean, because a single sub-millisecond
/// set-up is mostly clock noise.
constexpr double kMinSetupSampleS = 0.02;
template <typename F>
double setup_cpu_s(F&& set_up) {
  const double start = process_cpu_s();
  int calls = 0;
  double used = 0.0;
  do {
    set_up();
    ++calls;
    used = process_cpu_s() - start;
  } while (used < kMinSetupSampleS);
  return used / calls;
}

/// FNV-1a accumulation used for the decision / byte fingerprints.
class Fingerprint {
 public:
  void add(std::uint64_t value);
  void add_double(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// What one workload run produced. `metrics` holds every value the workload
/// measured, keyed by metric name; main() selects the end-to-end or the
/// per-layer set from it.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the JSON result (sample counts,
  /// identity checks, the first few failures).
  std::vector<std::string> notes;

  /// Records a correctness failure: counts `operations` as failed and keeps
  /// the first few messages.
  void fail(std::uint64_t operations, const std::string& why);
};

/// Command-line options shared by every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its sampled spans (Chrome trace JSON).
  std::string spans_out;
};

}  // namespace perfbench
