// The three benchmark workloads. Each runs in its own process (main() runs
// exactly one), so peak RSS and the global metrics registry never leak from
// one workload into another.
#pragma once

#include "common.hpp"
#include "core/algorithms.hpp"

namespace perfbench {

/// fleet_robustmpc / fleet_fastmpc: the paper's controllers on one
/// contended shared link through sim::simulate_shared_link_soa.
RunResult run_fleet(const RunOptions& options, abr::core::Algorithm algorithm);

/// serve_mixed: the real ChunkServer over loopback under two closed-loop
/// keep-alive clients sending whole segments and 1 KiB ranges.
RunResult run_serve(const RunOptions& options);

}  // namespace perfbench
