#pragma once

#include "sim/multiplayer.hpp"

namespace abr::sim {

/// Former name of simulate_shared_link, from when a second (struct-of-
/// arrays) engine lived beside it. That engine is now simulate_shared_link
/// itself; this forwarder remains only because the repository benchmark
/// (perfbench/src/fleet.cpp) still calls it by this name.
inline MultiPlayerResult simulate_shared_link_soa(
    const trace::ThroughputTrace& link, const media::VideoManifest& manifest,
    const qoe::QoeModel& qoe, const MultiPlayerConfig& config,
    std::span<BitrateController* const> controllers,
    std::span<predict::ThroughputPredictor* const> predictors) {
  return simulate_shared_link(link, manifest, qoe, config, controllers,
                              predictors);
}

}  // namespace abr::sim
