#include "sim/fleet_engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "predict/predictor.hpp"
#include "test_helpers.hpp"

namespace abr::sim {
namespace {

using ::abr::testing::ConstantPredictor;
using ::abr::testing::FixedLevelController;

// simulate_shared_link_soa is kept as a forwarder to simulate_shared_link
// because the repository benchmark calls it by that name. These tests pin
// that the forwarder rejects the same inputs the shared-link engine does.

TEST(FleetEngine, ValidatesArgumentsLikeReference) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(2000.0, 1000.0);
  FixedLevelController controller(0);
  ConstantPredictor predictor(1000.0);
  BitrateController* controllers[] = {&controller};
  predict::ThroughputPredictor* predictors[] = {&predictor, &predictor};
  MultiPlayerConfig config;
  EXPECT_THROW(simulate_shared_link_soa(link, manifest, qoe, config,
                                        std::span<BitrateController* const>{},
                                        std::span(predictors, 0)),
               std::invalid_argument);
  EXPECT_THROW(simulate_shared_link_soa(link, manifest, qoe, config,
                                        std::span(controllers, 1),
                                        std::span(predictors, 2)),
               std::invalid_argument);
  MultiPlayerConfig fixed;
  fixed.session.startup_policy = StartupPolicy::kFixedDelay;
  EXPECT_THROW(simulate_shared_link_soa(link, manifest, qoe, fixed,
                                        std::span(controllers, 1),
                                        std::span(predictors, 1)),
               std::invalid_argument);
  MultiPlayerConfig bad_step;
  bad_step.time_step_s = 0.0;
  EXPECT_THROW(simulate_shared_link_soa(link, manifest, qoe, bad_step,
                                        std::span(controllers, 1),
                                        std::span(predictors, 1)),
               std::invalid_argument);
}

TEST(FleetEngine, StarvedLinkThrowsLikeReference) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  // 1 kbps: the 8-chunk video could never finish in the safety window.
  const auto link = trace::ThroughputTrace::constant(1.0, 1000.0);
  FixedLevelController controller(2);
  ConstantPredictor predictor(1.0);
  BitrateController* controllers[] = {&controller};
  predict::ThroughputPredictor* predictors[] = {&predictor};
  EXPECT_THROW(simulate_shared_link_soa(link, manifest, qoe, {},
                                        std::span(controllers, 1),
                                        std::span(predictors, 1)),
               std::runtime_error);
}

}  // namespace
}  // namespace abr::sim
