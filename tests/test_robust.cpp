// Tests for the distribution-aware evaluation extension, the edge memory
// budget, and hysteretic runtime switching.

#include <cmath>

#include <gtest/gtest.h>

#include "comm/trace.hpp"
#include "core/robust.hpp"
#include "dnn/presets.hpp"
#include "perf/predictor.hpp"
#include "runtime/deployer.hpp"

namespace lens::core {
namespace {

TEST(ThroughputDistribution, LogNormalQuantiles) {
  const auto d = ThroughputDistribution::log_normal(10.0, 0.5, 9);
  ASSERT_EQ(d.tu_mbps.size(), 9u);
  d.validate();
  // Median atom sits at the median.
  EXPECT_NEAR(d.tu_mbps[4], 10.0, 1e-6);
  // Symmetric in log space: sqrt(q_lo * q_hi) ~ median.
  EXPECT_NEAR(std::sqrt(d.tu_mbps[0] * d.tu_mbps[8]), 10.0, 0.2);
  // Mean exceeds the median for a log-normal.
  EXPECT_GT(d.mean(), 10.0);
}

TEST(ThroughputDistribution, ZeroSigmaCollapses) {
  const auto d = ThroughputDistribution::log_normal(5.0, 0.0, 5);
  for (double tu : d.tu_mbps) EXPECT_NEAR(tu, 5.0, 1e-9);
  EXPECT_NEAR(d.mean(), 5.0, 1e-9);
}

TEST(ThroughputDistribution, FromSamplesAndValidation) {
  const auto d = ThroughputDistribution::from_samples({2.0, 4.0, 6.0});
  EXPECT_NEAR(d.mean(), 4.0, 1e-12);
  EXPECT_THROW(ThroughputDistribution::from_samples({}), std::invalid_argument);
  EXPECT_THROW(ThroughputDistribution::log_normal(-1.0, 0.5), std::invalid_argument);
  ThroughputDistribution bad;
  bad.tu_mbps = {1.0};
  bad.weight = {0.5};
  EXPECT_THROW(bad.validate(), std::invalid_argument);  // weights must sum to 1
  bad.weight = {1.0};
  bad.tu_mbps = {-1.0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

class RobustEvalTest : public ::testing::Test {
 protected:
  RobustEvalTest()
      : sim_(perf::jetson_tx2_gpu()),
        oracle_(sim_),
        wifi_(comm::WirelessTechnology::kWifi, 5.0),
        evaluator_(oracle_, wifi_),
        alexnet_(dnn::alexnet()) {}

  perf::DeviceSimulator sim_;
  perf::SimulatorOracle oracle_;
  comm::CommModel wifi_;
  DeploymentEvaluator evaluator_;
  dnn::Architecture alexnet_;
};

TEST_F(RobustEvalTest, OracleNeverWorseThanFixed) {
  const RobustDeploymentEvaluator robust(
      evaluator_, ThroughputDistribution::log_normal(8.0, 0.8, 15));
  const RobustEvaluation result = robust.evaluate(alexnet_);
  EXPECT_LE(result.latency.expected_oracle, result.latency.expected_fixed_best + 1e-9);
  EXPECT_LE(result.energy.expected_oracle, result.energy.expected_fixed_best + 1e-9);
  EXPECT_GT(result.latency.expected_oracle, 0.0);
}

TEST_F(RobustEvalTest, DegenerateDistributionMatchesPointEvaluation) {
  const RobustDeploymentEvaluator robust(
      evaluator_, ThroughputDistribution::log_normal(10.0, 0.0, 3));
  const RobustEvaluation result = robust.evaluate(alexnet_);
  const DeploymentEvaluation point = evaluator_.evaluate(alexnet_, 10.0);
  EXPECT_NEAR(result.latency.expected_fixed_best, point.best_latency_ms(), 1e-6);
  EXPECT_NEAR(result.energy.expected_fixed_best, point.best_energy_mj(), 1e-6);
  // With a single support point, oracle == fixed best.
  EXPECT_NEAR(result.latency.expected_oracle, result.latency.expected_fixed_best, 1e-9);
}

TEST_F(RobustEvalTest, WiderDistributionsIncreaseHeadroom) {
  // A distribution that straddles deployment thresholds gives the runtime
  // switcher something to do; a tight one does not.
  const RobustDeploymentEvaluator narrow(
      evaluator_, ThroughputDistribution::log_normal(8.0, 0.05, 15));
  const RobustDeploymentEvaluator wide(
      evaluator_, ThroughputDistribution::log_normal(8.0, 1.2, 15));
  // Adaptation headroom: the share of the fixed-best cost that per-sample
  // switching saves.
  const auto headroom = [](const RobustMetric& m) {
    return (m.expected_fixed_best - m.expected_oracle) / m.expected_fixed_best;
  };
  const double narrow_headroom = headroom(narrow.evaluate(alexnet_).energy);
  const double wide_headroom = headroom(wide.evaluate(alexnet_).energy);
  EXPECT_GE(wide_headroom, narrow_headroom);
}

TEST_F(RobustEvalTest, FixedBestIndexIsTrueArgmin) {
  const auto distribution = ThroughputDistribution::log_normal(6.0, 0.7, 11);
  const RobustDeploymentEvaluator robust(evaluator_, distribution);
  const RobustEvaluation result = robust.evaluate(alexnet_);
  // Recompute the expected cost of every option and confirm the argmin.
  for (std::size_t i = 0; i < result.base.options.size(); ++i) {
    double expected = 0.0;
    const DeploymentOption& o = result.base.options[i];
    for (std::size_t s = 0; s < distribution.tu_mbps.size(); ++s) {
      double cost = o.edge_energy_mj;
      if (o.tx_bytes > 0) cost += wifi_.tx_energy_mj(o.tx_bytes, distribution.tu_mbps[s]);
      expected += distribution.weight[s] * cost;
    }
    EXPECT_GE(expected + 1e-9, result.energy.expected_fixed_best);
  }
}

// ---- edge memory budget -----------------------------------------------------

TEST_F(RobustEvalTest, MemoryBudgetFiltersHeavyOptions) {
  // AlexNet carries ~61M params (~244 MB fp32); pool5 splits keep only the
  // conv trunk (~3.7M params, ~15 MB) on the edge.
  EvaluatorConfig config;
  config.edge_memory_budget_bytes = 50ULL << 20;  // 50 MB
  const DeploymentEvaluator budgeted(oracle_, wifi_, config);
  const DeploymentEvaluation result = budgeted.evaluate(alexnet_, 10.0);
  EXPECT_FALSE(result.has_all_edge());          // 244 MB does not fit
  EXPECT_NO_THROW(result.all_cloud());          // always available
  bool has_conv_split = false;
  for (const DeploymentOption& o : result.options) {
    EXPECT_LE(o.edge_weight_bytes, config.edge_memory_budget_bytes);
    if (o.kind == DeploymentKind::kPartitioned) has_conv_split = true;
  }
  EXPECT_TRUE(has_conv_split);
  EXPECT_THROW(result.all_edge(), std::logic_error);
}

TEST_F(RobustEvalTest, UnlimitedBudgetKeepsEverything) {
  const DeploymentEvaluation result = evaluator_.evaluate(alexnet_, 10.0);
  EXPECT_TRUE(result.has_all_edge());
  // Weight accounting: All-Edge holds the full model.
  EXPECT_EQ(result.all_edge().edge_weight_bytes, 4ULL * alexnet_.total_params());
  EXPECT_EQ(result.all_cloud().edge_weight_bytes, 0u);
}

TEST_F(RobustEvalTest, TinyBudgetForcesAllCloud) {
  EvaluatorConfig config;
  config.edge_memory_budget_bytes = 1024;  // nothing fits
  const DeploymentEvaluator budgeted(oracle_, wifi_, config);
  const DeploymentEvaluation result = budgeted.evaluate(alexnet_, 10.0);
  ASSERT_EQ(result.options.size(), 1u);
  EXPECT_EQ(result.options.front().kind, DeploymentKind::kAllCloud);
  EXPECT_EQ(result.best_latency_option, 0u);
}

// ---- fault-scenario pricing -------------------------------------------------

TEST(FaultScenarios, DefaultMixIsWellFormed) {
  const std::vector<FaultScenario> scenarios = default_fault_scenarios(10.0);
  ASSERT_GE(scenarios.size(), 4u);
  double mass = 0.0;
  bool has_cloud_outage = false;
  for (const FaultScenario& s : scenarios) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_GT(s.probability, 0.0);
    EXPECT_GT(s.tu_mbps, 0.0);
    EXPECT_GE(s.edge_slowdown, 1.0);
    has_cloud_outage |= !s.cloud_available;
    mass += s.probability;
  }
  EXPECT_TRUE(has_cloud_outage);
  EXPECT_NEAR(mass, 1.0, 1e-12);
  EXPECT_THROW(default_fault_scenarios(0.0), std::invalid_argument);
}

TEST_F(RobustEvalTest, HealthyScenarioMatchesPointEvaluation) {
  const RobustDeploymentEvaluator robust(
      evaluator_, ThroughputDistribution::from_samples({10.0}));
  const DeploymentPlan plan = evaluator_.compile(alexnet_);
  const std::vector<FaultScenario> healthy = {
      {"healthy", 1.0, 10.0, true, 1.0, 0.0}};
  const FaultEvaluation result = robust.evaluate_under_faults(plan, healthy);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_TRUE(result.outcomes[0].servable);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
  const DeploymentEvaluation point = evaluator_.evaluate(alexnet_, 10.0);
  EXPECT_NEAR(result.expected_latency_ms, point.best_latency_ms(), 1e-9);
  EXPECT_NEAR(result.degradation_ratio, 1.0, 1e-9);
}

TEST_F(RobustEvalTest, CloudOutageScenarioForcesEdgeOnlyOption) {
  const RobustDeploymentEvaluator robust(
      evaluator_, ThroughputDistribution::from_samples({10.0}));
  const DeploymentPlan plan = evaluator_.compile(alexnet_);
  const FaultEvaluation result =
      robust.evaluate_under_faults(plan, default_fault_scenarios(10.0));
  EXPECT_DOUBLE_EQ(result.availability, 1.0);  // AlexNet has an All-Edge option
  EXPECT_GE(result.degradation_ratio, 1.0 - 1e-9);
  for (const FaultScenarioOutcome& o : result.outcomes) {
    ASSERT_TRUE(o.servable) << o.scenario.name;
    if (!o.scenario.cloud_available) {
      EXPECT_EQ(plan.options()[o.best_option].tx_bytes, 0u) << o.scenario.name;
    }
    if (o.scenario.rtt_extra_ms > 0.0 &&
        plan.options()[o.best_option].tx_bytes > 0) {
      // A transmitting winner under an RTT spike must have absorbed it.
      EXPECT_GE(o.latency_ms, o.scenario.rtt_extra_ms);
    }
  }
}

TEST_F(RobustEvalTest, PlanWithoutEdgeOptionLosesAvailability) {
  // 1 KB budget leaves only All-Cloud: the cloud-outage scenario is
  // unservable and its probability mass is lost from availability.
  EvaluatorConfig config;
  config.edge_memory_budget_bytes = 1024;
  const DeploymentEvaluator budgeted(oracle_, wifi_, config);
  const RobustDeploymentEvaluator robust(
      budgeted, ThroughputDistribution::from_samples({10.0}));
  const DeploymentPlan plan = budgeted.compile(alexnet_);
  const std::vector<FaultScenario> scenarios = default_fault_scenarios(10.0);
  const FaultEvaluation result = robust.evaluate_under_faults(plan, scenarios);
  double lost = 0.0;
  for (const FaultScenarioOutcome& o : result.outcomes) {
    if (!o.scenario.cloud_available) {
      EXPECT_FALSE(o.servable);
      lost += o.scenario.probability;
    } else {
      EXPECT_TRUE(o.servable);
    }
  }
  EXPECT_GT(lost, 0.0);
  EXPECT_NEAR(result.availability, 1.0 - lost, 1e-12);
}

TEST_F(RobustEvalTest, FaultEvaluationValidation) {
  const RobustDeploymentEvaluator robust(
      evaluator_, ThroughputDistribution::from_samples({10.0}));
  const DeploymentPlan plan = evaluator_.compile(alexnet_);
  EXPECT_THROW(robust.evaluate_under_faults(plan, {}), std::invalid_argument);
  EXPECT_THROW(robust.evaluate_under_faults(plan, {{"half", 0.5, 10.0, true, 1.0, 0.0}}),
               std::invalid_argument);  // mass != 1
  EXPECT_THROW(
      robust.evaluate_under_faults(plan, {{"dead-link", 1.0, 0.0, true, 1.0, 0.0}}),
      std::invalid_argument);  // non-positive throughput
  EXPECT_THROW(
      robust.evaluate_under_faults(plan, {{"speedup", 1.0, 10.0, true, 0.5, 0.0}}),
      std::invalid_argument);  // slowdown < 1
}

}  // namespace
}  // namespace lens::core

namespace lens::runtime {
namespace {

std::vector<core::DeploymentOption> two_options() {
  core::DeploymentOption partitioned;
  partitioned.kind = core::DeploymentKind::kPartitioned;
  partitioned.edge_latency_ms = 10.0;
  partitioned.tx_bytes = 40000;
  core::DeploymentOption edge;
  edge.kind = core::DeploymentKind::kAllEdge;
  edge.edge_latency_ms = 30.0;
  return {partitioned, edge};
}

TEST(Hysteresis, SuppressesMarginalSwitches) {
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const DynamicDeployer deployer(two_options(), wifi, OptimizeFor::kLatency);
  // Find the crossover and probe just on the far side of it: the cheapest
  // option flips, but only barely, so a 10% margin holds the current one.
  const auto threshold = crossover_tu(deployer.curves()[0], deployer.curves()[1]);
  ASSERT_TRUE(threshold.has_value());
  const double just_past = *threshold * 0.98;  // slightly cheaper for option 1
  const std::size_t plain = deployer.select(just_past);
  EXPECT_EQ(deployer.select_with_hysteresis(just_past, 1 - plain, 0.10), 1 - plain);
  // Far past the threshold, the switch happens regardless of the margin.
  EXPECT_EQ(deployer.select_with_hysteresis(*threshold / 4.0, 0, 0.10),
            deployer.select(*threshold / 4.0));
}

TEST(Hysteresis, ReducesSwitchCountOnNoisyTrace) {
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const DynamicDeployer deployer(two_options(), wifi, OptimizeFor::kLatency);
  const auto threshold = crossover_tu(deployer.curves()[0], deployer.curves()[1]);
  ASSERT_TRUE(threshold.has_value());
  comm::TraceGeneratorConfig config;
  config.mean_mbps = *threshold;  // hover right at the flip point
  config.sigma = 0.25;
  config.correlation = 0.0;
  config.seed = 13;
  comm::TraceGenerator generator(config);
  const comm::ThroughputTrace trace = generator.generate(200);

  auto switch_count = [](const PlaybackResult& r) {
    std::size_t switches = 0;
    for (std::size_t i = 1; i < r.chosen_option.size(); ++i) {
      if (r.chosen_option[i] != r.chosen_option[i - 1]) ++switches;
    }
    return switches;
  };
  const PlaybackResult plain = deployer.play_dynamic(trace, 1.0, 0.0);
  const PlaybackResult damped = deployer.play_dynamic(trace, 1.0, 0.15);
  EXPECT_LT(switch_count(damped), switch_count(plain));
  // Cost penalty of damping must be small near the threshold (curves cross
  // there, so either option is nearly optimal).
  EXPECT_LT(damped.total_cost, plain.total_cost * 1.05);
}

TEST(Hysteresis, Validation) {
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const DynamicDeployer deployer(two_options(), wifi, OptimizeFor::kLatency);
  EXPECT_THROW(deployer.select_with_hysteresis(5.0, 99, 0.1), std::out_of_range);
  EXPECT_THROW(deployer.select_with_hysteresis(5.0, 0, -0.1), std::invalid_argument);
}

}  // namespace
}  // namespace lens::runtime
