// Tests for the discrete-event edge-cloud simulator.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>

#include <gtest/gtest.h>

#include "core/topology.hpp"
#include "dnn/presets.hpp"
#include "par/runtime.hpp"
#include "perf/predictor.hpp"
#include "sim/battery.hpp"
#include "sim/fault.hpp"
#include "sim/link.hpp"
#include "sim/system.hpp"
#include "sim/timeline.hpp"

namespace lens::sim {
namespace {

TEST(Timeline, FifoQueueing) {
  ResourceTimeline timeline;
  EXPECT_DOUBLE_EQ(timeline.schedule(0.0, 1.0), 1.0);
  // Arrives while busy: queues behind the first job.
  EXPECT_DOUBLE_EQ(timeline.schedule(0.5, 1.0), 2.0);
  // Arrives after idle gap: starts immediately.
  EXPECT_DOUBLE_EQ(timeline.schedule(5.0, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(timeline.total_busy(), 2.5);
  EXPECT_EQ(timeline.jobs(), 3u);
}

TEST(Timeline, Validation) {
  ResourceTimeline timeline;
  EXPECT_THROW(timeline.schedule(0.0, -1.0), std::invalid_argument);
  timeline.schedule(5.0, 1.0);
  EXPECT_THROW(timeline.schedule(1.0, 1.0), std::invalid_argument);  // out of order
}

comm::ThroughputTrace flat_trace(double mbps, double interval_s = 100.0) {
  comm::ThroughputTrace trace;
  trace.samples_mbps = {mbps};
  trace.interval_s = interval_s;
  return trace;
}

TEST(Link, ConstantRateMatchesClosedForm) {
  const comm::RadioPowerModel radio = comm::power_model_for(comm::WirelessTechnology::kWifi);
  TimeVaryingLink link(flat_trace(8.0), radio);
  // 1 MB at 8 Mbps = 8e6 bits / 8e6 bit/s = 1 s.
  const TransferResult r = link.transfer(10.0, 1000000);
  EXPECT_NEAR(r.end_s, 11.0, 1e-9);
  EXPECT_NEAR(r.energy_mj, radio.transmit_power_mw(8.0) * 1.0, 1e-6);  // mW*s
}

TEST(Link, RateChangeIsIntegrated) {
  // 10 Mbps for 1 s, then 2 Mbps: 1.5 MB = 12e6 bits. First second carries
  // 10e6 bits; remaining 2e6 bits at 2 Mbps take another 1 s.
  comm::ThroughputTrace trace;
  trace.samples_mbps = {10.0, 2.0};
  trace.interval_s = 1.0;
  const comm::RadioPowerModel radio = comm::power_model_for(comm::WirelessTechnology::kLte);
  TimeVaryingLink link(trace, radio);
  const TransferResult r = link.transfer(0.0, 1500000);
  EXPECT_NEAR(r.end_s, 2.0, 1e-9);
  const double expected_energy =
      radio.transmit_power_mw(10.0) * 1.0 + radio.transmit_power_mw(2.0) * 1.0;
  EXPECT_NEAR(r.energy_mj, expected_energy, 1e-6);
}

TEST(Link, TransferAdvancesPastEdgesThatFloorRoundsLow) {
  // At now = 4.3 s, floor(4.3 / 0.1) = 42, so the computed edge is 4.3 s
  // itself; the transfer must step on to the next edge rather than spin on
  // an empty window. 8e5 bits at 8 Mbps take exactly 0.1 s.
  TimeVaryingLink link(flat_trace(8.0, 0.1),
                       comm::power_model_for(comm::WirelessTechnology::kWifi));
  const TransferResult r = link.transfer(4.25, 100000);
  EXPECT_NEAR(r.end_s, 4.35, 1e-9);
}

TEST(Link, TraceWrapsAround) {
  TimeVaryingLink link(flat_trace(4.0, 1.0), comm::power_model_for(comm::WirelessTechnology::kWifi));
  EXPECT_DOUBLE_EQ(link.throughput_at(0.5), 4.0);
  EXPECT_DOUBLE_EQ(link.throughput_at(123.7), 4.0);
}

TEST(Link, FifoSerialization) {
  TimeVaryingLink link(flat_trace(8.0), comm::power_model_for(comm::WirelessTechnology::kWifi));
  const TransferResult first = link.schedule(0.0, 1000000);   // 1 s
  const TransferResult second = link.schedule(0.2, 1000000);  // queued
  EXPECT_NEAR(first.end_s, 1.0, 1e-9);
  EXPECT_NEAR(second.start_s, 1.0, 1e-9);
  EXPECT_NEAR(second.end_s, 2.0, 1e-9);
  EXPECT_NEAR(link.total_busy(), 2.0, 1e-9);
}

TEST(Link, ZeroBytesInstantaneous) {
  TimeVaryingLink link(flat_trace(8.0), comm::power_model_for(comm::WirelessTechnology::kWifi));
  const TransferResult r = link.schedule(3.0, 0);
  EXPECT_DOUBLE_EQ(r.end_s, 3.0);
  EXPECT_DOUBLE_EQ(r.energy_mj, 0.0);
}

TEST(Link, Validation) {
  const comm::RadioPowerModel radio = comm::power_model_for(comm::WirelessTechnology::kWifi);
  comm::ThroughputTrace empty;
  EXPECT_THROW(TimeVaryingLink(empty, radio), std::invalid_argument);
  comm::ThroughputTrace bad = flat_trace(8.0);
  bad.samples_mbps[0] = -1.0;
  EXPECT_THROW(TimeVaryingLink(bad, radio), std::invalid_argument);
  TimeVaryingLink link(flat_trace(8.0), radio);
  EXPECT_THROW(link.throughput_at(-1.0), std::invalid_argument);
  EXPECT_THROW(link.schedule(-1.0, 10), std::invalid_argument);
}

// ---- full system ------------------------------------------------------------

class SystemTest : public ::testing::Test {
 protected:
  SystemTest()
      : sim_(perf::jetson_tx2_gpu()),
        oracle_(sim_),
        wifi_(comm::WirelessTechnology::kWifi, 5.0),
        evaluator_(oracle_, wifi_),
        alexnet_(dnn::alexnet()),
        evaluation_(evaluator_.evaluate(alexnet_, 10.0)) {}

  perf::DeviceSimulator sim_;
  perf::SimulatorOracle oracle_;
  comm::CommModel wifi_;
  core::DeploymentEvaluator evaluator_;
  dnn::Architecture alexnet_;
  core::DeploymentEvaluation evaluation_;
};

TEST_F(SystemTest, LightLoadLatencyMatchesIsolatedCost) {
  // At 1 req/s the edge (32 ms service) never queues: per-request latency
  // equals the isolated All-Edge latency.
  SimConfig config;
  config.duration_s = 200.0;
  config.arrival_rate_hz = 1.0;
  config.policy = DispatchPolicy::kFixed;
  std::size_t edge_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
  }
  config.fixed_option = edge_index;
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  EXPECT_GT(stats.completed, 150u);
  EXPECT_NEAR(stats.p50_latency_ms, evaluation_.all_edge().latency_ms, 1.0);
  EXPECT_LT(stats.edge_utilization, 0.1);
}

TEST_F(SystemTest, OverloadQueuesAndLatencyExplodes) {
  // All-Edge serves ~32 req/s at most; at 60 req/s the queue grows without
  // bound and tail latency dwarfs the isolated cost.
  SimConfig config;
  config.duration_s = 60.0;
  config.arrival_rate_hz = 60.0;
  config.policy = DispatchPolicy::kFixed;
  std::size_t edge_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
  }
  config.fixed_option = edge_index;
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  EXPECT_GT(stats.p99_latency_ms, 20.0 * evaluation_.all_edge().latency_ms);
  EXPECT_GT(stats.edge_utilization, 0.9);
}

TEST_F(SystemTest, PartitionedSustainsHigherLoadThanAllEdge) {
  // The pool5 split occupies the edge for only ~16 ms vs ~32 ms All-Edge,
  // so at 45 req/s the split's tail latency is far lower.
  SimConfig config;
  config.duration_s = 60.0;
  config.arrival_rate_hz = 45.0;
  config.policy = DispatchPolicy::kFixed;
  std::size_t edge_index = 0;
  std::size_t split_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
    if (evaluation_.options[i].kind == core::DeploymentKind::kPartitioned &&
        evaluation_.options[i].label(alexnet_) == "split@pool5") {
      split_index = i;
    }
  }
  config.fixed_option = edge_index;
  EdgeCloudSystem all_edge(evaluation_.options, wifi_, flat_trace(30.0), config);
  config.fixed_option = split_index;
  EdgeCloudSystem split(evaluation_.options, wifi_, flat_trace(30.0), config);
  const SimStats edge_stats = all_edge.run();
  const SimStats split_stats = split.run();
  EXPECT_LT(split_stats.p99_latency_ms, 0.5 * edge_stats.p99_latency_ms);
}

TEST_F(SystemTest, EnergyAccountingIsConsistent) {
  SimConfig config;
  config.duration_s = 100.0;
  config.arrival_rate_hz = 2.0;
  config.policy = DispatchPolicy::kFixed;
  config.fixed_option = 0;  // All-Cloud
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  // All-Cloud at a steady 10 Mbps: per-inference energy equals the
  // closed-form transfer energy.
  const double expected = wifi_.tx_energy_mj(evaluation_.all_cloud().tx_bytes, 10.0);
  EXPECT_NEAR(stats.energy_per_inference_mj, expected, 0.02 * expected);
}

TEST_F(SystemTest, DynamicPolicyTracksThroughput) {
  // Trace alternates between fast and very slow: the dynamic policy should
  // use different options across time, and beat the worse fixed policy.
  comm::ThroughputTrace trace;
  trace.samples_mbps = {30.0, 0.3};
  trace.interval_s = 20.0;
  SimConfig config;
  config.duration_s = 120.0;
  config.arrival_rate_hz = 2.0;
  config.policy = DispatchPolicy::kDynamic;
  config.metric = runtime::OptimizeFor::kLatency;
  EdgeCloudSystem system(evaluation_.options, wifi_, trace, config);
  const SimStats stats = system.run();
  bool used_multiple = false;
  for (const RequestRecord& r : system.records()) {
    if (r.option != system.records().front().option) {
      used_multiple = true;
      break;
    }
  }
  EXPECT_TRUE(used_multiple);
  EXPECT_GT(stats.completed, 0u);
}

TEST_F(SystemTest, QueueAwareBeatsFixedUnderOverload) {
  // At 45 req/s the All-Edge queue explodes; spreading load across the edge
  // and the link keeps the tail bounded.
  SimConfig config;
  config.duration_s = 60.0;
  config.arrival_rate_hz = 45.0;
  std::size_t edge_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
  }
  config.policy = DispatchPolicy::kFixed;
  config.fixed_option = edge_index;
  EdgeCloudSystem fixed(evaluation_.options, wifi_, flat_trace(30.0), config);
  config.policy = DispatchPolicy::kQueueAware;
  EdgeCloudSystem balanced(evaluation_.options, wifi_, flat_trace(30.0), config);
  const SimStats fixed_stats = fixed.run();
  const SimStats balanced_stats = balanced.run();
  EXPECT_LT(balanced_stats.p99_latency_ms, 0.5 * fixed_stats.p99_latency_ms);
  // Both resources see real work.
  EXPECT_GT(balanced_stats.edge_utilization, 0.05);
  EXPECT_GT(balanced_stats.link_utilization, 0.05);
}

TEST_F(SystemTest, QueueAwareMatchesBestChoiceWhenIdle) {
  // With no queueing pressure, the queue-aware estimate reduces to the
  // isolated latency comparison, i.e. the latency-best option.
  SimConfig config;
  config.duration_s = 100.0;
  config.arrival_rate_hz = 0.5;
  config.policy = DispatchPolicy::kQueueAware;
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  system.run();
  for (const RequestRecord& r : system.records()) {
    EXPECT_EQ(r.option, evaluation_.best_latency_option);
  }
}

TEST_F(SystemTest, Validation) {
  SimConfig config;
  EXPECT_THROW(EdgeCloudSystem({}, wifi_, flat_trace(10.0), config), std::invalid_argument);
  config.fixed_option = 99;
  EXPECT_THROW(EdgeCloudSystem(evaluation_.options, wifi_, flat_trace(10.0), config),
               std::invalid_argument);
  config = {};
  config.duration_s = -1.0;
  EXPECT_THROW(EdgeCloudSystem(evaluation_.options, wifi_, flat_trace(10.0), config),
               std::invalid_argument);
  config = {};
  EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(10.0), config);
  system.run();
  EXPECT_THROW(system.run(), std::logic_error);
}

TEST_F(SystemTest, DeadlineAccounting) {
  SimConfig config;
  config.duration_s = 60.0;
  config.arrival_rate_hz = 45.0;  // All-Edge overloads at this rate
  config.policy = DispatchPolicy::kFixed;
  std::size_t edge_index = 0;
  for (std::size_t i = 0; i < evaluation_.options.size(); ++i) {
    if (evaluation_.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
  }
  config.fixed_option = edge_index;
  config.deadline_ms = 100.0;
  EdgeCloudSystem overloaded(evaluation_.options, wifi_, flat_trace(30.0), config);
  const SimStats stats = overloaded.run();
  EXPECT_GT(stats.deadline_violations, 0u);
  EXPECT_GT(stats.violation_rate, 0.3);
  EXPECT_LE(stats.violation_rate, 1.0);

  // Light load: no violations.
  config.arrival_rate_hz = 1.0;
  EdgeCloudSystem light(evaluation_.options, wifi_, flat_trace(30.0), config);
  EXPECT_DOUBLE_EQ(light.run().violation_rate, 0.0);
}

TEST(Battery, HandComputedDrain) {
  // Two requests of 500 J each at t=10 and t=20, idle 1 W, capacity 2000 J:
  // at t=20 spent = 20 J idle + 1000 J inference -> survives with margin.
  std::vector<RequestRecord> records(2);
  records[0].completion_s = 10.0;
  records[0].energy_mj = 500.0 * 1e3;
  records[1].completion_s = 20.0;
  records[1].energy_mj = 500.0 * 1e3;
  BatteryConfig config;
  config.capacity_j = 2000.0;
  config.idle_power_mw = 1000.0;
  const BatteryReport report = battery_replay(records, config);
  EXPECT_TRUE(report.survived);
  EXPECT_EQ(report.inferences_served, 2u);
  EXPECT_NEAR(report.inference_energy_j, 1000.0, 1e-9);
  EXPECT_NEAR(report.idle_energy_j, 20.0, 1e-9);
  EXPECT_NEAR(report.mean_power_w, 1020.0 / 20.0, 1e-9);
}

TEST(Battery, DiesMidStreamAtTheRightTime) {
  // Idle 1 W, capacity 15 J, first request at t=10 costs 10 J: idle leaves
  // 5 J at t=10, the request drains it -> dead at t=10, 0 served... the
  // request itself empties the battery exactly, so it is not served.
  std::vector<RequestRecord> records(2);
  records[0].completion_s = 10.0;
  records[0].energy_mj = 10.0 * 1e3;
  records[1].completion_s = 20.0;
  records[1].energy_mj = 10.0 * 1e3;
  BatteryConfig config;
  config.capacity_j = 15.0;
  config.idle_power_mw = 1000.0;
  const BatteryReport report = battery_replay(records, config);
  EXPECT_FALSE(report.survived);
  EXPECT_EQ(report.inferences_served, 0u);
  EXPECT_NEAR(report.time_to_empty_s, 10.0, 1e-9);

  // With no requests at all, pure idle kills it at capacity/power.
  const BatteryReport idle_only = battery_replay({records[0]}, {.capacity_j = 5.0,
                                                                .idle_power_mw = 1000.0});
  EXPECT_FALSE(idle_only.survived);
  EXPECT_NEAR(idle_only.time_to_empty_s, 5.0, 1e-9);
}

TEST(Battery, PartitionedOutlastsAllEdgePerCharge) {
  // End-to-end: the energy-cheaper deployment serves more inferences from
  // the same battery.
  const dnn::Architecture alexnet = dnn::alexnet();
  perf::DeviceSimulator sim(perf::jetson_tx2_gpu());
  const perf::SimulatorOracle oracle(sim);
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(oracle, wifi);
  const core::DeploymentEvaluation eval = evaluator.evaluate(alexnet, 10.0);

  auto run_policy = [&](std::size_t option) {
    SimConfig config;
    config.duration_s = 3000.0;
    config.arrival_rate_hz = 2.0;
    config.policy = DispatchPolicy::kFixed;
    config.fixed_option = option;
    EdgeCloudSystem system(eval.options, wifi, flat_trace(10.0), config);
    system.run();
    BatteryConfig battery;
    battery.capacity_j = 1500.0;  // small pack: dies within the run
    battery.idle_power_mw = 200.0;
    return battery_replay(system.records(), battery);
  };
  std::size_t edge_index = 0;
  std::size_t split_index = 0;
  for (std::size_t i = 0; i < eval.options.size(); ++i) {
    if (eval.options[i].kind == core::DeploymentKind::kAllEdge) edge_index = i;
    if (eval.options[i].kind == core::DeploymentKind::kPartitioned &&
        eval.options[i].label(alexnet) == "split@pool5") {
      split_index = i;
    }
  }
  const BatteryReport edge_report = run_policy(edge_index);
  const BatteryReport split_report = run_policy(split_index);
  ASSERT_FALSE(edge_report.survived);
  ASSERT_FALSE(split_report.survived);
  EXPECT_GT(split_report.inferences_served, edge_report.inferences_served);
}

TEST(Battery, Validation) {
  EXPECT_THROW(battery_replay({}, {.capacity_j = 0.0}), std::invalid_argument);
  std::vector<RequestRecord> unordered(2);
  unordered[0].completion_s = 10.0;
  unordered[1].completion_s = 5.0;
  EXPECT_THROW(battery_replay(unordered, {}), std::invalid_argument);
}

TEST(CommConditions, FromConditionsMatchesDirectConstruction) {
  comm::NetworkConditions conditions;
  conditions.technology = comm::WirelessTechnology::kLte;
  conditions.round_trip_ms = 12.0;
  const comm::CommModel from = comm::CommModel::from_conditions(conditions);
  const comm::CommModel direct(comm::WirelessTechnology::kLte, 12.0);
  EXPECT_DOUBLE_EQ(from.round_trip_ms(), direct.round_trip_ms());
  EXPECT_DOUBLE_EQ(from.tx_energy_mj(1000, 5.0), direct.tx_energy_mj(1000, 5.0));
}

// ---- fault injection --------------------------------------------------------

TEST(Timeline, UnorderedScheduleCoexistsWithFifo) {
  ResourceTimeline timeline;
  EXPECT_DOUBLE_EQ(timeline.schedule(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(timeline.schedule(2.0, 1.0), 3.0);
  // A fallback re-execution lands before the last FIFO arrival: allowed via
  // the unordered entry point, queued behind the busy horizon.
  EXPECT_DOUBLE_EQ(timeline.schedule_unordered(1.0, 0.5), 3.5);
  EXPECT_THROW(timeline.schedule_unordered(0.0, -1.0), std::invalid_argument);
  // The FIFO contract of schedule() is untouched by unordered insertions.
  EXPECT_THROW(timeline.schedule(1.0, 1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(timeline.schedule(4.0, 1.0), 5.0);
  EXPECT_EQ(timeline.jobs(), 4u);
}

TEST(FaultSchedule, GenerationIsDeterministicAndClassIndependent) {
  FaultScheduleConfig config;
  config.seed = 42;
  config.horizon_s = 500.0;
  config.link_outage_rate_hz = 1.0 / 30.0;
  const FaultSchedule once = FaultSchedule::generate(config);
  const FaultSchedule twice = FaultSchedule::generate(config);
  ASSERT_FALSE(once.empty());
  ASSERT_EQ(once.episodes().size(), twice.episodes().size());
  for (std::size_t i = 0; i < once.episodes().size(); ++i) {
    EXPECT_DOUBLE_EQ(once.episodes()[i].start_s, twice.episodes()[i].start_s);
    EXPECT_DOUBLE_EQ(once.episodes()[i].end_s, twice.episodes()[i].end_s);
  }
  // Enabling another class must not perturb the link-outage substream.
  config.cloud_outage_rate_hz = 1.0 / 40.0;
  config.rtt_spike_rate_hz = 1.0 / 50.0;
  const FaultSchedule mixed = FaultSchedule::generate(config);
  EXPECT_GT(mixed.count(FaultClass::kCloudOutage), 0u);
  ASSERT_EQ(mixed.count(FaultClass::kLinkOutage), once.count(FaultClass::kLinkOutage));
  std::vector<FaultEpisode> link_only;
  std::vector<FaultEpisode> link_mixed;
  for (const FaultEpisode& e : once.episodes()) {
    if (e.fault == FaultClass::kLinkOutage) link_only.push_back(e);
  }
  for (const FaultEpisode& e : mixed.episodes()) {
    if (e.fault == FaultClass::kLinkOutage) link_mixed.push_back(e);
  }
  for (std::size_t i = 0; i < link_only.size(); ++i) {
    EXPECT_DOUBLE_EQ(link_only[i].start_s, link_mixed[i].start_s);
    EXPECT_DOUBLE_EQ(link_only[i].end_s, link_mixed[i].end_s);
    EXPECT_DOUBLE_EQ(link_only[i].magnitude, link_mixed[i].magnitude);
  }
}

TEST(FaultSchedule, Validation) {
  FaultScheduleConfig config;
  config.link_outage_rate_hz = 0.1;
  EXPECT_THROW(FaultSchedule::generate(config), std::invalid_argument);  // no horizon
  config.horizon_s = 100.0;
  config.link_outage_depth = 1.5;  // multiplier must stay in (0, 1]
  EXPECT_THROW(FaultSchedule::generate(config), std::invalid_argument);
  EXPECT_THROW(FaultSchedule({{FaultClass::kCloudOutage, 5.0, 5.0, 0.0}}),
               std::invalid_argument);  // empty interval
  EXPECT_THROW(FaultSchedule({{FaultClass::kEdgeSlowdown, 0.0, 1.0, 0.5}}),
               std::invalid_argument);  // slowdown < 1
}

TEST(FaultSchedule, RejectsNaNMagnitudes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FaultSchedule({{FaultClass::kLinkOutage, 0.0, 10.0, nan}}),
               std::invalid_argument);
  for (FaultClass fault :
       {FaultClass::kCloudOutage, FaultClass::kRttSpike, FaultClass::kEdgeSlowdown,
        FaultClass::kMachineFailure, FaultClass::kRegionalBrownout,
        FaultClass::kBackhaulBrownout, FaultClass::kBackhaulOutage,
        FaultClass::kFogSiteFailure}) {
    EXPECT_THROW(FaultSchedule({{fault, 0.0, 10.0, nan, 1}}), std::invalid_argument)
        << fault_class_name(fault);
  }
}

TEST(FaultInjector, ScriptedQueriesAndDegradedTime) {
  const FaultSchedule schedule({
      {FaultClass::kLinkOutage, 1.0, 3.0, 0.25},
      {FaultClass::kCloudOutage, 2.0, 4.0, 0.0},
      {FaultClass::kRttSpike, 10.0, 12.0, 150.0},
      {FaultClass::kEdgeSlowdown, 20.0, 21.0, 2.5},
  });
  const FaultInjector faults(schedule);
  EXPECT_DOUBLE_EQ(faults.link_factor(0.5), 1.0);
  EXPECT_DOUBLE_EQ(faults.link_factor(1.5), 0.25);
  EXPECT_DOUBLE_EQ(faults.link_factor(3.0), 1.0);  // half-open interval
  EXPECT_FALSE(faults.cloud_unavailable(1.9));
  EXPECT_TRUE(faults.cloud_unavailable(2.0));
  EXPECT_DOUBLE_EQ(faults.cloud_recovery_time(3.0), 4.0);
  EXPECT_DOUBLE_EQ(faults.cloud_recovery_time(5.0), 5.0);
  EXPECT_DOUBLE_EQ(faults.rtt_extra_ms(11.0), 150.0);
  EXPECT_DOUBLE_EQ(faults.rtt_extra_ms(12.5), 0.0);
  EXPECT_DOUBLE_EQ(faults.edge_slowdown(20.5), 2.5);
  EXPECT_DOUBLE_EQ(faults.edge_slowdown(0.0), 1.0);
  EXPECT_DOUBLE_EQ(faults.next_link_boundary(0.0), 1.0);
  EXPECT_DOUBLE_EQ(faults.next_link_boundary(1.0), 3.0);
  EXPECT_TRUE(std::isinf(faults.next_link_boundary(3.0)));
  // Union of [1,4), [10,12), [20,21) clipped to [0,15): 3 + 2 = 5 s.
  EXPECT_DOUBLE_EQ(faults.degraded_time(15.0), 5.0);
  EXPECT_DOUBLE_EQ(faults.degraded_time(50.0), 6.0);
  // Default-constructed injector is always healthy.
  const FaultInjector healthy;
  EXPECT_DOUBLE_EQ(healthy.link_factor(7.0), 1.0);
  EXPECT_FALSE(healthy.cloud_unavailable(7.0));
  EXPECT_TRUE(std::isinf(healthy.next_link_boundary(0.0)));
  EXPECT_DOUBLE_EQ(healthy.degraded_time(100.0), 0.0);
}

// ---- step tables vs brute force ---------------------------------------------

/// Brute-force fault queries: every answer recomputed from the whole episode
/// list, straight from the fault model's definitions.
struct ScanOracle {
  const std::vector<FaultEpisode>& episodes;

  /// Deepest-wins fold over the episodes of `fault` covering t — only those
  /// on `hop` when one is given (the hop-scoped classes).
  template <class Deeper>
  double fold(FaultClass fault, std::optional<std::size_t> hop, double t, double healthy,
              Deeper deeper) const {
    double value = healthy;
    for (const FaultEpisode& e : episodes) {
      if (e.fault == fault && (!hop || e.hop == *hop) && e.covers(t)) {
        value = deeper(value, e.magnitude);
      }
    }
    return value;
  }
  static double lower(double v, double m) { return std::min(v, m); }
  static double higher(double v, double m) { return std::max(v, m); }
  static double cut(double v, double m) { return std::min(v, 1.0 - m); }
  static double down(double, double) { return 1.0; }

  double link_factor(double t, std::size_t hop) const {
    return fold(FaultClass::kLinkOutage, hop, t, 1.0, lower);
  }
  bool cloud_unavailable(double t) const {
    return fold(FaultClass::kCloudOutage, std::nullopt, t, 0.0, down) != 0.0;
  }
  double rtt_extra_ms(double t, std::size_t hop) const {
    return fold(FaultClass::kRttSpike, hop, t, 0.0, higher);
  }
  double edge_slowdown(double t) const {
    return fold(FaultClass::kEdgeSlowdown, std::nullopt, t, 1.0, higher);
  }
  double machine_failure_fraction(double t) const {
    return fold(FaultClass::kMachineFailure, std::nullopt, t, 0.0, higher);
  }
  double brownout_factor(double t) const {
    return fold(FaultClass::kRegionalBrownout, std::nullopt, t, 1.0, cut);
  }
  double backhaul_factor(double t, std::size_t hop) const {
    return fold(FaultClass::kBackhaulBrownout, hop, t, 1.0, cut);
  }
  bool backhaul_unavailable(double t, std::size_t hop) const {
    return fold(FaultClass::kBackhaulOutage, hop, t, 0.0, down) != 0.0;
  }
  double fog_failure_fraction(double t) const {
    return fold(FaultClass::kFogSiteFailure, std::nullopt, t, 0.0, higher);
  }
  /// Smallest episode start or end of the hop's link outages past t.
  double next_link_boundary(double t, std::size_t hop) const {
    double next = std::numeric_limits<double>::infinity();
    for (const FaultEpisode& e : episodes) {
      if (e.fault != FaultClass::kLinkOutage || e.hop != hop) continue;
      if (e.start_s > t) next = std::min(next, e.start_s);
      if (e.end_s > t) next = std::min(next, e.end_s);
    }
    return next;
  }
  /// Fixpoint of "jump to the end of any cloud outage covering t".
  double cloud_recovery_time(double t) const {
    for (bool moved = true; moved;) {
      moved = false;
      for (const FaultEpisode& e : episodes) {
        if (e.fault == FaultClass::kCloudOutage && e.covers(t)) {
          t = e.end_s;
          moved = true;
        }
      }
    }
    return t;
  }
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Seeded schedule of all nine classes: episodes on a 0.25 s grid (so many
/// touch end-to-start, nest, or share edges) mixed with off-grid ones, on
/// hops 0-3 — hop-free classes too, which must ignore the hop — plus
/// scripted episodes on hop SIZE_MAX.
FaultSchedule random_schedule(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> grid(0, 160);
  std::uniform_int_distribution<int> span(1, 24);
  std::uniform_int_distribution<std::size_t> any_hop(0, 3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<FaultEpisode> episodes;
  for (std::size_t c = 0; c < kNumFaultClasses; ++c) {
    const auto fault = static_cast<FaultClass>(c);
    const bool backhaul =
        fault == FaultClass::kBackhaulBrownout || fault == FaultClass::kBackhaulOutage;
    for (int k = 0; k < 40; ++k) {
      FaultEpisode e;
      e.fault = fault;
      if (k % 4 == 3) {
        e.start_s = 40.0 * unit(rng);
        e.end_s = e.start_s + 6.0 * unit(rng) + 1e-3;
      } else {
        e.start_s = 0.25 * grid(rng);
        e.end_s = e.start_s + 0.25 * span(rng);
      }
      e.hop = backhaul ? 1 + any_hop(rng) % 3 : any_hop(rng);
      // Magnitudes from a small set so equal depths overlap too.
      const double level = 0.125 * static_cast<double>(1 + k % 7);  // (0, 1)
      switch (fault) {
        case FaultClass::kRttSpike: e.magnitude = 100.0 * level; break;
        case FaultClass::kEdgeSlowdown: e.magnitude = 1.0 + 4.0 * level; break;
        case FaultClass::kMachineFailure:
        case FaultClass::kRegionalBrownout:
        case FaultClass::kLinkOutage:
        case FaultClass::kFogSiteFailure: e.magnitude = k % 9 == 0 ? 1.0 : level; break;
        default: e.magnitude = level; break;
      }
      episodes.push_back(e);
    }
  }
  constexpr std::size_t kHugeHop = std::numeric_limits<std::size_t>::max();
  episodes.push_back({FaultClass::kLinkOutage, 3.0, 9.0, 0.4, kHugeHop});
  episodes.push_back({FaultClass::kLinkOutage, 9.0, 12.5, 0.7, kHugeHop});
  episodes.push_back({FaultClass::kRttSpike, 2.0, 30.0, 75.0, kHugeHop});
  episodes.push_back({FaultClass::kBackhaulOutage, 5.0, 6.0, 0.0, kHugeHop});
  episodes.push_back({FaultClass::kCloudOutage, 1.0, 2.0, 0.0, kHugeHop});
  return FaultSchedule(std::move(episodes));
}

TEST(FaultInjector, StepTablesMatchBruteForceScan) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kHugeHop = std::numeric_limits<std::size_t>::max();
  const std::size_t hops[] = {0, 1, 2, 3, 4, kHugeHop - 1, kHugeHop};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const FaultSchedule schedule = random_schedule(seed);
    const FaultInjector injector(schedule);
    const ScanOracle oracle{schedule.episodes()};

    // Every edge, both float neighbours of it, before the first episode and
    // past the horizon.
    std::vector<double> times = {-1.0, 0.0, 1e6, kInf, -kInf};
    for (const FaultEpisode& e : schedule.episodes()) {
      for (double edge : {e.start_s, e.end_s}) {
        times.push_back(edge);
        times.push_back(std::nextafter(edge, -kInf));
        times.push_back(std::nextafter(edge, kInf));
      }
    }
    for (double t : times) {
      EXPECT_EQ(injector.cloud_unavailable(t), oracle.cloud_unavailable(t)) << t;
      EXPECT_EQ(bits(injector.cloud_recovery_time(t)), bits(oracle.cloud_recovery_time(t))) << t;
      EXPECT_EQ(bits(injector.edge_slowdown(t)), bits(oracle.edge_slowdown(t))) << t;
      EXPECT_EQ(bits(injector.machine_failure_fraction(t)),
                bits(oracle.machine_failure_fraction(t)))
          << t;
      EXPECT_EQ(bits(injector.brownout_factor(t)), bits(oracle.brownout_factor(t))) << t;
      EXPECT_EQ(bits(injector.fog_failure_fraction(t)), bits(oracle.fog_failure_fraction(t)))
          << t;
      for (std::size_t hop : hops) {
        EXPECT_EQ(bits(injector.link_factor(t, hop)), bits(oracle.link_factor(t, hop)))
            << t << " hop " << hop;
        EXPECT_EQ(bits(injector.rtt_extra_ms(t, hop)), bits(oracle.rtt_extra_ms(t, hop)))
            << t << " hop " << hop;
        EXPECT_EQ(bits(injector.backhaul_factor(t, hop)), bits(oracle.backhaul_factor(t, hop)))
            << t << " hop " << hop;
        EXPECT_EQ(injector.backhaul_unavailable(t, hop), oracle.backhaul_unavailable(t, hop))
            << t << " hop " << hop;
        EXPECT_EQ(bits(injector.next_link_boundary(t, hop)),
                  bits(oracle.next_link_boundary(t, hop)))
            << t << " hop " << hop;
      }
      if (::testing::Test::HasFailure()) return;  // one failing instant is enough
    }
  }
  // The hop-SIZE_MAX episodes answer on their own hop only.
  const FaultInjector injector(random_schedule(1));
  EXPECT_EQ(injector.link_factor(4.0, kHugeHop), 0.4);
  EXPECT_EQ(injector.next_link_boundary(4.0, kHugeHop), 9.0);
  EXPECT_EQ(injector.next_link_boundary(9.0, kHugeHop), 12.5);
  EXPECT_EQ(injector.next_link_boundary(12.5, kHugeHop), kInf);
  EXPECT_TRUE(injector.backhaul_unavailable(5.5, kHugeHop));
}

TEST(Link, FadeIsIntegratedAcrossEpisodeBoundaries) {
  // Flat 8 Mbps with a half-depth fade over [1 s, 2 s): a 12e6-bit payload
  // carries 8e6 bits in [0,1), 4e6 bits in [1,2) -> done exactly at 2 s.
  const FaultSchedule schedule({{FaultClass::kLinkOutage, 1.0, 2.0, 0.5}});
  const FaultInjector faults(schedule);
  const comm::RadioPowerModel radio = comm::power_model_for(comm::WirelessTechnology::kWifi);
  TimeVaryingLink link(flat_trace(8.0), radio, &faults);
  EXPECT_DOUBLE_EQ(link.throughput_at(0.5), 8.0);
  EXPECT_DOUBLE_EQ(link.throughput_at(1.5), 4.0);
  const TransferResult r = link.transfer(0.0, 1500000);
  EXPECT_NEAR(r.end_s, 2.0, 1e-9);
  const double expected_energy =
      radio.transmit_power_mw(8.0) * 1.0 + radio.transmit_power_mw(4.0) * 1.0;
  EXPECT_NEAR(r.energy_mj, expected_energy, 1e-6);
}

TEST_F(SystemTest, CloudOutageDegradesGracefullyUnderDynamicDispatch) {
  // The acceptance scenario: a scripted 20 s cloud blackout in a 40 s run.
  // At 30 Mbps the latency-best option transmits, so the outage actually
  // threatens the request path.
  SimConfig config;
  config.duration_s = 40.0;
  config.arrival_rate_hz = 5.0;
  config.metric = runtime::OptimizeFor::kLatency;
  config.policy = DispatchPolicy::kDynamic;
  SimConfig faulty = config;
  faulty.faults.scripted.push_back({FaultClass::kCloudOutage, 5.0, 25.0, 0.0});

  EdgeCloudSystem clean_system(evaluation_.options, wifi_, flat_trace(30.0), config);
  EdgeCloudSystem faulty_system(evaluation_.options, wifi_, flat_trace(30.0), faulty);
  const SimStats clean = clean_system.run();
  const SimStats degraded = faulty_system.run();

  // Dynamic dispatch routes around the blackout: nothing is dropped, no
  // request ever waits out a timeout, but the forced All-Edge window costs
  // real latency.
  EXPECT_DOUBLE_EQ(degraded.availability, 1.0);
  EXPECT_EQ(degraded.dropped, 0u);
  EXPECT_EQ(degraded.timeouts, 0u);
  EXPECT_GT(degraded.mean_latency_ms, 1.05 * clean.mean_latency_ms);
  EXPECT_GT(degraded.degraded_time_s, 19.0);
  EXPECT_EQ(degraded.cloud_outage_episodes, 1u);
  bool fell_back_to_edge = false;
  for (const RequestRecord& r : faulty_system.records()) {
    if (r.arrival_s >= 5.0 && r.arrival_s < 25.0) {
      fell_back_to_edge |= evaluation_.options[r.option].tx_bytes == 0;
      EXPECT_EQ(r.timeouts, 0u);
    }
  }
  EXPECT_TRUE(fell_back_to_edge);

  // A fixed pin on the latency-best (transmitting) option must ride the
  // blackout out via timeout -> retry -> edge fallback. Same seed, same
  // arrivals; only dispatch differs.
  SimConfig pinned = faulty;
  pinned.policy = DispatchPolicy::kFixed;
  pinned.fixed_option = evaluator_.evaluate(alexnet_, 30.0).best_latency_option;
  ASSERT_GT(evaluation_.options[pinned.fixed_option].tx_bytes, 0u);
  EdgeCloudSystem pinned_system(evaluation_.options, wifi_, flat_trace(30.0), pinned);
  const SimStats suffered = pinned_system.run();
  EXPECT_GT(suffered.timeouts, 0u);
  EXPECT_GT(suffered.retries, 0u);
  EXPECT_GT(suffered.fallback_executions, 0u);
  EXPECT_DOUBLE_EQ(suffered.availability, 1.0);  // fallback saves every request
  EXPECT_GT(suffered.mean_latency_ms, degraded.mean_latency_ms);
}

TEST_F(SystemTest, OutageWithoutEdgeFallbackDropsRequests) {
  // Only the All-Cloud option exists: during the blackout there is nothing
  // to fall back to, so retries exhaust and requests drop.
  SimConfig config;
  config.duration_s = 30.0;
  config.arrival_rate_hz = 5.0;
  config.policy = DispatchPolicy::kFixed;
  config.fixed_option = 0;
  config.max_retries = 1;
  config.faults.scripted.push_back({FaultClass::kCloudOutage, 5.0, 28.0, 0.0});
  std::vector<core::DeploymentOption> only_cloud = {evaluation_.all_cloud()};
  EdgeCloudSystem system(only_cloud, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_LT(stats.availability, 1.0);
  EXPECT_GT(stats.availability, 0.0);  // pre/post-blackout traffic succeeds
  EXPECT_EQ(stats.completed + stats.dropped, system.records().size());
}

TEST_F(SystemTest, RetriesRecoverAfterShortOutage) {
  // A 1 s blackout with generous retries: every request that times out
  // eventually lands once the cloud returns — nothing dropped.
  SimConfig config;
  config.duration_s = 3.0;
  config.arrival_rate_hz = 10.0;
  config.policy = DispatchPolicy::kFixed;
  config.fixed_option = 0;
  config.timeout_ms = 200.0;
  config.retry_backoff_ms = 100.0;
  config.max_retries = 8;
  config.faults.scripted.push_back({FaultClass::kCloudOutage, 0.0, 1.0, 0.0});
  std::vector<core::DeploymentOption> only_cloud = {evaluation_.all_cloud()};
  EdgeCloudSystem system(only_cloud, wifi_, flat_trace(10.0), config);
  const SimStats stats = system.run();
  EXPECT_GT(stats.timeouts, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.fallback_executions, 0u);
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);
}

TEST_F(SystemTest, RetryJitterDesynchronizesDevicesSharingAnOutage) {
  // Two devices ride out the same scripted blackout. With jitter enabled
  // their backoff draws come from per-device substreams, so their retry
  // timelines diverge — the thundering herd breaks up. With jitter off the
  // device identity is inert and the runs stay bitwise identical.
  const auto run_device = [&](std::uint64_t device_id, double jitter) {
    SimConfig config;
    config.duration_s = 5.0;
    config.arrival_rate_hz = 10.0;
    config.policy = DispatchPolicy::kFixed;
    config.fixed_option = 0;
    config.timeout_ms = 200.0;
    config.retry_backoff_ms = 100.0;
    config.max_retries = 8;
    config.retry_jitter = jitter;
    config.device_id = device_id;
    config.faults.scripted.push_back({FaultClass::kCloudOutage, 0.0, 1.5, 0.0});
    std::vector<core::DeploymentOption> only_cloud = {evaluation_.all_cloud()};
    EdgeCloudSystem system(only_cloud, wifi_, flat_trace(10.0), config);
    return system.run();
  };

  const SimStats a = run_device(1, 0.5);
  const SimStats b = run_device(2, 0.5);
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(b.retries, 0u);
  // Different substreams -> different post-outage landing times.
  EXPECT_NE(a.mean_latency_ms, b.mean_latency_ms);

  const SimStats c = run_device(1, 0.0);
  const SimStats d = run_device(2, 0.0);
  EXPECT_EQ(c.completed, d.completed);
  EXPECT_EQ(c.retries, d.retries);
  EXPECT_EQ(c.mean_latency_ms, d.mean_latency_ms);  // bitwise
  EXPECT_EQ(c.total_energy_mj, d.total_energy_mj);  // bitwise
}

TEST_F(SystemTest, FaultyStatsAreBitIdenticalAcrossThreadCounts) {
  const auto run_with_threads = [&](std::size_t threads) {
    par::set_max_threads(threads);
    SimConfig config;
    config.duration_s = 60.0;
    config.arrival_rate_hz = 8.0;
    config.seed = 99;
    config.metric = runtime::OptimizeFor::kLatency;
    config.policy = DispatchPolicy::kDynamic;
    config.faults.seed = 99;
    config.faults.link_outage_rate_hz = 1.0 / 30.0;
    config.faults.cloud_outage_rate_hz = 1.0 / 45.0;
    config.faults.cloud_outage_mean_s = 5.0;
    config.faults.rtt_spike_rate_hz = 1.0 / 40.0;
    config.faults.edge_slowdown_rate_hz = 1.0 / 50.0;
    EdgeCloudSystem system(evaluation_.options, wifi_, flat_trace(30.0), config);
    return system.run();
  };
  const SimStats one = run_with_threads(1);
  const SimStats four = run_with_threads(4);
  par::set_max_threads(0);  // restore hardware default for other tests
  EXPECT_EQ(one.completed, four.completed);
  EXPECT_EQ(one.timeouts, four.timeouts);
  EXPECT_EQ(one.retries, four.retries);
  EXPECT_EQ(one.fallback_executions, four.fallback_executions);
  EXPECT_EQ(one.dropped, four.dropped);
  EXPECT_EQ(one.mean_latency_ms, four.mean_latency_ms);      // bitwise
  EXPECT_EQ(one.total_energy_mj, four.total_energy_mj);      // bitwise
  EXPECT_EQ(one.p99_latency_ms, four.p99_latency_ms);        // bitwise
  EXPECT_EQ(one.degraded_time_s, four.degraded_time_s);      // bitwise
}

// ---- frozen end-to-end pin --------------------------------------------------
//
// Multi-hour runs under every fault class the event loop consults, a finite
// cloud, retry jitter and a circuit breaker, over a trace whose rate changes
// every 7 s (so transfers integrate across trace and fade edges). The
// expected SimStats were captured from the linear-scan FaultInjector; any
// change to fault queries, link integration or the event loop that moves a
// single bit shows up here.

SimConfig frozen_pin_config(DispatchPolicy policy, std::size_t fixed_option) {
  SimConfig config;
  config.duration_s = 3 * 3600.0;
  config.arrival_rate_hz = 2.0;
  config.seed = 7;
  config.policy = policy;
  config.fixed_option = fixed_option;
  config.deadline_ms = 150.0;
  config.timeout_ms = 500.0;
  config.max_retries = 2;
  config.retry_jitter = 0.5;
  config.breaker_failures = 3;
  config.faults.seed = 7;
  config.faults.link_outage_rate_hz = 1.0 / 40.0;
  config.faults.link_outage_mean_s = 5.0;
  config.faults.cloud_outage_rate_hz = 1.0 / 60.0;
  config.faults.cloud_outage_mean_s = 8.0;
  config.faults.rtt_spike_rate_hz = 1.0 / 50.0;
  config.faults.edge_slowdown_rate_hz = 1.0 / 80.0;
  config.faults.machine_failure_rate_hz = 1.0 / 90.0;
  config.faults.brownout_rate_hz = 1.0 / 70.0;
  cloud::CloudConfig cloud;
  cloud.machines = 2;
  cloud.machine.capacity_ms_per_s = 100.0;
  cloud.machine.queue_slots = 2;
  config.cloud = cloud;
  return config;
}

comm::ThroughputTrace frozen_pin_trace() {
  comm::ThroughputTrace trace;
  trace.samples_mbps = {30.0, 8.0, 60.0, 3.0, 20.0};
  trace.interval_s = 7.0;
  return trace;
}

/// Every SimStats field, compared bit for bit.
void expect_same_stats(const SimStats& got, const SimStats& want, const char* what) {
  EXPECT_EQ(got.completed, want.completed) << what;
  EXPECT_EQ(got.mean_latency_ms, want.mean_latency_ms) << what;
  EXPECT_EQ(got.p50_latency_ms, want.p50_latency_ms) << what;
  EXPECT_EQ(got.p95_latency_ms, want.p95_latency_ms) << what;
  EXPECT_EQ(got.p99_latency_ms, want.p99_latency_ms) << what;
  EXPECT_EQ(got.max_latency_ms, want.max_latency_ms) << what;
  EXPECT_EQ(got.total_energy_mj, want.total_energy_mj) << what;
  EXPECT_EQ(got.energy_per_inference_mj, want.energy_per_inference_mj) << what;
  EXPECT_EQ(got.edge_utilization, want.edge_utilization) << what;
  EXPECT_EQ(got.link_utilization, want.link_utilization) << what;
  EXPECT_EQ(got.makespan_s, want.makespan_s) << what;
  EXPECT_EQ(got.throughput_hz, want.throughput_hz) << what;
  EXPECT_EQ(got.deadline_violations, want.deadline_violations) << what;
  EXPECT_EQ(got.violation_rate, want.violation_rate) << what;
  EXPECT_EQ(got.timeouts, want.timeouts) << what;
  EXPECT_EQ(got.retries, want.retries) << what;
  EXPECT_EQ(got.fallback_executions, want.fallback_executions) << what;
  EXPECT_EQ(got.dropped, want.dropped) << what;
  EXPECT_EQ(got.availability, want.availability) << what;
  EXPECT_EQ(got.goodput_hz, want.goodput_hz) << what;
  EXPECT_EQ(got.degraded_time_s, want.degraded_time_s) << what;
  EXPECT_EQ(got.degraded_fraction, want.degraded_fraction) << what;
  EXPECT_EQ(got.link_outage_episodes, want.link_outage_episodes) << what;
  EXPECT_EQ(got.cloud_outage_episodes, want.cloud_outage_episodes) << what;
  EXPECT_EQ(got.rtt_spike_episodes, want.rtt_spike_episodes) << what;
  EXPECT_EQ(got.edge_slowdown_episodes, want.edge_slowdown_episodes) << what;
  EXPECT_EQ(got.machine_failure_episodes, want.machine_failure_episodes) << what;
  EXPECT_EQ(got.brownout_episodes, want.brownout_episodes) << what;
  EXPECT_EQ(got.shed, want.shed) << what;
  EXPECT_EQ(got.breaker_trips, want.breaker_trips) << what;
  EXPECT_EQ(got.breaker_open_time_s, want.breaker_open_time_s) << what;
  EXPECT_EQ(got.datacenter_energy_j, want.datacenter_energy_j) << what;
}

TEST_F(SystemTest, FrozenMultiHourFaultyRunsAreBitIdentical) {
  const std::size_t pinned = evaluator_.evaluate(alexnet_, 30.0).best_latency_option;
  ASSERT_GT(evaluation_.options[pinned].tx_bytes, 0u);
  EdgeCloudSystem dynamic(evaluation_.options, wifi_, frozen_pin_trace(),
                          frozen_pin_config(DispatchPolicy::kDynamic, 0));
  EdgeCloudSystem fixed(evaluation_.options, wifi_, frozen_pin_trace(),
                        frozen_pin_config(DispatchPolicy::kFixed, pinned));
  expect_same_stats(dynamic.run(),
                    SimStats{
      .completed = 21642,
      .mean_latency_ms = 61.289466908082289,
      .p50_latency_ms = 31.659835147365811,
      .p95_latency_ms = 245.07040000025881,
      .p99_latency_ms = 271.05915881475084,
      .max_latency_ms = 2127.5541687271016,
      .total_energy_mj = 6416858.2876187032,
      .energy_per_inference_mj = 296.50024432209148,
      .edge_utilization = 0.063889893175573129,
      .link_utilization = 0.0098196108529919526,
      .makespan_s = 10799.022100659664,
      .throughput_hz = 2.0040703499141821,
      .deadline_violations = 1458,
      .violation_rate = 0.067369004713057942,
      .timeouts = 16,
      .retries = 12,
      .fallback_executions = 11,
      .dropped = 0,
      .availability = 1,
      .goodput_hz = 1.8690581250655141,
      .degraded_time_s = 8708.6961157081296,
      .degraded_fraction = 0.80643377099637148,
      .link_outage_episodes = 469,
      .cloud_outage_episodes = 308,
      .rtt_spike_episodes = 352,
      .edge_slowdown_episodes = 209,
      .machine_failure_episodes = 143,
      .brownout_episodes = 187,
      .shed = 0,
      .breaker_trips = 4,
      .breaker_open_time_s = 46.695669487819487,
      .datacenter_energy_j = 2074779.1991253372,
                    },
                    "dynamic+fallback");
  expect_same_stats(fixed.run(),
                    SimStats{
      .completed = 21642,
      .mean_latency_ms = 285.13593975988562,
      .p50_latency_ms = 98.092758813436376,
      .p95_latency_ms = 1296.4658911311005,
      .p99_latency_ms = 3592.7415877990443,
      .max_latency_ms = 6746.5791764186633,
      .total_energy_mj = 6438422.6855427409,
      .energy_per_inference_mj = 297.49665860561595,
      .edge_utilization = 0.054023319355628881,
      .link_utilization = 0.10838414461559116,
      .makespan_s = 10799.023174218477,
      .throughput_hz = 2.0040701506843677,
      .deadline_violations = 7679,
      .violation_rate = 0.35481933277885591,
      .timeouts = 653,
      .retries = 558,
      .fallback_executions = 3112,
      .dropped = 0,
      .availability = 1,
      .goodput_hz = 1.2929873169765189,
      .degraded_time_s = 8708.6971892669426,
      .degraded_fraction = 0.80643379023929074,
      .link_outage_episodes = 469,
      .cloud_outage_episodes = 308,
      .rtt_spike_episodes = 352,
      .edge_slowdown_episodes = 209,
      .machine_failure_episodes = 143,
      .brownout_episodes = 187,
      .shed = 28,
      .breaker_trips = 123,
      .breaker_open_time_s = 1279.1137845669818,
      .datacenter_energy_j = 2114126.903101509,
                    },
                    "fixed");

  // Three tiers: the hop-1 backhaul carries its own fades and RTT spikes
  // plus the regional backhaul brownout/outage classes. The dynamic policy
  // walks the tier ladder; the fixed pin ships every payload over hop 1.
  const perf::DeviceSimulator fog_sim(perf::datacenter_gpu());
  const perf::SimulatorOracle fog(fog_sim);
  core::EdgeFogCloudConfig topo;
  topo.radio = wifi_;
  topo.backhaul = comm::CommModel(comm::WirelessTechnology::kLte, 25.0);
  const core::DeploymentEvaluator evaluator(core::edge_fog_cloud(oracle_, fog, nullptr, topo));
  const core::DeploymentPlan plan = evaluator.compile(alexnet_);
  SimConfig config = frozen_pin_config(DispatchPolicy::kDynamic, 0);
  config.backhaul_tu_mbps = {40.0};
  HopFaultConfig hop1;
  hop1.outage_rate_hz = 1.0 / 45.0;
  hop1.outage_mean_s = 6.0;
  hop1.rtt_spike_rate_hz = 1.0 / 55.0;
  config.faults.extra_hops = {hop1};
  config.faults.backhaul_brownout_rate_hz = 1.0 / 100.0;
  config.faults.backhaul_outage_rate_hz = 1.0 / 150.0;
  config.faults.fog_failure_rate_hz = 1.0 / 200.0;
  EdgeCloudSystem three_tier(plan, frozen_pin_trace(), config);
  expect_same_stats(three_tier.run(),
                    SimStats{
      .completed = 21642,
      .mean_latency_ms = 47.432763654977883,
      .p50_latency_ms = 31.65983514668369,
      .p95_latency_ms = 116.00580388408196,
      .p99_latency_ms = 226.61659863933892,
      .max_latency_ms = 479.84933027601073,
      .total_energy_mj = 6564079.8644074872,
      .energy_per_inference_mj = 303.30283081080711,
      .edge_utilization = 0.068611560695688703,
      .link_utilization = 0.0073739449861526347,
      .makespan_s = 10798.983646858302,
      .throughput_hz = 2.0040774861527093,
      .deadline_violations = 925,
      .violation_rate = 0.0427409666389428,
      .timeouts = 0,
      .retries = 0,
      .fallback_executions = 0,
      .dropped = 0,
      .availability = 1,
      .goodput_hz = 1.9184212771751998,
      .degraded_time_s = 10295.114696714021,
      .degraded_fraction = 0.95334107665855494,
      .link_outage_episodes = 864,
      .cloud_outage_episodes = 308,
      .rtt_spike_episodes = 687,
      .edge_slowdown_episodes = 209,
      .machine_failure_episodes = 143,
      .brownout_episodes = 187,
      .shed = 0,
      .breaker_trips = 0,
      .breaker_open_time_s = 0,
      .datacenter_energy_j = 2051806.8929030774,
                    },
                    "3-tier dynamic");

  std::size_t via_backhaul = plan.num_options();
  for (std::size_t i = 0; i < plan.num_options() && via_backhaul == plan.num_options(); ++i) {
    const std::vector<std::uint64_t>& hops = plan.options()[i].hop_tx_bytes;
    if (hops.size() > 1 && hops[1] > 0) via_backhaul = i;
  }
  ASSERT_LT(via_backhaul, plan.num_options());
  config.policy = DispatchPolicy::kFixed;
  config.fixed_option = via_backhaul;
  EdgeCloudSystem three_tier_fixed(plan, frozen_pin_trace(), config);
  expect_same_stats(three_tier_fixed.run(),
                    SimStats{
      .completed = 21642,
      .mean_latency_ms = 822.47821458399994,
      .p50_latency_ms = 345.33440000006976,
      .p95_latency_ms = 3206.5252015242104,
      .p99_latency_ms = 7131.753279068801,
      .max_latency_ms = 12645.853764314779,
      .total_energy_mj = 7877460.4628903512,
      .energy_per_inference_mj = 363.98948631782417,
      .edge_utilization = 0.011996584795709215,
      .link_utilization = 0.28879361430204603,
      .makespan_s = 10799.077206259664,
      .throughput_hz = 2.004060123531227,
      .deadline_violations = 17051,
      .violation_rate = 0.78786618611958226,
      .timeouts = 623,
      .retries = 557,
      .fallback_executions = 3164,
      .dropped = 0,
      .availability = 1,
      .goodput_hz = 0.42512891725034019,
      .degraded_time_s = 10295.208256115384,
      .degraded_fraction = 0.95334148089503301,
      .link_outage_episodes = 864,
      .cloud_outage_episodes = 308,
      .rtt_spike_episodes = 687,
      .edge_slowdown_episodes = 209,
      .machine_failure_episodes = 143,
      .brownout_episodes = 187,
      .shed = 52,
      .breaker_trips = 118,
      .breaker_open_time_s = 1290.4116057550154,
      .datacenter_energy_j = 2113794.6691893344,
                    },
                    "3-tier fixed via backhaul");
}

TEST_F(SystemTest, Deterministic) {
  SimConfig config;
  config.duration_s = 50.0;
  config.arrival_rate_hz = 3.0;
  config.seed = 17;
  EdgeCloudSystem a(evaluation_.options, wifi_, flat_trace(10.0), config);
  EdgeCloudSystem b(evaluation_.options, wifi_, flat_trace(10.0), config);
  const SimStats sa = a.run();
  const SimStats sb = b.run();
  EXPECT_EQ(sa.completed, sb.completed);
  EXPECT_DOUBLE_EQ(sa.total_energy_mj, sb.total_energy_mj);
  EXPECT_DOUBLE_EQ(sa.p99_latency_ms, sb.p99_latency_ms);
}

}  // namespace
}  // namespace lens::sim
