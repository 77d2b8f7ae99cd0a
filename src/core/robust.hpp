#pragma once
// Distribution-aware deployment evaluation (an extension the paper's §IV-E
// points toward): instead of scoring candidates at a single expected t_u,
// score them against a *distribution* of upload throughputs.
//
// Two summaries are exposed per architecture:
//  - expected cost of the best FIXED option (pick one option, pay its mean
//    cost over the distribution), and
//  - expected cost under ORACLE SWITCHING (per throughput sample, pay the
//    cheapest option) — the value an ideal runtime switcher would realize.
// The gap between them is exactly the runtime-adaptation headroom of the
// architecture, a quantity a designer can trade off at search time.
//
// Fault-aware pricing extends the same idea from throughput uncertainty to
// failure modes: evaluate_under_faults() scores a plan over a discrete set
// of degraded operating scenarios (deep fades, cloud outages, RTT spikes,
// edge stragglers), yielding an availability figure — the probability mass
// of scenarios the plan can serve at all — and the expected degradation a
// designer accepts by depending on the cloud.

#include <cstddef>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/plan.hpp"

namespace lens::core {

/// Discretized throughput distribution: support points and probabilities.
struct ThroughputDistribution {
  std::vector<double> tu_mbps;
  std::vector<double> weight;

  /// Discretize a log-normal throughput law (median `median_mbps`, log-std
  /// `sigma`) into `points` equal-probability quantile atoms.
  static ThroughputDistribution log_normal(double median_mbps, double sigma,
                                           std::size_t points = 9);

  /// Empirical distribution from a measured/generated trace.
  static ThroughputDistribution from_samples(const std::vector<double>& samples);

  double mean() const;
  void validate() const;  ///< throws std::invalid_argument on malformed data
};

/// Per-metric robust summary.
struct RobustMetric {
  double expected_fixed_best = 0.0;   ///< best single option's mean cost
  std::size_t fixed_best_option = 0;  ///< index into options
  double expected_oracle = 0.0;       ///< per-sample cheapest option
};

/// Robust evaluation of one architecture.
struct RobustEvaluation {
  DeploymentEvaluation base;  ///< options evaluated at the distribution mean
  RobustMetric latency;
  RobustMetric energy;
};

/// One hypothesized degraded operating condition to price a plan under.
struct FaultScenario {
  std::string name;
  double probability = 0.0;     ///< scenario mass; all scenarios sum to 1
  double tu_mbps = 0.0;         ///< link throughput while the fault holds
  bool cloud_available = true;  ///< false: only edge-only options servable
  double edge_slowdown = 1.0;   ///< >= 1, stretches edge compute latency
  double rtt_extra_ms = 0.0;    ///< added round trip (congestion/reroute)
};

/// How one plan fares in one scenario.
struct FaultScenarioOutcome {
  FaultScenario scenario;
  bool servable = false;     ///< some option can run under the scenario
  std::size_t best_option = 0;  ///< latency-minimal servable option
  double latency_ms = 0.0;   ///< of best_option (0 when unservable)
  double energy_mj = 0.0;    ///< of best_option (0 when unservable)
};

/// Plan-level fault pricing: expected behavior across a scenario set.
struct FaultEvaluation {
  std::vector<FaultScenarioOutcome> outcomes;
  /// Probability mass of scenarios the plan can serve at all. 1.0 whenever
  /// the plan has an edge-only option (it survives any cloud fault).
  double availability = 0.0;
  /// Conditional expectations over the servable scenarios.
  double expected_latency_ms = 0.0;
  double expected_energy_mj = 0.0;
  /// expected_latency_ms over the nominal (fault-free) best latency at the
  /// evaluator's distribution mean; >= 1 means faults cost latency.
  double degradation_ratio = 1.0;
};

/// A standard five-scenario fault mix around a nominal throughput:
/// nominal conditions plus deep fade, cloud outage, RTT spike, and edge
/// straggler. Probabilities sum to exactly 1.
std::vector<FaultScenario> default_fault_scenarios(double nominal_tu_mbps);

/// Evaluates architectures against a throughput distribution using the
/// analytic cost curves of each deployment option.
class RobustDeploymentEvaluator {
 public:
  RobustDeploymentEvaluator(const DeploymentEvaluator& evaluator,
                            ThroughputDistribution distribution);

  /// Compiles `arch` once and scores the plan across the distribution.
  RobustEvaluation evaluate(const dnn::Architecture& arch) const;

  /// Scores an already-compiled plan — no predictor work at all. Use this
  /// to evaluate the same architecture under several distributions.
  RobustEvaluation evaluate(const DeploymentPlan& plan) const;

  /// Prices `plan` over a discrete fault-scenario mix (probabilities must
  /// sum to 1; throws std::invalid_argument on malformed scenarios). Per
  /// scenario the latency-minimal option still servable is chosen — cloud
  /// unavailability restricts the choice to edge-only options — and the
  /// result aggregates availability, conditional expected latency/energy,
  /// and the degradation ratio against the fault-free best latency at the
  /// distribution mean.
  FaultEvaluation evaluate_under_faults(const DeploymentPlan& plan,
                                        const std::vector<FaultScenario>& scenarios) const;

  const ThroughputDistribution& distribution() const { return distribution_; }

 private:
  const DeploymentEvaluator& evaluator_;
  ThroughputDistribution distribution_;
};

}  // namespace lens::core
