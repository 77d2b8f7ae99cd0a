#include "core/analysis.hpp"

#include <algorithm>
#include <stdexcept>

namespace lens::core {

double objective_value(const EvaluatedCandidate& candidate, Objective objective,
                       DeploymentPolicy policy) {
  if (objective == kErrorObjective) return candidate.error_percent;
  switch (policy) {
    case DeploymentPolicy::kAsSearched:
      return objective == kLatencyObjective ? candidate.latency_ms : candidate.energy_mj;
    case DeploymentPolicy::kAllEdge: {
      const DeploymentOption& edge = candidate.deployment.all_edge();
      return objective == kLatencyObjective ? edge.latency_ms : edge.energy_mj;
    }
    case DeploymentPolicy::kBestDeployment:
      return objective == kLatencyObjective ? candidate.deployment.best_latency_ms()
                                            : candidate.deployment.best_energy_mj();
  }
  throw std::logic_error("objective_value: unknown policy");
}

opt::ParetoFront front_2d(const std::vector<EvaluatedCandidate>& history, Objective a,
                          Objective b, DeploymentPolicy policy) {
  opt::ParetoFront front;
  for (std::size_t i = 0; i < history.size(); ++i) {
    front.insert(i, {objective_value(history[i], a, policy),
                     objective_value(history[i], b, policy)});
  }
  return front;
}

opt::ParetoFront repartition_front(const opt::ParetoFront& front,
                                   const std::vector<EvaluatedCandidate>& history, Objective a,
                                   Objective b) {
  opt::ParetoFront repartitioned;
  for (const opt::ParetoPoint& p : front.points()) {
    const EvaluatedCandidate& candidate = history.at(p.id);
    repartitioned.insert(
        p.id, {objective_value(candidate, a, DeploymentPolicy::kBestDeployment),
               objective_value(candidate, b, DeploymentPolicy::kBestDeployment)});
  }
  return repartitioned;
}

FrontComparison compare_fronts(const opt::ParetoFront& a, const opt::ParetoFront& b) {
  FrontComparison cmp;
  cmp.a_dominates_b = opt::fraction_dominated(/*victims=*/b, /*aggressors=*/a);
  cmp.b_dominates_a = opt::fraction_dominated(/*victims=*/a, /*aggressors=*/b);
  cmp.combined = opt::combined_front(a, b);
  return cmp;
}

const opt::ParetoPoint& knee_point(const opt::ParetoFront& front) {
  if (front.empty()) throw std::invalid_argument("knee_point: empty front");
  const std::size_t k = front.points().front().objectives.size();
  std::vector<double> lo(k, 1e300);
  std::vector<double> hi(k, -1e300);
  for (const opt::ParetoPoint& p : front.points()) {
    for (std::size_t j = 0; j < k; ++j) {
      lo[j] = std::min(lo[j], p.objectives[j]);
      hi[j] = std::max(hi[j], p.objectives[j]);
    }
  }
  const opt::ParetoPoint* best = nullptr;
  double best_distance = 1e300;
  for (const opt::ParetoPoint& p : front.points()) {
    double distance = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double width = hi[j] - lo[j];
      const double normalized = width > 1e-12 ? (p.objectives[j] - lo[j]) / width : 0.0;
      distance += normalized * normalized;
    }
    if (distance < best_distance) {
      best_distance = distance;
      best = &p;
    }
  }
  return *best;
}

std::size_t count_satisfying(const std::vector<EvaluatedCandidate>& history,
                             const std::function<bool(const EvaluatedCandidate&)>& predicate) {
  std::size_t n = 0;
  for (const EvaluatedCandidate& c : history) {
    if (predicate(c)) ++n;
  }
  return n;
}

}  // namespace lens::core
