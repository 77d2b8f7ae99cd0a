#include "core/plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lens::core {

// ---------------------------------------------------------------------------
// Two-tier compilation. This is the frozen legacy path: every arithmetic
// expression and its evaluation order is kept exactly as the pre-K-tier code
// wrote it, so priced two-tier plans stay bit-identical to the historical
// evaluate() results (tests/test_plan.cpp pins this against a frozen
// reference). The K-tier metadata (cuts, per-tier latencies, hop bytes,
// multi-hop surfaces) is filled in alongside without touching the legacy
// fields.
// ---------------------------------------------------------------------------

DeploymentPlan DeploymentEvaluator::compile_two_tier(const dnn::Architecture& arch) const {
  DeploymentPlan plan;
  plan.comm_ = topology_.hop(0);
  plan.tier_names_ = topology_.tier_names();
  plan.num_tiers_ = 2;
  const perf::LayerPerformanceModel& model = *topology_.tier(0).model;
  const std::size_t n = arch.num_layers();

  // Lines 5-8: per-layer prediction — the only predictor calls of the whole
  // compile/price pipeline.
  plan.layer_latency_ms_.reserve(n);
  plan.layer_energy_mj_.reserve(n);
  for (const dnn::LayerInfo& info : arch.layers()) {
    const perf::LayerMeasurement m = model.predict(info.spec, info.input);
    plan.layer_latency_ms_.push_back(m.latency_ms);
    plan.layer_energy_mj_.push_back(m.energy_mj());
  }

  // Cloud execution time of the suffix starting at layer `first` (0 when
  // the paper's infinite-cloud assumption is in force).
  std::vector<double> cloud_suffix_ms(n + 1, 0.0);
  if (config_.cloud_model != nullptr) {
    for (std::size_t i = n; i-- > 0;) {
      const dnn::LayerInfo& info = arch.layers()[i];
      cloud_suffix_ms[i] =
          cloud_suffix_ms[i + 1] +
          config_.cloud_model->predict(info.spec, info.input).latency_ms;
    }
  }

  const std::uint64_t input_bytes = arch.input_bytes(config_.sizes);

  // All-Cloud: ship the raw input, wait for the answer. Always feasible —
  // nothing is resident on the edge.
  {
    DeploymentOption o;
    o.kind = DeploymentKind::kAllCloud;
    o.tx_bytes = input_bytes;
    o.edge_latency_ms = 0.0;
    o.edge_energy_mj = 0.0;
    o.cloud_latency_ms = cloud_suffix_ms[0];
    o.cuts = {0};
    o.tier_latency_ms = {0.0, o.cloud_latency_ms};
    o.hop_tx_bytes = {o.tx_bytes};
    plan.options_.push_back(o);
  }

  // Lines 9-12: each viable split point with its accumulated edge cost.
  // Options whose edge-resident weights exceed the memory budget are
  // skipped.
  const std::uint64_t budget = config_.edge_memory_budget_bytes;
  double latency_prefix = 0.0;
  double energy_prefix = 0.0;
  std::uint64_t weight_prefix = 0;
  for (std::size_t i = 0; i < n; ++i) {
    latency_prefix += plan.layer_latency_ms_[i];
    energy_prefix += plan.layer_energy_mj_[i];
    weight_prefix += 4ULL * arch.layers()[i].params;
    const std::uint64_t out_bytes = arch.output_bytes(i, config_.sizes);
    const bool viable = out_bytes < input_bytes;
    const bool fits = budget == 0 || weight_prefix <= budget;
    const bool last = i + 1 == n;
    if (last && fits) {
      // All-Edge: full on-device execution, no transfer.
      DeploymentOption o;
      o.kind = DeploymentKind::kAllEdge;
      o.edge_latency_ms = latency_prefix;
      o.edge_energy_mj = energy_prefix;
      o.edge_weight_bytes = weight_prefix;
      o.cuts = {n};
      o.tier_latency_ms = {latency_prefix, 0.0};
      o.hop_tx_bytes = {0};
      plan.options_.push_back(o);
    } else if (!last && viable && fits) {
      DeploymentOption o;
      o.kind = DeploymentKind::kPartitioned;
      o.split_after = i;
      o.tx_bytes = out_bytes;
      o.edge_latency_ms = latency_prefix;
      o.edge_energy_mj = energy_prefix;
      o.cloud_latency_ms = cloud_suffix_ms[i + 1];
      o.edge_weight_bytes = weight_prefix;
      o.cuts = {i + 1};
      o.tier_latency_ms = {latency_prefix, o.cloud_latency_ms};
      o.hop_tx_bytes = {out_bytes};
      plan.options_.push_back(o);
    }
  }

  // Per-option closed-form curves; the comm algebra comes from CommModel.
  plan.latency_curves_.reserve(plan.options_.size());
  plan.energy_curves_.reserve(plan.options_.size());
  for (const DeploymentOption& o : plan.options_) {
    comm::CostCurve latency{o.edge_latency_ms + o.cloud_latency_ms, 0.0};
    comm::CostCurve energy{o.edge_energy_mj, 0.0};
    if (o.tx_bytes > 0) {
      const comm::CostCurve tx_latency = plan.comm_.comm_latency_curve(o.tx_bytes);
      latency.constant += tx_latency.constant;
      latency.per_inverse_tu = tx_latency.per_inverse_tu;
      const comm::CostCurve tx_energy = plan.comm_.tx_energy_curve(o.tx_bytes);
      energy.constant += tx_energy.constant;
      energy.per_inverse_tu = tx_energy.per_inverse_tu;
    }
    plan.latency_curves_.push_back(latency);
    plan.energy_curves_.push_back(energy);
  }

  // One-hop surfaces carry the very same coefficients as the 1-D curves.
  plan.latency_surfaces_.reserve(plan.options_.size());
  plan.energy_surfaces_.reserve(plan.options_.size());
  for (std::size_t i = 0; i < plan.options_.size(); ++i) {
    plan.latency_surfaces_.push_back(
        {plan.latency_curves_[i].constant, {plan.latency_curves_[i].per_inverse_tu}});
    plan.energy_surfaces_.push_back(
        {plan.energy_curves_[i].constant, {plan.energy_curves_[i].per_inverse_tu}});
  }
  return plan;
}

// ---------------------------------------------------------------------------
// K-tier compilation: enumerate the nondecreasing cut-vector lattice
// (0 <= c_1 <= ... <= c_{K-1} <= n) in ascending lexicographic order, drop
// options that break a tier's memory budget, then dominance-prune in
// coefficient space — option B goes when some option A has a latency
// constant, every per-hop latency slope, an energy constant, and an energy
// slope that are all <= B's (then A is at least as good at *every* positive
// throughput vector, so nothing Pareto-optimal is ever dropped). All-Edge /
// All-Cloud anchors are exempt so DeploymentEvaluation::all_cloud() keeps
// its contract.
// ---------------------------------------------------------------------------

namespace {

bool surface_dominates(const comm::MultiHopCurve& lat_a, const comm::MultiHopCurve& en_a,
                       const comm::MultiHopCurve& lat_b, const comm::MultiHopCurve& en_b) {
  if (lat_a.constant > lat_b.constant || en_a.constant > en_b.constant) return false;
  for (std::size_t h = 0; h < lat_a.per_inverse_tu.size(); ++h) {
    if (lat_a.per_inverse_tu[h] > lat_b.per_inverse_tu[h]) return false;
  }
  for (std::size_t h = 0; h < en_a.per_inverse_tu.size(); ++h) {
    if (en_a.per_inverse_tu[h] > en_b.per_inverse_tu[h]) return false;
  }
  return true;
}

}  // namespace

DeploymentPlan DeploymentEvaluator::compile_multitier(const dnn::Architecture& arch) const {
  const std::size_t num_tiers = topology_.num_tiers();
  const std::size_t num_hops = topology_.num_hops();
  DeploymentPlan plan;
  plan.comm_ = topology_.hop(0);
  plan.later_hops_.assign(topology_.hops().begin() + 1, topology_.hops().end());
  plan.tier_names_ = topology_.tier_names();
  plan.num_tiers_ = num_tiers;
  const std::size_t n = arch.num_layers();

  // Per-layer prediction on the edge tier (also the plan's layer arrays),
  // then per-tier latency prefix sums so any segment [a, b) costs
  // lat[k][b] - lat[k][a].
  plan.layer_latency_ms_.reserve(n);
  plan.layer_energy_mj_.reserve(n);
  for (const dnn::LayerInfo& info : arch.layers()) {
    const perf::LayerMeasurement m = topology_.tier(0).model->predict(info.spec, info.input);
    plan.layer_latency_ms_.push_back(m.latency_ms);
    plan.layer_energy_mj_.push_back(m.energy_mj());
  }
  std::vector<std::vector<double>> tier_latency_prefix(num_tiers);
  for (std::size_t k = 0; k < num_tiers; ++k) {
    const perf::LayerPerformanceModel* model = topology_.tier(k).model;
    if (model == nullptr) continue;  // free tier: zero compute
    std::vector<double>& prefix = tier_latency_prefix[k];
    prefix.assign(n + 1, 0.0);
    double running = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (k == 0) {
        running += plan.layer_latency_ms_[i];
      } else {
        const dnn::LayerInfo& info = arch.layers()[i];
        running += model->predict(info.spec, info.input).latency_ms;
      }
      prefix[i + 1] = running;
    }
  }
  std::vector<double> edge_energy_prefix(n + 1, 0.0);
  std::vector<std::uint64_t> weight_prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    edge_energy_prefix[i + 1] = edge_energy_prefix[i] + plan.layer_energy_mj_[i];
    weight_prefix[i + 1] = weight_prefix[i] + 4ULL * arch.layers()[i].params;
  }
  // Activation bytes crossing boundary b (before layer b); boundary 0 is the
  // raw model input.
  std::vector<std::uint64_t> boundary_bytes(n + 1, 0);
  boundary_bytes[0] = arch.input_bytes(config_.sizes);
  for (std::size_t i = 0; i < n; ++i) {
    boundary_bytes[i + 1] = arch.output_bytes(i, config_.sizes);
  }

  // Ascending lexicographic odometer over nondecreasing cut vectors.
  std::vector<std::size_t> cuts(num_hops, 0);
  while (true) {
    bool feasible = true;
    for (std::size_t k = 0; k < num_tiers && feasible; ++k) {
      const std::uint64_t tier_budget = topology_.tier(k).memory_budget_bytes;
      if (tier_budget == 0) continue;
      const std::size_t begin = k == 0 ? 0 : cuts[k - 1];
      const std::size_t end = k == num_tiers - 1 ? n : cuts[k];
      if (weight_prefix[end] - weight_prefix[begin] > tier_budget) feasible = false;
    }
    if (feasible) {
      DeploymentOption o;
      o.cuts = cuts;
      o.tier_latency_ms.assign(num_tiers, 0.0);
      for (std::size_t k = 0; k < num_tiers; ++k) {
        if (tier_latency_prefix[k].empty()) continue;
        const std::size_t begin = k == 0 ? 0 : cuts[k - 1];
        const std::size_t end = k == num_tiers - 1 ? n : cuts[k];
        o.tier_latency_ms[k] = tier_latency_prefix[k][end] - tier_latency_prefix[k][begin];
      }
      o.hop_tx_bytes.assign(num_hops, 0);
      for (std::size_t h = 0; h < num_hops; ++h) {
        // Hop h carries the activation at boundary c_{h+1} whenever any
        // layer runs past tier h; an empty middle tier still relays.
        if (cuts[h] < n) o.hop_tx_bytes[h] = boundary_bytes[cuts[h]];
      }
      o.edge_latency_ms = o.tier_latency_ms[0];
      o.edge_energy_mj = edge_energy_prefix[cuts[0]];
      o.edge_weight_bytes = weight_prefix[cuts[0]];
      o.tx_bytes = o.hop_tx_bytes[0];
      double remote_ms = 0.0;
      for (std::size_t k = 1; k < num_tiers; ++k) remote_ms += o.tier_latency_ms[k];
      o.cloud_latency_ms = remote_ms;
      if (cuts.front() == n) {
        o.kind = DeploymentKind::kAllEdge;
      } else if (cuts.back() == 0) {
        o.kind = DeploymentKind::kAllCloud;
      } else {
        o.kind = DeploymentKind::kPartitioned;
      }

      comm::MultiHopCurve latency;
      latency.per_inverse_tu.assign(num_hops, 0.0);
      for (std::size_t k = 0; k < num_tiers; ++k) latency.constant += o.tier_latency_ms[k];
      for (std::size_t h = 0; h < num_hops; ++h) {
        if (o.hop_tx_bytes[h] == 0) continue;
        const comm::CostCurve hop_latency =
            topology_.hop(h).comm_latency_curve(o.hop_tx_bytes[h]);
        latency.constant += hop_latency.constant;
        latency.per_inverse_tu[h] = hop_latency.per_inverse_tu;
      }
      // Only the device radio (hop 0) draws from the battery; fog-to-cloud
      // transfers are not billed to the edge energy objective.
      comm::MultiHopCurve energy;
      energy.per_inverse_tu.assign(num_hops, 0.0);
      energy.constant = o.edge_energy_mj;
      if (o.hop_tx_bytes[0] > 0) {
        const comm::CostCurve tx_energy = plan.comm_.tx_energy_curve(o.hop_tx_bytes[0]);
        energy.constant += tx_energy.constant;
        energy.per_inverse_tu[0] = tx_energy.per_inverse_tu;
      }

      plan.options_.push_back(std::move(o));
      plan.latency_surfaces_.push_back(std::move(latency));
      plan.energy_surfaces_.push_back(std::move(energy));
    }

    // Advance the odometer.
    std::size_t i = num_hops;
    while (i > 0 && cuts[i - 1] == n) --i;
    if (i == 0) break;
    ++cuts[i - 1];
    for (std::size_t j = i; j < num_hops; ++j) cuts[j] = cuts[i - 1];
  }

  // Dominance prune (first occurrence wins exact ties; anchors exempt).
  const std::size_t m = plan.options_.size();
  std::vector<bool> pruned(m, false);
  for (std::size_t b = 0; b < m; ++b) {
    if (plan.options_[b].kind != DeploymentKind::kPartitioned) continue;
    for (std::size_t a = 0; a < m && !pruned[b]; ++a) {
      if (a == b || pruned[a]) continue;
      if (!surface_dominates(plan.latency_surfaces_[a], plan.energy_surfaces_[a],
                             plan.latency_surfaces_[b], plan.energy_surfaces_[b])) {
        continue;
      }
      if (a < b ||
          !surface_dominates(plan.latency_surfaces_[b], plan.energy_surfaces_[b],
                             plan.latency_surfaces_[a], plan.energy_surfaces_[a])) {
        pruned[b] = true;
      }
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (pruned[i]) continue;
    if (kept != i) {
      plan.options_[kept] = std::move(plan.options_[i]);
      plan.latency_surfaces_[kept] = std::move(plan.latency_surfaces_[i]);
      plan.energy_surfaces_[kept] = std::move(plan.energy_surfaces_[i]);
    }
    ++kept;
  }
  plan.options_.resize(kept);
  plan.latency_surfaces_.resize(kept);
  plan.energy_surfaces_.resize(kept);
  return plan;
}

// The pricing arithmetic deliberately mirrors the legacy evaluate() path
// term-for-term (edge prefix + comm + cloud suffix, in that order) so priced
// plans are bit-identical to the pre-refactor results. The K-tier pricing
// below extends the same pipeline order (tier 0, hop 0, tier 1, hop 1, ...)
// hop by hop.

const comm::CommModel& DeploymentPlan::hop(std::size_t h) const {
  if (h == 0) return comm_;
  return later_hops_.at(h - 1);
}

void DeploymentPlan::require_two_tier(const char* what) const {
  if (!later_hops_.empty()) {
    throw std::logic_error(std::string("DeploymentPlan: ") + what +
                           " needs a per-hop throughput vector on a K-tier plan");
  }
}

double DeploymentPlan::option_latency_ms(std::size_t index, double tu_mbps) const {
  require_two_tier("option_latency_ms(tu)");
  const DeploymentOption& o = options_.at(index);
  if (o.tx_bytes == 0) return o.edge_latency_ms;
  return o.edge_latency_ms + comm_.comm_latency_ms(o.tx_bytes, tu_mbps) +
         o.cloud_latency_ms;
}

double DeploymentPlan::option_energy_mj(std::size_t index, double tu_mbps) const {
  require_two_tier("option_energy_mj(tu)");
  const DeploymentOption& o = options_.at(index);
  if (o.tx_bytes == 0) return o.edge_energy_mj;
  return o.edge_energy_mj + comm_.tx_energy_mj(o.tx_bytes, tu_mbps);
}

DeploymentEvaluation DeploymentPlan::price(double tu_mbps) const {
  DeploymentEvaluation result;
  price_into(tu_mbps, result);
  return result;
}

DeploymentEvaluation DeploymentPlan::price(const std::vector<double>& tu_mbps) const {
  DeploymentEvaluation result;
  price_into(tu_mbps, result);
  return result;
}

void DeploymentPlan::price_into(double tu_mbps, DeploymentEvaluation& out) const {
  require_two_tier("price(tu)");
  if (tu_mbps <= 0.0) {
    throw std::invalid_argument("DeploymentPlan: throughput must be positive");
  }
  if (options_.empty()) throw std::logic_error("DeploymentPlan: empty plan");
  out.options.assign(options_.begin(), options_.end());
  out.layer_latency_ms = layer_latency_ms_;
  out.layer_energy_mj = layer_energy_mj_;
  for (DeploymentOption& o : out.options) {
    if (o.tx_bytes == 0) {
      o.latency_ms = o.edge_latency_ms;
      o.energy_mj = o.edge_energy_mj;
    } else {
      o.latency_ms = o.edge_latency_ms + comm_.comm_latency_ms(o.tx_bytes, tu_mbps) +
                     o.cloud_latency_ms;
      o.energy_mj = o.edge_energy_mj + comm_.tx_energy_mj(o.tx_bytes, tu_mbps);
    }
  }

  // Lines 13-14: independent minima for each objective.
  out.best_latency_option = 0;
  out.best_energy_option = 0;
  for (std::size_t i = 1; i < out.options.size(); ++i) {
    if (out.options[i].latency_ms < out.options[out.best_latency_option].latency_ms) {
      out.best_latency_option = i;
    }
    if (out.options[i].energy_mj < out.options[out.best_energy_option].energy_mj) {
      out.best_energy_option = i;
    }
  }
}

void DeploymentPlan::price_into(const std::vector<double>& tu_mbps,
                                DeploymentEvaluation& out) const {
  if (tu_mbps.size() != num_hops()) {
    throw std::invalid_argument("DeploymentPlan: expected one throughput per hop");
  }
  if (later_hops_.empty()) {
    price_into(tu_mbps[0], out);  // exact scalar (legacy) path at K=2
    return;
  }
  for (double tu : tu_mbps) {
    if (tu <= 0.0) {
      throw std::invalid_argument("DeploymentPlan: throughput must be positive");
    }
  }
  if (options_.empty()) throw std::logic_error("DeploymentPlan: empty plan");
  out.options.assign(options_.begin(), options_.end());
  out.layer_latency_ms = layer_latency_ms_;
  out.layer_energy_mj = layer_energy_mj_;
  for (DeploymentOption& o : out.options) {
    double latency = o.tier_latency_ms[0];
    for (std::size_t h = 0; h < num_hops(); ++h) {
      if (o.hop_tx_bytes[h] > 0) {
        latency += hop(h).comm_latency_ms(o.hop_tx_bytes[h], tu_mbps[h]);
      }
      latency += o.tier_latency_ms[h + 1];
    }
    o.latency_ms = latency;
    o.energy_mj = o.hop_tx_bytes[0] == 0
                      ? o.edge_energy_mj
                      : o.edge_energy_mj + comm_.tx_energy_mj(o.hop_tx_bytes[0], tu_mbps[0]);
  }
  out.best_latency_option = 0;
  out.best_energy_option = 0;
  for (std::size_t i = 1; i < out.options.size(); ++i) {
    if (out.options[i].latency_ms < out.options[out.best_latency_option].latency_ms) {
      out.best_latency_option = i;
    }
    if (out.options[i].energy_mj < out.options[out.best_energy_option].energy_mj) {
      out.best_energy_option = i;
    }
  }
}

PricedObjectives DeploymentPlan::objectives_at(double tu_mbps) const {
  require_two_tier("objectives_at(tu)");
  if (tu_mbps <= 0.0) {
    throw std::invalid_argument("DeploymentPlan: throughput must be positive");
  }
  if (options_.empty()) throw std::logic_error("DeploymentPlan: empty plan");
  PricedObjectives best;
  best.best_latency_ms = option_latency_ms(0, tu_mbps);
  best.best_energy_mj = option_energy_mj(0, tu_mbps);
  for (std::size_t i = 1; i < options_.size(); ++i) {
    const double latency = option_latency_ms(i, tu_mbps);
    const double energy = option_energy_mj(i, tu_mbps);
    if (latency < best.best_latency_ms) {
      best.best_latency_ms = latency;
      best.best_latency_option = i;
    }
    if (energy < best.best_energy_mj) {
      best.best_energy_mj = energy;
      best.best_energy_option = i;
    }
  }
  return best;
}

std::vector<comm::CostCurve> DeploymentPlan::collapsed_latency_curves(
    std::size_t free_hop, const std::vector<double>& fixed_tu_mbps) const {
  std::vector<comm::CostCurve> curves;
  curves.reserve(latency_surfaces_.size());
  for (const comm::MultiHopCurve& surface : latency_surfaces_) {
    curves.push_back(surface.collapse(free_hop, fixed_tu_mbps));
  }
  return curves;
}

std::vector<comm::CostCurve> DeploymentPlan::collapsed_energy_curves(
    std::size_t free_hop, const std::vector<double>& fixed_tu_mbps) const {
  std::vector<comm::CostCurve> curves;
  curves.reserve(energy_surfaces_.size());
  for (const comm::MultiHopCurve& surface : energy_surfaces_) {
    curves.push_back(surface.collapse(free_hop, fixed_tu_mbps));
  }
  return curves;
}

void DeploymentPlan::collapse_latency_curves_into(
    std::size_t free_hop, const std::vector<double>& fixed_tu_mbps,
    std::vector<comm::CostCurve>& out) const {
  out.resize(latency_surfaces_.size());
  for (std::size_t i = 0; i < latency_surfaces_.size(); ++i) {
    out[i] = latency_surfaces_[i].collapse(free_hop, fixed_tu_mbps);
  }
}

std::vector<PricedObjectives> DeploymentPlan::price_batch(
    const std::vector<double>& tus_mbps) const {
  std::vector<PricedObjectives> out(tus_mbps.size());
  price_batch_into(tus_mbps, out);
  return out;
}

void DeploymentPlan::price_batch_into(std::span<const double> tus_mbps,
                                      std::span<PricedObjectives> out) const {
  require_two_tier("price_batch(tus)");
  // Option-outer / throughput-inner sweep with running minima. Per option
  // the curve terms (edge costs, bits, cloud suffix, radio-power
  // coefficients) are hoisted once and the inner loop over throughputs is a
  // pure map — independent iterations the compiler vectorizes. Every
  // arithmetic expression below replicates option_latency_ms /
  // option_energy_mj (via CommModel's inline formulas) term-for-term, and
  // the minima are updated with the same strict-< in ascending option
  // order, so the result is bit-identical to the per-throughput
  // objectives_at() loop — which tests keep as the scalar oracle.
  const std::size_t m = tus_mbps.size();
  if (m == 0) return;
  if (out.size() != m) {
    throw std::invalid_argument("price_batch_into: output span length differs");
  }
  if (tus_mbps.front() <= 0.0) {
    throw std::invalid_argument("DeploymentPlan: throughput must be positive");
  }
  if (options_.empty()) throw std::logic_error("DeploymentPlan: empty plan");
  for (double tu : tus_mbps) {
    if (tu <= 0.0) {
      throw std::invalid_argument("DeploymentPlan: throughput must be positive");
    }
  }

  const double rtt = comm_.round_trip_ms();
  const double alpha = comm_.power_model().alpha_mw_per_mbps;
  const double beta = comm_.power_model().beta_mw;
  std::fill(out.begin(), out.end(), PricedObjectives{});

  for (std::size_t opt = 0; opt < options_.size(); ++opt) {
    const DeploymentOption& o = options_[opt];
    if (o.tx_bytes == 0) {
      // Throughput-free option: one candidate value for the whole sweep.
      const double latency = o.edge_latency_ms;
      const double energy = o.edge_energy_mj;
      for (std::size_t t = 0; t < m; ++t) {
        if (opt == 0 || latency < out[t].best_latency_ms) {
          out[t].best_latency_ms = latency;
          out[t].best_latency_option = opt;
        }
        if (opt == 0 || energy < out[t].best_energy_mj) {
          out[t].best_energy_mj = energy;
          out[t].best_energy_option = opt;
        }
      }
      continue;
    }
    const double bits = static_cast<double>(o.tx_bytes) * 8.0;
    const double edge_latency = o.edge_latency_ms;
    const double cloud_latency = o.cloud_latency_ms;
    const double edge_energy = o.edge_energy_mj;
    for (std::size_t t = 0; t < m; ++t) {
      const double tu = tus_mbps[t];
      const double tx_ms = bits / (tu * 1e3);
      const double latency = edge_latency + (tx_ms + rtt) + cloud_latency;
      const double energy = edge_energy + (alpha * tu + beta) * (tx_ms / 1e3);
      if (opt == 0 || latency < out[t].best_latency_ms) {
        out[t].best_latency_ms = latency;
        out[t].best_latency_option = opt;
      }
      if (opt == 0 || energy < out[t].best_energy_mj) {
        out[t].best_energy_mj = energy;
        out[t].best_energy_option = opt;
      }
    }
  }
}

}  // namespace lens::core
