#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>

#include "par/substream.hpp"

namespace lens::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void validate_episode(const FaultEpisode& e) {
  if (!std::isfinite(e.start_s) || !std::isfinite(e.end_s) || e.start_s < 0.0 ||
      e.end_s <= e.start_s) {
    throw std::invalid_argument("FaultSchedule: episode needs 0 <= start < end");
  }
  // NaN fails every range comparison below, so it would pass them all.
  if (std::isnan(e.magnitude)) {
    throw std::invalid_argument("FaultSchedule: episode magnitude is NaN");
  }
  switch (e.fault) {
    case FaultClass::kLinkOutage:
      if (e.magnitude <= 0.0 || e.magnitude > 1.0) {
        throw std::invalid_argument("FaultSchedule: link-outage depth must be in (0,1]");
      }
      break;
    case FaultClass::kRttSpike:
      if (e.magnitude < 0.0) {
        throw std::invalid_argument("FaultSchedule: RTT spike must be non-negative ms");
      }
      break;
    case FaultClass::kEdgeSlowdown:
      if (e.magnitude < 1.0) {
        throw std::invalid_argument("FaultSchedule: edge slowdown factor must be >= 1");
      }
      break;
    case FaultClass::kMachineFailure:
      if (e.magnitude <= 0.0 || e.magnitude > 1.0) {
        throw std::invalid_argument(
            "FaultSchedule: machine-failure fraction must be in (0,1]");
      }
      break;
    case FaultClass::kRegionalBrownout:
      if (e.magnitude <= 0.0 || e.magnitude > 1.0) {
        throw std::invalid_argument(
            "FaultSchedule: brownout depth must be in (0,1]");
      }
      break;
    case FaultClass::kBackhaulBrownout:
      if (e.magnitude <= 0.0 || e.magnitude >= 1.0) {
        throw std::invalid_argument(
            "FaultSchedule: backhaul-brownout depth must be in (0,1) — use a "
            "backhaul outage for a full loss");
      }
      if (e.hop == 0) {
        throw std::invalid_argument(
            "FaultSchedule: backhaul episodes need hop >= 1 (hop 0 is the radio)");
      }
      break;
    case FaultClass::kBackhaulOutage:
      if (e.hop == 0) {
        throw std::invalid_argument(
            "FaultSchedule: backhaul episodes need hop >= 1 (hop 0 is the radio)");
      }
      break;  // magnitude unused
    case FaultClass::kFogSiteFailure:
      if (e.magnitude <= 0.0 || e.magnitude > 1.0) {
        throw std::invalid_argument(
            "FaultSchedule: fog-site failure fraction must be in (0,1]");
      }
      break;
    case FaultClass::kCloudOutage:
      break;  // magnitude unused
  }
}

}  // namespace

std::string fault_class_name(FaultClass fault) {
  switch (fault) {
    case FaultClass::kLinkOutage: return "link-outage";
    case FaultClass::kCloudOutage: return "cloud-outage";
    case FaultClass::kRttSpike: return "rtt-spike";
    case FaultClass::kEdgeSlowdown: return "edge-slowdown";
    case FaultClass::kMachineFailure: return "machine-failure";
    case FaultClass::kRegionalBrownout: return "regional-brownout";
    case FaultClass::kBackhaulBrownout: return "backhaul-brownout";
    case FaultClass::kBackhaulOutage: return "backhaul-outage";
    case FaultClass::kFogSiteFailure: return "fog-site-failure";
  }
  return "unknown";
}

FaultSchedule::FaultSchedule(std::vector<FaultEpisode> episodes)
    : episodes_(std::move(episodes)) {
  for (const FaultEpisode& e : episodes_) validate_episode(e);
  std::stable_sort(episodes_.begin(), episodes_.end(),
                   [](const FaultEpisode& a, const FaultEpisode& b) {
                     return a.start_s < b.start_s;
                   });
}

namespace {

/// Shared episode-generation core: `base_seed` roots every class substream.
/// generate() passes config.seed through unchanged (frozen legacy path);
/// generate_for_device() passes the fleet-mixed per-device seed.
FaultSchedule generate_with_base(const FaultScheduleConfig& config,
                                 std::uint64_t base_seed) {
  if (config.horizon_s <= 0.0 || !std::isfinite(config.horizon_s)) {
    throw std::invalid_argument("FaultSchedule::generate: horizon must be positive");
  }
  if (config.link_outage_rate_hz < 0.0 || config.cloud_outage_rate_hz < 0.0 ||
      config.rtt_spike_rate_hz < 0.0 || config.edge_slowdown_rate_hz < 0.0 ||
      config.machine_failure_rate_hz < 0.0 || config.brownout_rate_hz < 0.0 ||
      config.backhaul_brownout_rate_hz < 0.0 ||
      config.backhaul_outage_rate_hz < 0.0 || config.fog_failure_rate_hz < 0.0) {
    throw std::invalid_argument("FaultSchedule::generate: negative episode rate");
  }
  if (config.link_outage_mean_s <= 0.0 || config.cloud_outage_mean_s <= 0.0 ||
      config.rtt_spike_mean_s <= 0.0 || config.edge_slowdown_mean_s <= 0.0 ||
      config.machine_failure_mean_s <= 0.0 || config.brownout_mean_s <= 0.0 ||
      config.backhaul_brownout_mean_s <= 0.0 ||
      config.backhaul_outage_mean_s <= 0.0 || config.fog_failure_mean_s <= 0.0) {
    throw std::invalid_argument("FaultSchedule::generate: episode means must be positive");
  }
  if ((config.backhaul_brownout_rate_hz > 0.0 ||
       config.backhaul_outage_rate_hz > 0.0) &&
      config.backhaul_hop == 0) {
    throw std::invalid_argument(
        "FaultSchedule::generate: backhaul classes need backhaul_hop >= 1");
  }
  for (const HopFaultConfig& hop : config.extra_hops) {
    if (hop.outage_rate_hz < 0.0 || hop.rtt_spike_rate_hz < 0.0) {
      throw std::invalid_argument("FaultSchedule::generate: negative episode rate");
    }
    if (hop.outage_mean_s <= 0.0 || hop.rtt_spike_mean_s <= 0.0) {
      throw std::invalid_argument("FaultSchedule::generate: episode means must be positive");
    }
  }
  std::vector<FaultEpisode> episodes;

  // One independent RNG substream per class (splitmix64-mixed class salt):
  // enabling or tuning one class never perturbs another's episodes.
  const auto substream = [&](std::uint64_t salt) {
    return std::mt19937_64(par::substream_seed(base_seed, salt));
  };
  const auto renew = [&](FaultClass fault, double rate_hz, double mean_s,
                         double magnitude, std::uint64_t salt, std::size_t hop) {
    if (rate_hz <= 0.0) return;
    std::mt19937_64 rng = substream(salt);
    std::exponential_distribution<double> gap(rate_hz);
    std::exponential_distribution<double> duration(1.0 / mean_s);
    // Renewal process: episodes within a class never overlap.
    double t = gap(rng);
    while (t < config.horizon_s) {
      const double d = duration(rng);
      episodes.push_back({fault, t, t + d, magnitude, hop});
      t += d + gap(rng);
    }
  };
  renew(FaultClass::kLinkOutage, config.link_outage_rate_hz, config.link_outage_mean_s,
        config.link_outage_depth, 0x10c4, 0);
  renew(FaultClass::kCloudOutage, config.cloud_outage_rate_hz, config.cloud_outage_mean_s,
        0.0, 0x20c4, 0);
  renew(FaultClass::kRttSpike, config.rtt_spike_rate_hz, config.rtt_spike_mean_s,
        config.rtt_spike_extra_ms, 0x30c4, 0);
  renew(FaultClass::kEdgeSlowdown, config.edge_slowdown_rate_hz,
        config.edge_slowdown_mean_s, config.edge_slowdown_factor, 0x40c4, 0);
  // Datacenter-side classes: fresh salts, so every stream above is
  // byte-identical whether or not these are enabled.
  renew(FaultClass::kMachineFailure, config.machine_failure_rate_hz,
        config.machine_failure_mean_s, config.machine_failure_fraction, 0x50c4, 0);
  renew(FaultClass::kRegionalBrownout, config.brownout_rate_hz,
        config.brownout_mean_s, config.brownout_depth, 0x60c4, 0);
  // Regional classes: fresh salts once more (0x70c4/0x80c4/0x90c4 are
  // disjoint from every class salt above AND from every 0x10000*hop-offset
  // backhaul stream below, which starts at 0x1_00c4), so all six legacy
  // streams stay byte-identical whether or not a region enables these.
  renew(FaultClass::kBackhaulBrownout, config.backhaul_brownout_rate_hz,
        config.backhaul_brownout_mean_s, config.backhaul_brownout_depth, 0x70c4,
        config.backhaul_hop);
  renew(FaultClass::kBackhaulOutage, config.backhaul_outage_rate_hz,
        config.backhaul_outage_mean_s, 0.0, 0x80c4, config.backhaul_hop);
  renew(FaultClass::kFogSiteFailure, config.fog_failure_rate_hz,
        config.fog_failure_mean_s, config.fog_failure_fraction, 0x90c4, 0);
  // Backhaul hops: salts offset per hop (0x10000 * hop keeps them disjoint
  // from every class salt above), so the hop-0 schedule is byte-identical
  // whether or not any backhaul class is enabled.
  for (std::size_t i = 0; i < config.extra_hops.size(); ++i) {
    const HopFaultConfig& hc = config.extra_hops[i];
    const std::size_t hop = i + 1;
    const std::uint64_t offset = 0x10000ull * static_cast<std::uint64_t>(hop);
    renew(FaultClass::kLinkOutage, hc.outage_rate_hz, hc.outage_mean_s, hc.outage_depth,
          0x10c4 + offset, hop);
    renew(FaultClass::kRttSpike, hc.rtt_spike_rate_hz, hc.rtt_spike_mean_s,
          hc.rtt_spike_extra_ms, 0x30c4 + offset, hop);
  }
  episodes.insert(episodes.end(), config.scripted.begin(), config.scripted.end());
  return FaultSchedule(std::move(episodes));
}

}  // namespace

FaultSchedule FaultSchedule::generate(const FaultScheduleConfig& config) {
  return generate_with_base(config, static_cast<std::uint64_t>(config.seed));
}

FaultSchedule FaultSchedule::generate_for_device(const FaultScheduleConfig& config,
                                                 std::uint64_t fleet_seed,
                                                 std::uint64_t device_id) {
  return generate_with_base(config, par::substream_seed(fleet_seed, device_id));
}

FaultSchedule FaultSchedule::generate_for_region(const FaultScheduleConfig& config,
                                                 std::uint64_t fleet_seed,
                                                 std::uint64_t region_id) {
  return generate_with_base(
      config,
      par::substream_seed(par::substream_seed(fleet_seed, kRegionStreamSalt),
                          region_id));
}

std::size_t FaultSchedule::count(FaultClass fault) const {
  std::size_t n = 0;
  for (const FaultEpisode& e : episodes_) {
    if (e.fault == fault) ++n;
  }
  return n;
}

namespace {

/// The classes whose episodes degrade one network hop; every other class
/// ignores FaultEpisode::hop.
bool hop_scoped(FaultClass fault) {
  return fault == FaultClass::kLinkOutage || fault == FaultClass::kRttSpike ||
         fault == FaultClass::kBackhaulBrownout || fault == FaultClass::kBackhaulOutage;
}

/// Query answer while no episode of the class covers t.
double healthy_value(FaultClass fault) {
  switch (fault) {
    case FaultClass::kLinkOutage:
    case FaultClass::kEdgeSlowdown:
    case FaultClass::kRegionalBrownout:
    case FaultClass::kBackhaulBrownout:
      return 1.0;
    default:
      return 0.0;
  }
}

/// Deepest-wins fold of one covering episode into a segment's value; the
/// outage classes fold to 1 (unavailable).
double fold(FaultClass fault, double value, double magnitude) {
  switch (fault) {
    case FaultClass::kLinkOutage:
      return std::min(value, magnitude);
    case FaultClass::kRegionalBrownout:
    case FaultClass::kBackhaulBrownout:
      return std::min(value, 1.0 - magnitude);
    case FaultClass::kCloudOutage:
    case FaultClass::kBackhaulOutage:
      return 1.0;
    default:
      return std::max(value, magnitude);
  }
}

}  // namespace

FaultInjector::FaultInjector(FaultSchedule schedule) : schedule_(std::move(schedule)) {
  // Group the episodes by (class, hop key), then fold each group into its
  // table: every episode covers the segments from its start edge up to its
  // end edge.
  const auto key = [](const FaultEpisode& e) {
    return std::make_pair(static_cast<std::size_t>(e.fault), hop_scoped(e.fault) ? e.hop : 0);
  };
  std::vector<const FaultEpisode*> order;
  order.reserve(schedule_.episodes().size());
  for (const FaultEpisode& e : schedule_.episodes()) order.push_back(&e);
  std::sort(order.begin(), order.end(), [&](const FaultEpisode* a, const FaultEpisode* b) {
    return key(*a) < key(*b);
  });
  for (auto group = order.begin(); group != order.end();) {
    const auto [fault_index, hop] = key(**group);
    const auto group_end = std::find_if(group, order.end(), [&](const FaultEpisode* e) {
      return key(*e) != key(**group);
    });
    const FaultClass fault = static_cast<FaultClass>(fault_index);
    StepTable table;
    for (auto it = group; it != group_end; ++it) {
      table.edges.push_back((*it)->start_s);
      table.edges.push_back((*it)->end_s);
    }
    std::sort(table.edges.begin(), table.edges.end());
    table.edges.erase(std::unique(table.edges.begin(), table.edges.end()), table.edges.end());
    table.values.assign(table.edges.size() + 1, healthy_value(fault));
    for (auto it = group; it != group_end; ++it) {
      const auto first = std::lower_bound(table.edges.begin(), table.edges.end(), (*it)->start_s);
      const auto last = std::lower_bound(first, table.edges.end(), (*it)->end_s);
      for (auto i = static_cast<std::size_t>(first - table.edges.begin()) + 1;
           i <= static_cast<std::size_t>(last - table.edges.begin()); ++i) {
        table.values[i] = fold(fault, table.values[i], (*it)->magnitude);
      }
    }
    tables_[fault_index].emplace_back(hop, std::move(table));
    group = group_end;
  }
}

std::size_t FaultInjector::StepTable::segment(double t_s) const {
  return static_cast<std::size_t>(std::upper_bound(edges.begin(), edges.end(), t_s) -
                                  edges.begin());
}

const FaultInjector::StepTable* FaultInjector::table(FaultClass fault, std::size_t hop) const {
  const auto& tables = tables_[static_cast<std::size_t>(fault)];
  const auto it = std::lower_bound(
      tables.begin(), tables.end(), hop,
      [](const std::pair<std::size_t, StepTable>& entry, std::size_t h) { return entry.first < h; });
  return it != tables.end() && it->first == hop ? &it->second : nullptr;
}

double FaultInjector::value(FaultClass fault, double t_s, std::size_t hop) const {
  const StepTable* steps = table(fault, hop);
  return steps == nullptr ? healthy_value(fault) : steps->values[steps->segment(t_s)];
}

double FaultInjector::link_factor(double t_s, std::size_t hop) const {
  return value(FaultClass::kLinkOutage, t_s, hop);
}

bool FaultInjector::cloud_unavailable(double t_s) const {
  return value(FaultClass::kCloudOutage, t_s, 0) != 0.0;
}

double FaultInjector::rtt_extra_ms(double t_s, std::size_t hop) const {
  return value(FaultClass::kRttSpike, t_s, hop);
}

double FaultInjector::edge_slowdown(double t_s) const {
  return value(FaultClass::kEdgeSlowdown, t_s, 0);
}

double FaultInjector::machine_failure_fraction(double t_s) const {
  return value(FaultClass::kMachineFailure, t_s, 0);
}

double FaultInjector::brownout_factor(double t_s) const {
  return value(FaultClass::kRegionalBrownout, t_s, 0);
}

double FaultInjector::backhaul_factor(double t_s, std::size_t hop) const {
  return value(FaultClass::kBackhaulBrownout, t_s, hop);
}

bool FaultInjector::backhaul_unavailable(double t_s, std::size_t hop) const {
  return value(FaultClass::kBackhaulOutage, t_s, hop) != 0.0;
}

double FaultInjector::fog_failure_fraction(double t_s) const {
  return value(FaultClass::kFogSiteFailure, t_s, 0);
}

double FaultInjector::next_link_boundary(double t_s, std::size_t hop) const {
  const StepTable* steps = table(FaultClass::kLinkOutage, hop);
  if (steps == nullptr) return kInf;
  const std::size_t i = steps->segment(t_s);
  return i < steps->edges.size() ? steps->edges[i] : kInf;
}

double FaultInjector::degraded_time(double horizon_s) const {
  // Episodes are start-sorted across classes: one merge pass over the union.
  double covered = 0.0;
  double open_until = 0.0;
  for (const FaultEpisode& e : schedule_.episodes()) {
    const double start = std::min(std::max(e.start_s, open_until), horizon_s);
    const double end = std::min(e.end_s, horizon_s);
    if (end > start) covered += end - start;
    open_until = std::max(open_until, end);
  }
  return covered;
}

}  // namespace lens::sim
