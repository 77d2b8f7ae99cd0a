#pragma once
// Deterministic fault injection for the serving stack (sim/runtime/core).
//
// A FaultSchedule is a time-sorted set of fault episodes over a finite
// horizon: link outages (deep fades — a throughput multiplier, generalizing
// the two-state Markov overlay of comm::TraceGenerator to continuous time),
// cloud-unavailability windows, round-trip-latency spikes, and edge
// slowdown (straggler) intervals. Schedules are generated from a seed by
// per-class renewal processes with independent RNG substreams, so the same
// seed always yields the same episodes — regardless of thread count and of
// which other fault classes are enabled. A FaultInjector answers the
// point-in-time queries the simulator needs (link factor, cloud
// reachability, extra RTT, edge slowdown) plus the union degraded time used
// for SimStats accounting.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lens::sim {

/// The fault classes the serving stack degrades under. The first four are
/// network/edge-side (PR 4); kMachineFailure and kRegionalBrownout are
/// datacenter-side and only matter once a finite cloud (lens::cloud) is
/// attached — a fraction of the machine pool dies, or a regional brownout
/// cuts every machine's capacity. The last three are *regional* (shared by
/// every device of one failure domain, not per-device): a backhaul hop's
/// throughput sags or vanishes, or a region's fog site loses machines.
enum class FaultClass {
  kLinkOutage,
  kCloudOutage,
  kRttSpike,
  kEdgeSlowdown,
  kMachineFailure,
  kRegionalBrownout,
  kBackhaulBrownout,
  kBackhaulOutage,
  kFogSiteFailure,
};

inline constexpr std::size_t kNumFaultClasses = 9;

/// Salt mixed into the fleet seed before the region id when deriving a
/// region's fault substream root (see FaultSchedule::generate_for_region).
inline constexpr std::uint64_t kRegionStreamSalt = 0x9e06;

std::string fault_class_name(FaultClass fault);

/// One timed fault episode: [start_s, end_s) with a class-specific severity.
struct FaultEpisode {
  FaultClass fault = FaultClass::kLinkOutage;
  double start_s = 0.0;
  double end_s = 0.0;
  /// kLinkOutage: throughput multiplier in (0, 1]; kRttSpike: added
  /// round-trip milliseconds; kEdgeSlowdown: edge service-time multiplier
  /// >= 1; kCloudOutage: ignored (the cloud is simply unreachable);
  /// kMachineFailure: fraction of the machine pool down in (0, 1];
  /// kRegionalBrownout: fraction of per-machine capacity lost in (0, 1]
  /// (1 = a full datacenter blackout); kBackhaulBrownout: fraction of the
  /// hop's throughput lost in (0, 1) — a full loss is a kBackhaulOutage,
  /// whose magnitude is ignored; kFogSiteFailure: fraction of the region's
  /// fog machines down in (0, 1].
  double magnitude = 0.0;
  /// Which network hop a kLinkOutage / kRttSpike / kBackhaulBrownout /
  /// kBackhaulOutage episode degrades (0 = the device radio, 1 = the first
  /// backhaul, ...; the backhaul classes require hop >= 1). Ignored by the
  /// other classes. K-tier topologies fade and spike each hop independently.
  std::size_t hop = 0;

  bool covers(double t_s) const { return t_s >= start_s && t_s < end_s; }
  double duration_s() const { return end_s - start_s; }
};

/// Renewal knobs for one hop past the device radio (hop h >= 1). Rates of 0
/// disable the class on that hop, mirroring the hop-0 fields of
/// FaultScheduleConfig.
struct HopFaultConfig {
  double outage_rate_hz = 0.0;
  double outage_mean_s = 20.0;
  double outage_depth = 0.05;  ///< throughput multiplier while faded

  double rtt_spike_rate_hz = 0.0;
  double rtt_spike_mean_s = 10.0;
  double rtt_spike_extra_ms = 200.0;
};

/// Seeded episode-generation knobs. Each class is an independent renewal
/// process: inter-episode gaps ~ Exp(rate), durations ~ Exp(mean); a rate
/// of 0 disables the class. `scripted` episodes are merged in verbatim —
/// the hook tests and demos use to place an exact outage window.
struct FaultScheduleConfig {
  unsigned seed = 1;
  /// Episode-generation horizon in seconds; 0 lets the consumer derive it
  /// (EdgeCloudSystem uses twice the arrival horizon so the drain phase is
  /// covered). FaultSchedule::generate requires a positive value.
  double horizon_s = 0.0;

  double link_outage_rate_hz = 0.0;  ///< episodes per second (e.g. 1/120)
  double link_outage_mean_s = 20.0;
  double link_outage_depth = 0.05;  ///< throughput multiplier while faded

  double cloud_outage_rate_hz = 0.0;
  double cloud_outage_mean_s = 30.0;

  double rtt_spike_rate_hz = 0.0;
  double rtt_spike_mean_s = 10.0;
  double rtt_spike_extra_ms = 200.0;

  double edge_slowdown_rate_hz = 0.0;
  double edge_slowdown_mean_s = 15.0;
  double edge_slowdown_factor = 3.0;  ///< edge service-time multiplier

  // Datacenter-side classes (finite cloud only). Fresh RNG substream salts
  // keep every pre-existing class's episode stream byte-identical whether
  // or not these are enabled.
  double machine_failure_rate_hz = 0.0;
  double machine_failure_mean_s = 60.0;
  double machine_failure_fraction = 0.25;  ///< pool fraction down in (0, 1]

  double brownout_rate_hz = 0.0;
  double brownout_mean_s = 45.0;
  double brownout_depth = 0.5;  ///< capacity fraction lost in (0, 1]

  // Regional classes (shared per failure domain; consumed by the fleet's
  // generate_for_region streams). Fresh salts again: enabling any of these
  // leaves every stream above byte-identical. Backhaul episodes land on hop
  // `backhaul_hop` (>= 1); fog-site failures are hop-free.
  double backhaul_brownout_rate_hz = 0.0;
  double backhaul_brownout_mean_s = 90.0;
  double backhaul_brownout_depth = 0.6;  ///< hop throughput fraction lost, (0, 1)

  double backhaul_outage_rate_hz = 0.0;
  double backhaul_outage_mean_s = 30.0;

  double fog_failure_rate_hz = 0.0;
  double fog_failure_mean_s = 120.0;
  double fog_failure_fraction = 0.5;  ///< fog machines down in (0, 1]

  std::size_t backhaul_hop = 1;  ///< hop the regional backhaul classes degrade

  /// Per-hop knobs for the hops past the radio: extra_hops[i] governs hop
  /// i + 1. Generated from RNG substreams disjoint from the hop-0 streams,
  /// so enabling a backhaul fault class never perturbs the hop-0 schedule.
  std::vector<HopFaultConfig> extra_hops;

  std::vector<FaultEpisode> scripted;

  bool any_enabled() const {
    if (link_outage_rate_hz > 0.0 || cloud_outage_rate_hz > 0.0 ||
        rtt_spike_rate_hz > 0.0 || edge_slowdown_rate_hz > 0.0 ||
        machine_failure_rate_hz > 0.0 || brownout_rate_hz > 0.0 ||
        backhaul_brownout_rate_hz > 0.0 || backhaul_outage_rate_hz > 0.0 ||
        fog_failure_rate_hz > 0.0 || !scripted.empty()) {
      return true;
    }
    for (const HopFaultConfig& hop : extra_hops) {
      if (hop.outage_rate_hz > 0.0 || hop.rtt_spike_rate_hz > 0.0) return true;
    }
    return false;
  }
};

/// An immutable, validated, start-time-sorted set of fault episodes.
class FaultSchedule {
 public:
  FaultSchedule() = default;
  /// Validates (finite non-negative times, end > start, magnitudes legal
  /// for their class) and sorts by start time; throws std::invalid_argument.
  explicit FaultSchedule(std::vector<FaultEpisode> episodes);

  /// Deterministic generation from `config` (plus its scripted episodes).
  /// Same seed => identical schedule, independent of which other classes
  /// are enabled; throws std::invalid_argument on bad knobs.
  static FaultSchedule generate(const FaultScheduleConfig& config);

  /// Per-device schedule of a simulated fleet: the device's episode streams
  /// are seeded from par::substream_seed(fleet_seed, device_id), so every
  /// device gets decorrelated episodes and the schedule depends only on
  /// (config, fleet_seed, device_id) — never on sharding or thread count.
  /// config.seed is ignored (the fleet seed replaces it); scripted episodes
  /// are still merged in verbatim on every device.
  static FaultSchedule generate_for_device(const FaultScheduleConfig& config,
                                           std::uint64_t fleet_seed,
                                           std::uint64_t device_id);

  /// Region-shared schedule of one failure domain: seeded from
  /// substream_seed(substream_seed(fleet_seed, kRegionStreamSalt),
  /// region_id), a root disjoint from every per-device substream (device
  /// streams mix the raw fleet seed with the device id; region streams mix a
  /// salted derivative), so regional classes can never collide with a
  /// device's streams. Every device of the region queries the SAME schedule
  /// — that is what makes a backhaul brownout a correlated event.
  static FaultSchedule generate_for_region(const FaultScheduleConfig& config,
                                           std::uint64_t fleet_seed,
                                           std::uint64_t region_id);

  const std::vector<FaultEpisode>& episodes() const { return episodes_; }
  std::size_t count(FaultClass fault) const;
  bool empty() const { return episodes_.empty(); }

 private:
  std::vector<FaultEpisode> episodes_;
};

/// Point-in-time query engine over a FaultSchedule. The constructor folds
/// the episodes of every (class, hop) into a piecewise-constant step table,
/// so every query is one binary search: O(log episodes), independent of how
/// far into the schedule `t_s` lies. Queries are const — safe to share
/// across readers.
class FaultInjector {
 public:
  FaultInjector() = default;  ///< empty schedule: always healthy
  explicit FaultInjector(FaultSchedule schedule);

  /// Throughput multiplier of hop `hop` at `t_s` (1.0 when healthy; the
  /// deepest overlapping fade wins when episodes overlap). Hop 0 is the
  /// device radio — the default keeps legacy two-tier call sites intact.
  double link_factor(double t_s, std::size_t hop = 0) const;
  bool cloud_unavailable(double t_s) const;
  /// Added round-trip milliseconds on hop `hop` at `t_s` (0 when healthy).
  double rtt_extra_ms(double t_s, std::size_t hop = 0) const;
  /// Edge service-time multiplier at `t_s` (>= 1.0; 1.0 when healthy).
  double edge_slowdown(double t_s) const;
  /// Fraction of the cloud machine pool down at `t_s` (0 when healthy; the
  /// deepest overlapping failure wins).
  double machine_failure_fraction(double t_s) const;
  /// Per-machine capacity multiplier at `t_s` in [0, 1] (1 when healthy;
  /// overlapping brownouts compound to the deepest one).
  double brownout_factor(double t_s) const;
  /// Backhaul throughput multiplier of hop `hop` at `t_s`: 1 when healthy,
  /// 1 - magnitude of the deepest overlapping kBackhaulBrownout otherwise.
  double backhaul_factor(double t_s, std::size_t hop) const;
  /// True while a kBackhaulOutage covers hop `hop` — the hop is unreachable.
  bool backhaul_unavailable(double t_s, std::size_t hop) const;
  /// Fraction of the region's fog machines down at `t_s` (deepest wins).
  double fog_failure_fraction(double t_s) const;
  /// Next time > t_s at which hop `hop`'s link factor may change (start or
  /// end of a link-outage episode); +infinity when none — the piecewise-
  /// constant boundary the link's transfer integration steps on.
  double next_link_boundary(double t_s, std::size_t hop = 0) const;
  /// Length of [0, horizon_s) covered by at least one episode of any class.
  double degraded_time(double horizon_s) const;

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  /// The answer of one (class, hop) as a step function of time. `edges` are
  /// the sorted, de-duplicated starts and ends of its episodes — every one
  /// of them, even where the value does not change, so the first edge past
  /// t is exactly the next episode boundary. values[i + 1] holds over
  /// [edges[i], edges[i + 1]); values[0] (before the first edge) and
  /// values.back() (from the last edge on) are the healthy value.
  struct StepTable {
    std::vector<double> edges;
    std::vector<double> values;

    /// Index into `values` of the segment containing t_s.
    std::size_t segment(double t_s) const;
  };

  /// The table of (fault, hop), or nullptr when no such episode exists.
  /// Hop-free classes keep one table under hop 0.
  const StepTable* table(FaultClass fault, std::size_t hop) const;
  double value(FaultClass fault, double t_s, std::size_t hop) const;

  FaultSchedule schedule_;
  /// Per class: (hop, table) pairs sorted by hop, one per hop that occurs.
  std::vector<std::pair<std::size_t, StepTable>> tables_[kNumFaultClasses];
};

}  // namespace lens::sim
