#include "fleet/fleet.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "cloud/scheduler.hpp"
#include "par/parallel.hpp"
#include "par/runtime.hpp"
#include "par/substream.hpp"
#include "runtime/deployer.hpp"

namespace lens::fleet {

namespace {

/// Shard sizing: coarse enough that per-chunk dispatch is negligible, fine
/// enough that thousands of chunks load-balance any realistic pool. Both
/// constants are part of the determinism contract — the chunk count (and so
/// every float-merge order) is a function of the device count alone.
constexpr std::size_t kDevicesPerChunk = 1024;
constexpr std::size_t kMaxChunks = 4096;

std::size_t latency_bin(double ms) {
  if (!(ms > kLatencyFloorMs)) return 0;
  const double b = std::log10(ms / kLatencyFloorMs) * kLatencyBinsPerDecade;
  const auto k = static_cast<std::size_t>(b);
  return k >= kLatencyBins ? kLatencyBins - 1 : k;
}

double latency_bin_center(std::size_t k) {
  return kLatencyFloorMs *
         std::pow(10.0, (static_cast<double>(k) + 0.5) / kLatencyBinsPerDecade);
}

double percentile_from_hist(const std::vector<std::uint64_t>& hist, std::uint64_t total,
                            double q) {
  if (total == 0) return 0.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < hist.size(); ++k) {
    cum += hist[k];
    if (cum >= rank) return latency_bin_center(k);
  }
  return latency_bin_center(hist.size() - 1);
}

/// Per-device fault episodes of one device chunk in CSR layout (flat arrays
/// plus offsets local to the chunk: device begin + k owns entries
/// [off[k], off[k + 1])), so the hot loop touches contiguous memory. Only
/// the classes the fleet loop applies are extracted: hop-0 link fades and
/// cloud outages.
struct FaultShard {
  std::vector<std::uint64_t> link_off, cloud_off;  // devices in chunk + 1
  std::vector<double> link_start, link_end, link_depth;
  std::vector<double> cloud_start, cloud_end;
};

/// One FaultShard per chunk (empty when no per-device fault is enabled).
/// Each device's schedule is a pure function of (config, seed, device id)
/// and the chunk count depends only on the device count, so shards generate
/// independently and the layout is thread-count-invariant.
std::vector<FaultShard> build_fault_shards(const FleetConfig& config, par::ThreadPool& pool,
                                           std::size_t chunks) {
  if (!config.faults.any_enabled()) return {};
  sim::FaultScheduleConfig fcfg = config.faults;
  if (fcfg.horizon_s <= 0.0) {
    fcfg.horizon_s = static_cast<double>(config.steps) * config.step_s;
  }
  std::vector<FaultShard> shards(chunks);
  par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(config.devices, chunks, c);
    FaultShard& shard = shards[c];
    shard.link_off.reserve(end - begin + 1);
    shard.cloud_off.reserve(end - begin + 1);
    shard.link_off.push_back(0);
    shard.cloud_off.push_back(0);
    for (std::size_t d = begin; d < end; ++d) {
      const sim::FaultSchedule schedule =
          sim::FaultSchedule::generate_for_device(fcfg, config.seed, d);
      for (const sim::FaultEpisode& e : schedule.episodes()) {
        if (e.fault == sim::FaultClass::kLinkOutage && e.hop == 0) {
          shard.link_start.push_back(e.start_s);
          shard.link_end.push_back(e.end_s);
          shard.link_depth.push_back(e.magnitude);
        } else if (e.fault == sim::FaultClass::kCloudOutage) {
          shard.cloud_start.push_back(e.start_s);
          shard.cloud_end.push_back(e.end_s);
        }
      }
      shard.link_off.push_back(shard.link_start.size());
      shard.cloud_off.push_back(shard.cloud_start.size());
    }
    // Drop the push_back growth slack: the shards live for the whole run.
    shard.link_start.shrink_to_fit();
    shard.link_end.shrink_to_fit();
    shard.link_depth.shrink_to_fit();
    shard.cloud_start.shrink_to_fit();
    shard.cloud_end.shrink_to_fit();
  });
  return shards;
}

/// Per-chunk accumulators of the offer pass (pass A): what the chunk's
/// devices want from the cloud this step, before admission control.
struct OfferAccum {
  std::uint64_t offered = 0;   // devices offering a suffix this step
  double job_ms_sum = 0.0;     // their summed suffix cost (layer-ms)
};

/// Device flags of the fog stage (dev_flags SoA array; fog runs only).
constexpr std::uint8_t kFlagFogOffered = 1;   // offered its fog suffix
constexpr std::uint8_t kFlagFogAdmitted = 2;  // fog pool admitted it
constexpr std::uint8_t kFlagFogShed = 4;      // fog shed it AND it degraded
constexpr std::uint8_t kFlagFogOpen = 8;      // fog breaker held it open

/// Per-(chunk, region) accumulators of the regional path (racc[c * R + r]),
/// merged serially in (region, chunk) order.
struct RegionAccum {
  std::uint64_t fog_offered = 0;
  double fog_job_ms = 0.0;
  std::uint64_t fog_admitted = 0;
  std::uint64_t fog_shed = 0;
  std::uint64_t cloud_admitted = 0;
  std::uint64_t cloud_shed = 0;
  std::uint64_t degraded = 0;      // served off the hysteresis selection
  std::uint64_t breaker_open = 0;  // fog + cloud breaker device-steps open
};

/// Run-long per-region totals (serial accumulation only).
struct RegionTotals {
  std::uint64_t fog_offered = 0;
  std::uint64_t fog_admitted = 0;
  std::uint64_t fog_shed = 0;
  std::uint64_t cloud_admitted = 0;
  std::uint64_t cloud_shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t breaker_open = 0;
  std::uint64_t backhaul_out_steps = 0;
  double fog_energy_j = 0.0;
  double fog_wait_weighted_ms = 0.0;
};

/// Per-chunk float/int accumulators of the accounting pass (pass B),
/// merged serially in chunk order.
struct ChunkAccum {
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  double offered_bits = 0.0;  // uplink bits per query, summed over devices
  double oracle_latency_ms = 0.0;
  double oracle_energy_mj = 0.0;
  std::uint64_t cloud_devices = 0;
  std::uint64_t switches = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t sla_violations = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_open_steps = 0;  // device-steps served open
};

/// Step-based circuit breaker of one device on one hop; the fleet keeps one
/// per device for the central cloud and one for its region's fog site.
/// `until` is 0 while closed, else the step at which it probes half-open.
bool breaker_open(std::uint32_t until, std::size_t s) {
  return until > 0 && s < static_cast<std::size_t>(until);
}

/// Feeds the outcome of one offer at step `s` through a breaker. An admit
/// (a half-open probe included) closes it. A shed extends the failure
/// streak; the breaker_failures-th consecutive shed, or a failed probe,
/// holds it open until s + 1 + breaker_open_steps plus a jitter of
/// 0..breaker_jitter_steps drawn from the device's priority hash `key`.
/// Returns true when a closed breaker trips open.
bool breaker_record(const FleetConfig& config, bool admitted, std::uint64_t key,
                    std::size_t s, std::uint32_t& streak, std::uint32_t& until) {
  if (admitted) {
    streak = 0;
    until = 0;
    return false;
  }
  const bool probing = until > 0;  // an open breaker only offers as a probe
  if (probing || ++streak >= config.breaker_failures) {
    const auto jitter = static_cast<std::size_t>(
        key % static_cast<std::uint64_t>(config.breaker_jitter_steps + 1));
    until = static_cast<std::uint32_t>(s + 1 + config.breaker_open_steps + jitter);
    if (!probing) {
      streak = 0;
      return true;
    }
  }
  return false;
}

/// The hop vector of a two-tier plan: one radio-axis entry, never read.
std::vector<double> radio_only_hops(const core::DeploymentPlan& plan) {
  if (plan.num_hops() > 1) {
    throw std::invalid_argument("FleetEngine: K-tier plan needs the per-hop ctor");
  }
  return {0.0};
}

/// Devices priced per price_batch_into call by the two-tier oracle.
constexpr std::size_t kOracleBlock = 256;

/// Per-device admission priority hashes substream_seed(root, device): a
/// fixed key per device, so shedding follows a stable deterministic order
/// (the same devices yield first every step, at any sharding or threads).
std::vector<std::uint64_t> priority_keys(par::ThreadPool& pool, std::size_t n,
                                         std::size_t chunks, std::uint64_t root) {
  std::vector<std::uint64_t> keys(n);
  par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n, chunks, c);
    for (std::size_t i = begin; i < end; ++i) keys[i] = par::substream_seed(root, i);
  });
  return keys;
}

/// Admission threshold on the top 32 bits of a device's priority hash:
/// a device offers successfully iff (key >> 32) < threshold. fraction 1
/// maps to 2^32, above every 32-bit value — everyone admitted.
std::uint64_t admit_threshold(double fraction) {
  if (fraction >= 1.0) return 1ull << 32;
  if (fraction <= 0.0) return 0;
  return static_cast<std::uint64_t>(fraction * 4294967296.0);
}

void append_row(std::string& out, const char* key, long long index, double value) {
  char buf[96];
  if (index < 0) {
    std::snprintf(buf, sizeof buf, "%s,,%.17g\n", key, value);
  } else {
    std::snprintf(buf, sizeof buf, "%s,%lld,%.17g\n", key, index, value);
  }
  out += buf;
}

void append_row(std::string& out, const char* key, long long index,
                std::uint64_t value) {
  char buf[96];
  if (index < 0) {
    std::snprintf(buf, sizeof buf, "%s,,%llu\n", key,
                  static_cast<unsigned long long>(value));
  } else {
    std::snprintf(buf, sizeof buf, "%s,%lld,%llu\n", key, index,
                  static_cast<unsigned long long>(value));
  }
  out += buf;
}

}  // namespace

std::string FleetStats::csv() const {
  std::string out = "key,index,value\n";
  append_row(out, "devices", -1, static_cast<std::uint64_t>(devices));
  append_row(out, "steps", -1, static_cast<std::uint64_t>(steps));
  append_row(out, "step_s", -1, step_s);
  append_row(out, "mean_latency_ms", -1, mean_latency_ms);
  append_row(out, "p50_latency_ms", -1, p50_latency_ms);
  append_row(out, "p99_latency_ms", -1, p99_latency_ms);
  append_row(out, "p999_latency_ms", -1, p999_latency_ms);
  append_row(out, "mean_energy_mj", -1, mean_energy_mj);
  append_row(out, "energy_mj_per_device_hour", -1, energy_mj_per_device_hour);
  append_row(out, "mean_cloud_qps", -1, mean_cloud_qps);
  append_row(out, "peak_cloud_qps", -1, peak_cloud_qps);
  append_row(out, "mean_offered_mbps", -1, mean_offered_mbps);
  append_row(out, "total_switches", -1, total_switches);
  append_row(out, "switches_per_device_hour", -1, switches_per_device_hour);
  append_row(out, "outage_readings", -1, outage_readings);
  append_row(out, "oracle_mean_latency_ms", -1, oracle_mean_latency_ms);
  append_row(out, "oracle_mean_energy_mj", -1, oracle_mean_energy_mj);
  append_row(out, "mean_offered_qps", -1, mean_offered_qps);
  append_row(out, "shed", -1, shed);
  append_row(out, "shed_rate", -1, shed_rate);
  append_row(out, "sla_violations", -1, sla_violations);
  append_row(out, "sla_violation_rate", -1, sla_violation_rate);
  append_row(out, "breaker_trips", -1, breaker_trips);
  append_row(out, "breaker_open_time_s", -1, breaker_open_time_s);
  append_row(out, "datacenter_energy_j", -1, datacenter_energy_j);
  append_row(out, "mean_queue_wait_ms", -1, mean_queue_wait_ms);
  append_row(out, "mean_machines_active", -1, mean_machines_active);
  append_row(out, "fog_shed", -1, fog_shed);
  append_row(out, "degraded_steps", -1, degraded_steps);
  append_row(out, "fog_energy_j", -1, fog_energy_j);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const auto idx = static_cast<long long>(r);
    append_row(out, "region_fog_offered_qps", idx, regions[r].fog_offered_qps);
    append_row(out, "region_fog_admitted_qps", idx, regions[r].fog_admitted_qps);
    append_row(out, "region_fog_shed_qps", idx, regions[r].fog_shed_qps);
    append_row(out, "region_cloud_offered_qps", idx, regions[r].cloud_offered_qps);
    append_row(out, "region_cloud_admitted_qps", idx, regions[r].cloud_admitted_qps);
    append_row(out, "region_cloud_shed_qps", idx, regions[r].cloud_shed_qps);
    append_row(out, "region_degraded_device_s", idx, regions[r].degraded_device_s);
    append_row(out, "region_breaker_open_s", idx, regions[r].breaker_open_s);
    append_row(out, "region_backhaul_out_s", idx, regions[r].backhaul_out_s);
    append_row(out, "region_fog_energy_j", idx, regions[r].fog_energy_j);
    append_row(out, "region_fog_queue_wait_ms", idx, regions[r].fog_queue_wait_ms);
  }
  for (std::size_t i = 0; i < cloud_qps.size(); ++i) {
    append_row(out, "cloud_qps", static_cast<long long>(i), cloud_qps[i]);
  }
  for (std::size_t i = 0; i < offered_qps.size(); ++i) {
    append_row(out, "offered_qps", static_cast<long long>(i), offered_qps[i]);
  }
  for (std::size_t i = 0; i < shed_qps.size(); ++i) {
    append_row(out, "shed_qps", static_cast<long long>(i), shed_qps[i]);
  }
  for (std::size_t i = 0; i < switch_histogram.size(); ++i) {
    append_row(out, "switch_hist", static_cast<long long>(i), switch_histogram[i]);
  }
  for (std::size_t i = 0; i < latency_histogram.size(); ++i) {
    append_row(out, "latency_hist", static_cast<long long>(i), latency_histogram[i]);
  }
  return out;
}

std::size_t FleetEngine::num_chunks(std::size_t devices) {
  const std::size_t chunks = devices / kDevicesPerChunk;
  return std::clamp<std::size_t>(chunks, 1, kMaxChunks);
}

void FleetEngine::validate() const {
  if (plan_.num_options() == 0) throw std::invalid_argument("FleetEngine: empty plan");
  if (config_.devices == 0) throw std::invalid_argument("FleetEngine: devices must be > 0");
  if (config_.steps == 0) throw std::invalid_argument("FleetEngine: steps must be > 0");
  if (config_.step_s <= 0.0) throw std::invalid_argument("FleetEngine: step_s must be > 0");
  if (config_.device_qps <= 0.0) {
    throw std::invalid_argument("FleetEngine: device_qps must be > 0");
  }
  if (config_.hysteresis_margin < 0.0) {
    throw std::invalid_argument("FleetEngine: negative hysteresis margin");
  }
  if (config_.tu_min <= 0.0 || config_.tu_max <= config_.tu_min) {
    throw std::invalid_argument("FleetEngine: need 0 < tu_min < tu_max");
  }
  if (config_.sla_ms < 0.0) {
    throw std::invalid_argument("FleetEngine: sla_ms must be >= 0");
  }
  // Building a pool throws on bad knobs.
  if (config_.cloud.has_value()) (void)cloud::MachinePool(*config_.cloud);
  if (config_.num_regions == 0) {
    throw std::invalid_argument("FleetEngine: num_regions must be >= 1");
  }
  if (config_.num_regions > kMaxRegions) {
    throw std::invalid_argument("FleetEngine: num_regions exceeds kMaxRegions");
  }
  const bool regional_knobs =
      config_.num_regions > 1 || !config_.region_map.empty() ||
      !config_.region_episodes.empty() || config_.fog.has_value() ||
      config_.region_faults.any_enabled();
  if (plan_.num_hops() == 1 && regional_knobs) {
    throw std::invalid_argument(
        "FleetEngine: regional failure domains need a K-tier plan "
        "(use the per-hop ctor with a 3+-tier plan)");
  }
  if (!config_.region_map.empty()) {
    if (config_.region_map.size() != config_.devices) {
      throw std::invalid_argument(
          "FleetEngine: region_map must have one entry per device");
    }
    for (std::uint32_t r : config_.region_map) {
      if (r >= config_.num_regions) {
        throw std::invalid_argument("FleetEngine: region_map entry out of range");
      }
    }
  }
  std::vector<sim::FaultEpisode> region_scripted;
  region_scripted.reserve(config_.region_episodes.size());
  for (const RegionEpisode& re : config_.region_episodes) {
    if (re.region >= config_.num_regions) {
      throw std::invalid_argument(
          "FleetEngine: region_episodes entry targets a region out of range");
    }
    region_scripted.push_back(re.episode);
  }
  // Building a schedule throws on a malformed scripted episode (bad times,
  // NaN or out-of-range magnitude), so a bad config fails here, not in run().
  (void)sim::FaultSchedule(std::move(region_scripted));
  (void)sim::FaultSchedule(config_.faults.scripted);
  (void)sim::FaultSchedule(config_.cloud_faults.scripted);
  (void)sim::FaultSchedule(config_.region_faults.scripted);
  if (config_.fog.has_value()) (void)cloud::MachinePool(*config_.fog);
}

FleetEngine::FleetEngine(const core::DeploymentPlan& plan, FleetConfig config)
    : FleetEngine(plan, radio_only_hops(plan), std::move(config)) {}

FleetEngine::FleetEngine(const core::DeploymentPlan& plan,
                         const std::vector<double>& hop_tu_mbps, FleetConfig config)
    : plan_(plan), config_(std::move(config)) {
  if (hop_tu_mbps.size() != plan_.num_hops()) {
    throw std::invalid_argument(
        "FleetEngine: hop_tu_mbps needs one entry per hop (radio first): plan has " +
        std::to_string(plan_.num_hops()) + " hop(s), got " +
        std::to_string(hop_tu_mbps.size()));
  }
  for (std::size_t h = 1; h < hop_tu_mbps.size(); ++h) {
    if (!(hop_tu_mbps[h] > 0.0) || !std::isfinite(hop_tu_mbps[h])) {
      throw std::invalid_argument(
          "FleetEngine: hop_tu_mbps entries past hop 0 (the backhauls) must be "
          "positive and finite");
    }
  }
  hop_tu_ = hop_tu_mbps;
  // At K=2 the collapse returns the plan's own curves exactly: there is no
  // other hop to pin.
  latency_curves_ = plan_.collapsed_latency_curves(0, hop_tu_mbps);
  energy_curves_ = plan_.collapsed_energy_curves(0, hop_tu_mbps);
  validate();
  const auto& sel = config_.metric == runtime::OptimizeFor::kLatency ? latency_curves_
                                                                     : energy_curves_;
  intervals_ = runtime::dominance_intervals(sel, config_.tu_min, config_.tu_max);
  if (const auto edge = runtime::cheapest_edge_only(plan_.options(), sel)) {
    fallback_option_ = static_cast<std::uint32_t>(*edge);
  }
  build_ladder_tables();
}

void FleetEngine::build_ladder_tables() {
  const std::vector<core::DeploymentOption>& options = plan_.options();
  const std::size_t num_hops = plan_.num_hops();
  const std::size_t num_layers = plan_.layer_latency_ms().size();
  const std::size_t m = options.size();
  fog_ms_.assign(m, 0.0);
  cloud_ms_.assign(m, 0.0);
  radio_coeff_ms_.assign(m, 0.0);
  crosses_.assign(m * num_hops, 0);
  occupies_cloud_.assign(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const core::DeploymentOption& o = options[i];
    // Option crosses hop h iff a tier past h is occupied: cuts[h] < n.
    for (std::size_t h = 0; h < num_hops; ++h) {
      crosses_[i * num_hops + h] = o.cuts[h] < num_layers ? 1 : 0;
    }
    occupies_cloud_[i] = crosses_[i * num_hops + (num_hops - 1)];
    cloud_ms_[i] = o.tier_latency_ms.back();
    for (std::size_t k = 1; k + 1 < o.tier_latency_ms.size(); ++k) {
      fog_ms_[i] += o.tier_latency_ms[k];
    }
    radio_coeff_ms_[i] = plan_.latency_surfaces()[i].per_inverse_tu[0];
  }
  radio_rtt_ms_ = plan_.hop(0).round_trip_ms();

  // Ladder targets under the selection metric at the staged trace mean —
  // the same reference throughput the boot option uses.
  const std::vector<comm::CostCurve>& sel =
      config_.metric == runtime::OptimizeFor::kLatency ? latency_curves_
                                                       : energy_curves_;
  const double ref_tu = config_.trace.mean_mbps > 0.0 ? config_.trace.mean_mbps : 1.0;
  ladder_within_.assign(num_hops, -1);
  for (std::size_t h = 0; h < num_hops; ++h) {
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (crosses_[i * num_hops + h]) continue;
      const double cost = sel[i].value(ref_tu);
      if (cost < best_cost) {
        best_cost = cost;
        ladder_within_[h] = static_cast<std::int32_t>(i);
      }
    }
  }
  double best_direct = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m; ++i) {
    if (!occupies_cloud_[i] || fog_ms_[i] != 0.0) continue;
    const double cost = sel[i].value(ref_tu);
    if (cost < best_direct) {
      best_direct = cost;
      cloud_direct_ = static_cast<std::int32_t>(i);
    }
  }
}

FleetStats FleetEngine::run() { return run(par::global_pool()); }

FleetStats FleetEngine::run(par::ThreadPool& pool) {
  const std::size_t n = config_.devices;
  const std::size_t steps = config_.steps;
  const std::size_t chunks = num_chunks(n);
  const std::size_t num_options = plan_.num_options();
  const comm::TraceGenerator gen(config_.trace);  // validates knobs; stateless use
  const runtime::TrackerParams tracker = config_.tracker;
  const std::vector<comm::CostCurve>& sel_curves =
      config_.metric == runtime::OptimizeFor::kLatency ? latency_curves_
                                                       : energy_curves_;
  const std::vector<core::DeploymentOption>& options = plan_.options();

  // --- SoA device state -----------------------------------------------
  std::vector<comm::FleetTraceState> states(n);
  std::vector<double> estimate(n, 0.0);
  std::vector<double> tu(n, 0.0);
  std::vector<double> eff(n, 0.0);
  std::vector<std::uint32_t> samples(n, 0);
  std::vector<std::uint32_t> outages(n, 0);
  std::vector<std::uint32_t> option(n, 0);
  std::vector<std::uint32_t> prev(n, 0);
  std::vector<std::uint32_t> switch_count(n, 0);
  // The tier-ladder resolution of the hysteresis selection: the option the
  // device actually serves this step, before cloud admission.
  std::vector<std::uint32_t> eff_opt(n, 0);

  // Every device boots on the option that wins at the configured trace
  // mean — the deployment a fleet operator would stage before telemetry.
  const auto init_option = static_cast<std::uint32_t>(
      runtime::select_option(intervals_, config_.trace.mean_mbps));
  std::fill(option.begin(), option.end(), init_option);

  // Per-device streams rooted at substream_seed(seed, device): trajectories
  // are a pure function of (config, device id), independent of sharding.
  par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n, chunks, c);
    for (std::size_t i = begin; i < end; ++i) {
      states[i] =
          gen.start_state(par::SplitMix64(par::substream_seed(config_.seed, i)));
    }
  });

  const std::vector<FaultShard> fault_shards = build_fault_shards(config_, pool, chunks);

  // --- finite-cloud state ----------------------------------------------
  const bool cloud_on = config_.cloud.has_value();
  std::optional<cloud::CloudScheduler> cloud_sched;
  if (cloud_on) cloud_sched.emplace(*config_.cloud);
  const bool breaker_on = cloud_on && config_.breaker_failures > 0 &&
                          fallback_option_.has_value();
  std::vector<std::uint64_t> admit_key;
  std::vector<std::uint32_t> fail_streak;
  std::vector<std::uint32_t> breaker_until;  // 0 = closed; else probe step
  if (cloud_on) {
    admit_key = priority_keys(pool, n, chunks, par::substream_seed(config_.seed, 0xc10d));
    if (breaker_on) {
      fail_streak.assign(n, 0);
      breaker_until.assign(n, 0);
    }
  }
  // Datacenter-level faults (machine failures, brownouts): one shared
  // schedule, queried serially per step.
  sim::FaultInjector dc_faults;
  if (cloud_on && config_.cloud_faults.any_enabled()) {
    sim::FaultScheduleConfig dc_cfg = config_.cloud_faults;
    if (dc_cfg.horizon_s <= 0.0) {
      dc_cfg.horizon_s = static_cast<double>(steps) * config_.step_s;
    }
    dc_faults = sim::FaultInjector(sim::FaultSchedule::generate(dc_cfg));
  }

  // --- regional failure domains -----------------------------------------
  // Every run flows through the regional machinery with R >= 1 (a two-tier
  // plan: R = 1, one hop, no fog). A healthy region prices on the EXACT
  // nominal collapsed curves (pointer, not copy), so a no-fault run is
  // bit-identical to the retired pinned-backhaul shortcut by construction.
  const std::size_t num_hops = plan_.num_hops();
  const std::size_t R = config_.num_regions;
  const bool fog_on = config_.fog.has_value();  // validate(): K-tier plans only
  std::optional<cloud::CloudScheduler> fog_sched;
  if (fog_on) fog_sched.emplace(*config_.fog);
  // The fog breaker needs a rung to fast-fail onto (cloud-direct or the
  // edge fallback), mirroring the cloud breaker's fallback requirement.
  const bool fog_breaker_on = fog_on && config_.breaker_failures > 0 &&
                              (fallback_option_.has_value() || cloud_direct_ >= 0);
  std::vector<std::uint32_t> region_of(n);
  std::vector<sim::FaultInjector> region_inj(R);
  std::vector<std::uint32_t> offered_opt;  // fog runs: the option offered to fog
  std::vector<std::uint8_t> dev_flags;     // fog runs: kFlagFog* bits
  std::vector<std::uint64_t> fog_key;
  std::vector<std::uint32_t> fog_streak, fog_until;
  par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
    const auto [begin, end] = par::chunk_range(n, chunks, c);
    for (std::size_t i = begin; i < end; ++i) {
      region_of[i] = config_.region_map.empty() ? static_cast<std::uint32_t>(i % R)
                                                : config_.region_map[i];
    }
  });
  if (config_.region_faults.any_enabled() || !config_.region_episodes.empty()) {
    sim::FaultScheduleConfig rcfg = config_.region_faults;
    if (rcfg.horizon_s <= 0.0) {
      rcfg.horizon_s = static_cast<double>(steps) * config_.step_s;
    }
    for (std::size_t r = 0; r < R; ++r) {
      sim::FaultScheduleConfig cfg_r = rcfg;
      for (const RegionEpisode& re : config_.region_episodes) {
        if (re.region == static_cast<std::uint32_t>(r)) {
          cfg_r.scripted.push_back(re.episode);
        }
      }
      region_inj[r] = sim::FaultInjector(
          sim::FaultSchedule::generate_for_region(cfg_r, config_.seed, r));
    }
  }
  if (fog_on) {
    offered_opt.assign(n, 0);
    dev_flags.assign(n, 0);
    // Fog admission priority: a hash stream disjoint from the cloud's
    // admit keys, so fog and cloud never shed the same unlucky devices.
    fog_key = priority_keys(pool, n, chunks, par::substream_seed(config_.seed, 0xf09));
    if (fog_breaker_on) {
      fog_streak.assign(n, 0);
      fog_until.assign(n, 0);
    }
  }
  // Per-step regional backhaul state and repriced latency curves. Energy
  // surfaces never carry a backhaul coefficient (transfers past the radio
  // are not billed to the battery), so energy always prices on the base
  // curves; latency re-collapses only in regions with an active brownout.
  std::vector<std::uint8_t> hop_out(R * num_hops, 0);
  std::vector<std::uint8_t> region_any_out(R, 0);
  std::vector<std::vector<comm::CostCurve>> region_lat_scratch(R);
  std::vector<const std::vector<comm::CostCurve>*> region_lat(R, &latency_curves_);
  std::vector<double> pin = hop_tu_;  // reused per-region collapse pin vector
  std::vector<double> region_fog_fail(R, 0.0);
  std::vector<cloud::StepOutcome> fog_out(R);
  std::vector<std::uint64_t> fog_threshold(R, admit_threshold(1.0));
  std::vector<RegionTotals> rtot(R);

  // --- per-chunk accumulators (serial chunk-order merge) ---------------
  std::vector<ChunkAccum> acc(chunks);
  std::vector<OfferAccum> offers(chunks);
  std::vector<std::uint64_t> hist(chunks * kLatencyBins, 0);
  std::vector<RegionAccum> racc(chunks * R);

  // Central-cloud offers of devices [begin, end): every device whose
  // resolved option occupies the last tier, except those its cloud breaker
  // holds open. Runs once the option is final: at the end of pass A, or of
  // pass A2 when fog sheds may still move devices down the ladder.
  const auto count_cloud_offers = [&](std::size_t begin, std::size_t end,
                                      std::size_t s, OfferAccum& oa) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t o = eff_opt[i];
      if (!occupies_cloud_[o]) continue;
      if (breaker_on && breaker_open(breaker_until[i], s)) continue;
      ++oa.offered;
      oa.job_ms_sum += cloud_ms_[o];
    }
  };

  FleetStats stats;
  stats.devices = n;
  stats.steps = steps;
  stats.step_s = config_.step_s;
  stats.cloud_qps.reserve(steps);
  stats.offered_qps.reserve(steps);
  stats.shed_qps.reserve(steps);
  std::vector<std::uint64_t> lat_hist(kLatencyBins, 0);
  double total_latency = 0.0, total_energy = 0.0, total_offered_bits = 0.0;
  double total_oracle_latency = 0.0, total_oracle_energy = 0.0;
  double dc_energy_j = 0.0, wait_weighted_ms = 0.0, machines_active_sum = 0.0;
  std::uint64_t total_offered_devsteps = 0, total_admitted = 0;
  std::uint64_t breaker_open_devsteps = 0;

  for (std::size_t s = 0; s < steps; ++s) {
    const double t = static_cast<double>(s) * config_.step_s;
    std::fill(acc.begin(), acc.end(), ChunkAccum{});
    std::fill(offers.begin(), offers.end(), OfferAccum{});
    std::fill(hist.begin(), hist.end(), 0);

    // ---- serial regional state: backhaul health + repriced curves -------
    for (std::size_t r = 0; r < R; ++r) {
      const sim::FaultInjector& inj = region_inj[r];
      bool any_out = false;
      bool any_slow = false;
      for (std::size_t h = 1; h < num_hops; ++h) {
        const bool out = inj.backhaul_unavailable(t, h);
        hop_out[r * num_hops + h] = out ? 1 : 0;
        any_out |= out;
        const double factor = inj.backhaul_factor(t, h);
        pin[h] = hop_tu_[h] * factor;
        if (factor != 1.0) any_slow = true;
      }
      region_any_out[r] = any_out ? 1 : 0;
      if (any_out) ++rtot[r].backhaul_out_steps;
      if (any_slow) {
        plan_.collapse_latency_curves_into(0, pin, region_lat_scratch[r]);
        region_lat[r] = &region_lat_scratch[r];
      } else {
        region_lat[r] = &latency_curves_;  // nominal: the exact ctor curves
      }
      region_fog_fail[r] = inj.fog_failure_fraction(t);
    }

    // ---- pass A: trace, faults, tracking, selection, offer counting ----
    par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
      const auto [begin, end] = par::chunk_range(n, chunks, c);
      const std::size_t len = end - begin;

      // 1. Trace step: one AR(1) advance per device.
      gen.step_batch(&states[begin], len, &tu[begin]);

      // 2. Fault overlay: link fades scale the reading; a cloud outage
      //    turns it into an outage reading (tu = 0) — an unreachable cloud
      //    is indistinguishable from a dead link at the device.
      if (!fault_shards.empty()) {
        const FaultShard& f = fault_shards[c];
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t k = i - begin;
          double factor = 1.0;
          for (std::uint64_t j = f.link_off[k]; j < f.link_off[k + 1]; ++j) {
            if (t >= f.link_start[j] && t < f.link_end[j]) {
              factor = std::min(factor, f.link_depth[j]);
            }
          }
          tu[i] *= factor;
          for (std::uint64_t j = f.cloud_off[k]; j < f.cloud_off[k + 1]; ++j) {
            if (t >= f.cloud_start[j] && t < f.cloud_end[j]) {
              tu[i] = 0.0;
              break;
            }
          }
        }
      }

      // 3. Tracker update (EWMA fold / outage decay) over the shard.
      runtime::tracker_update_batch(
          tracker, std::span<double>(estimate.data() + begin, len),
          std::span<std::uint32_t>(samples.data() + begin, len),
          std::span<std::uint32_t>(outages.data() + begin, len),
          std::span<const double>(tu.data() + begin, len));

      // 4. Hysteresis re-select on the tracked estimate (0 until the first
      //    successful sample, which select_batch clamps to the analyzed
      //    floor — the pessimistic-floor fallback of the runtime stack).
      std::copy(option.begin() + static_cast<std::ptrdiff_t>(begin),
                option.begin() + static_cast<std::ptrdiff_t>(end),
                prev.begin() + static_cast<std::ptrdiff_t>(begin));
      runtime::select_batch(intervals_, sel_curves, config_.tu_min,
                            config_.hysteresis_margin,
                            std::span<const double>(estimate.data() + begin, len),
                            std::span<std::uint32_t>(option.data() + begin, len));

      // 5. Tier ladder, stage 1: backhaul-outage clamp (walk down to the
      //    deepest tier the region can still reach), fog breaker fast-fail,
      //    and fog offer counting per (chunk, region). Nothing here fires
      //    at K=2: there is no backhaul hop and no fog tier.
      RegionAccum* ra = racc.data() + c * R;
      for (std::size_t r = 0; r < R; ++r) ra[r] = RegionAccum{};
      for (std::size_t i = begin; i < end; ++i) {
        std::uint32_t o = option[i];
        const std::uint32_t r = region_of[i];
        if (region_any_out[r]) {
          for (std::size_t hh = 1; hh < num_hops; ++hh) {
            if (!hop_out[r * num_hops + hh] || !crosses_[o * num_hops + hh]) {
              continue;
            }
            // The shallowest dead hop decides: confine to tiers 0..hh
            // (when the plan has such an option at all).
            if (ladder_within_[hh] >= 0) {
              o = static_cast<std::uint32_t>(ladder_within_[hh]);
            }
            break;
          }
        }
        if (fog_on) {
          offered_opt[i] = o;
          std::uint8_t fl = 0;
          if (fog_ms_[o] > 0.0) {
            if (fog_breaker_on && breaker_open(fog_until[i], s)) {
              // Fog breaker open: skip the probe entirely and serve the
              // next rung — cloud-direct when the plan has one and every
              // backhaul hop is alive, else the edge fallback.
              if (cloud_direct_ >= 0 && !region_any_out[r]) {
                o = static_cast<std::uint32_t>(cloud_direct_);
              } else if (fallback_option_.has_value()) {
                o = *fallback_option_;
              }
              fl |= kFlagFogOpen;
            } else {
              fl |= kFlagFogOffered;
              ++ra[r].fog_offered;
              ra[r].fog_job_ms += fog_ms_[o];
            }
          }
          dev_flags[i] = fl;
        }
        eff_opt[i] = o;
      }
      // Without a fog stage the central-cloud offers are final here; with
      // one they wait for pass A2 (fog sheds retry cloud-direct).
      if (cloud_on && !fog_on) count_cloud_offers(begin, end, s, offers[c]);
    });

    // ---- serial fog stage: one place_step per region, then pass A2 ------
    // Admission fractions must come out of ONE serial call per region so
    // the admitted/shed split never depends on sharding; the parallel A2
    // pass then resolves each device against its region's threshold and
    // finalizes the central-cloud offers (fog sheds retry down-ladder, the
    // breaker bounding how many keep retrying).
    if (fog_on) {
      for (std::size_t r = 0; r < R; ++r) {
        std::uint64_t fog_offered_devices = 0;
        double fog_job_ms_sum = 0.0;
        for (std::size_t c = 0; c < chunks; ++c) {  // serial chunk order
          fog_offered_devices += racc[c * R + r].fog_offered;
          fog_job_ms_sum += racc[c * R + r].fog_job_ms;
        }
        const double fog_offered_qps =
            static_cast<double>(fog_offered_devices) * config_.device_qps;
        const double fog_job_ms =
            fog_offered_devices > 0
                ? fog_job_ms_sum / static_cast<double>(fog_offered_devices)
                : 0.0;
        fog_out[r] = fog_sched->place_step(fog_offered_qps, fog_job_ms,
                                           region_fog_fail[r], 1.0);
        fog_threshold[r] = admit_threshold(fog_out[r].admit_fraction);
        rtot[r].fog_energy_j += fog_out[r].power_w * config_.step_s;
      }
      par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
        const auto [begin, end] = par::chunk_range(n, chunks, c);
        RegionAccum* ra = racc.data() + c * R;
        for (std::size_t i = begin; i < end; ++i) {
          std::uint8_t fl = dev_flags[i];
          if (!(fl & kFlagFogOffered)) continue;
          const std::uint32_t r = region_of[i];
          const bool admitted = (fog_key[i] >> 32) < fog_threshold[r];
          if (admitted) {
            fl |= kFlagFogAdmitted;
            ++ra[r].fog_admitted;
          } else {
            ++ra[r].fog_shed;
            // Shed by the fog site: retry down the ladder. The aborted
            // radio leg is billed in pass B off offered_opt.
            std::uint32_t down = eff_opt[i];
            if (cloud_direct_ >= 0 && !region_any_out[r]) {
              down = static_cast<std::uint32_t>(cloud_direct_);
            } else if (fallback_option_.has_value()) {
              down = *fallback_option_;
            }
            if (down != eff_opt[i]) {
              eff_opt[i] = down;
              fl |= kFlagFogShed;
            }
          }
          if (fog_breaker_on && breaker_record(config_, admitted, fog_key[i], s,
                                               fog_streak[i], fog_until[i])) {
            ++acc[c].breaker_trips;
          }
          dev_flags[i] = fl;
        }
        if (cloud_on) count_cloud_offers(begin, end, s, offers[c]);
      });
    }

    // ---- serial scheduler step: admission fraction for the whole fleet --
    // One place_step call per step, outside the parallel section, so the
    // admitted/shed split and the queueing feedback are identical at any
    // thread count.
    cloud::StepOutcome outcome;
    std::uint64_t threshold = admit_threshold(1.0);
    if (cloud_on) {
      std::uint64_t offered_devices = 0;
      double job_ms_sum = 0.0;
      for (std::size_t c = 0; c < chunks; ++c) {  // serial chunk-order merge
        offered_devices += offers[c].offered;
        job_ms_sum += offers[c].job_ms_sum;
      }
      const double offered_qps_step =
          static_cast<double>(offered_devices) * config_.device_qps;
      const double job_ms =
          offered_devices > 0 ? job_ms_sum / static_cast<double>(offered_devices)
                              : 0.0;
      outcome = cloud_sched->place_step(offered_qps_step, job_ms,
                                        dc_faults.machine_failure_fraction(t),
                                        dc_faults.brownout_factor(t));
      threshold = admit_threshold(outcome.admit_fraction);
    }

    // ---- pass B: admission, breaker ladder, pricing, accounting --------
    // Price eff_opt (the tier-ladder resolution of the hysteresis selection)
    // on the REGION's realized curves at the actual throughput (outage
    // clamped to the floor), then run the central-cloud admission/breaker
    // stage.
    par::parallel_for_chunked(pool, chunks, chunks, [&](std::size_t c) {
      const auto [begin, end] = par::chunk_range(n, chunks, c);
      for (std::size_t i = begin; i < end; ++i) {
        eff[i] = tu[i] > 0.0 ? tu[i] : config_.tu_min;
      }

      ChunkAccum& a = acc[c];
      std::uint64_t* h = hist.data() + c * kLatencyBins;
      RegionAccum* ra = racc.data() + c * R;
      for (std::size_t i = begin; i < end; ++i) {
        if (option[i] != prev[i]) {
          ++a.switches;
          ++switch_count[i];
        }
        const std::uint8_t fl = fog_on ? dev_flags[i] : 0;
        std::uint32_t o = eff_opt[i];
        const std::uint32_t r = region_of[i];
        const std::vector<comm::CostCurve>& latc = *region_lat[r];
        double lat = latc[o].value(eff[i]);
        double energy = energy_curves_[o].value(eff[i]);
        if (fl & kFlagFogAdmitted) lat += fog_out[r].mean_wait_ms;
        if (options[o].tx_bytes > 0) {
          ++a.cloud_devices;
          a.offered_bits += static_cast<double>(options[o].tx_bytes) * 8.0;
        }
        if (cloud_on && occupies_cloud_[o]) {
          if (breaker_on && breaker_open(breaker_until[i], s)) {
            // Breaker open: fast-fail straight to the edge fallback — no
            // transmit, no offer, no reject round trip.
            const std::uint32_t fb = *fallback_option_;
            lat = latc[fb].value(eff[i]);
            energy = energy_curves_[fb].value(eff[i]);
            o = fb;
            ++a.breaker_open_steps;
            ++ra[r].breaker_open;
          } else {
            const bool admitted = (admit_key[i] >> 32) < threshold;
            if (admitted) {
              lat += outcome.mean_wait_ms;  // queueing feedback into RTT
              ++a.admitted;
              ++ra[r].cloud_admitted;
            } else {
              ++a.shed;
              ++ra[r].cloud_shed;
              // Shed at the cloud door: everything up to the last tier ran
              // (the curve's transfer and RTT terms), minus the unserved
              // cloud suffix, plus the edge re-execution.
              if (fallback_option_.has_value()) {
                const std::uint32_t fb = *fallback_option_;
                lat += latc[fb].value(eff[i]) - cloud_ms_[o];
                energy += energy_curves_[fb].value(eff[i]);
                o = fb;
              }
            }
            if (breaker_on && breaker_record(config_, admitted, admit_key[i], s,
                                             fail_streak[i], breaker_until[i])) {
              ++a.breaker_trips;
            }
          }
        }
        if (fl & kFlagFogShed) {
          // The aborted fog attempt's radio leg: edge prefix, hop-0
          // transfer at the realized radio rate, and the reject's
          // handshake round trip.
          const std::uint32_t po = offered_opt[i];
          lat += options[po].edge_latency_ms + radio_coeff_ms_[po] / eff[i] +
                 radio_rtt_ms_;
          energy += energy_curves_[po].value(eff[i]);
        }
        if (fl & kFlagFogOpen) {
          ++a.breaker_open_steps;
          ++ra[r].breaker_open;
        }
        if (o != option[i]) ++ra[r].degraded;
        a.latency_ms += lat;
        a.energy_mj += energy;
        ++h[latency_bin(lat)];
        if (config_.sla_ms > 0.0 && lat > config_.sla_ms) ++a.sla_violations;
      }

      // Oracle: per-device objective minima over the full option set at
      // the realized throughput. At K=2 price_batch_into keeps the two-tier
      // report's bits (its `edge + (tx + rtt) + cloud` sum differs in the
      // last ulp from a curve value); K-tier plans take the minimum over
      // the region's realized curves, ascending strict-<.
      if (num_hops == 1) {
        std::array<core::PricedObjectives, kOracleBlock> priced;
        for (std::size_t b = begin; b < end; b += kOracleBlock) {
          const std::size_t len = std::min(kOracleBlock, end - b);
          plan_.price_batch_into(std::span<const double>(eff.data() + b, len),
                                 std::span<core::PricedObjectives>(priced.data(), len));
          for (std::size_t k = 0; k < len; ++k) {
            a.oracle_latency_ms += priced[k].best_latency_ms;
            a.oracle_energy_mj += priced[k].best_energy_mj;
          }
        }
      } else {
        for (std::size_t i = begin; i < end; ++i) {
          const std::vector<comm::CostCurve>& latc = *region_lat[region_of[i]];
          double best_lat = latc[0].value(eff[i]);
          double best_energy = energy_curves_[0].value(eff[i]);
          for (std::size_t k = 1; k < num_options; ++k) {
            const double l = latc[k].value(eff[i]);
            const double e = energy_curves_[k].value(eff[i]);
            if (l < best_lat) best_lat = l;
            if (e < best_energy) best_energy = e;
          }
          a.oracle_latency_ms += best_lat;
          a.oracle_energy_mj += best_energy;
        }
      }
    });

    // Serial merge in chunk-index order: the only float accumulation whose
    // order could depend on scheduling, pinned here for any thread count.
    double step_offered_bits = 0.0;
    std::uint64_t step_cloud = 0, step_admitted = 0, step_shed = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      total_latency += acc[c].latency_ms;
      total_energy += acc[c].energy_mj;
      total_oracle_latency += acc[c].oracle_latency_ms;
      total_oracle_energy += acc[c].oracle_energy_mj;
      step_offered_bits += acc[c].offered_bits;
      step_cloud += acc[c].cloud_devices;
      step_admitted += acc[c].admitted;
      step_shed += acc[c].shed;
      stats.total_switches += acc[c].switches;
      stats.shed += acc[c].shed;
      stats.sla_violations += acc[c].sla_violations;
      stats.breaker_trips += acc[c].breaker_trips;
      breaker_open_devsteps += acc[c].breaker_open_steps;
      for (std::size_t k = 0; k < kLatencyBins; ++k) {
        lat_hist[k] += hist[c * kLatencyBins + k];
      }
    }
    // Per-region merge, serially in (region, chunk) order. The fog wait
    // weighting needs this step's per-region admits, so it lives here.
    for (std::size_t r = 0; r < R; ++r) {
      std::uint64_t step_fog_admitted = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const RegionAccum& x = racc[c * R + r];
        rtot[r].fog_offered += x.fog_offered;
        step_fog_admitted += x.fog_admitted;
        rtot[r].fog_shed += x.fog_shed;
        rtot[r].cloud_admitted += x.cloud_admitted;
        rtot[r].cloud_shed += x.cloud_shed;
        rtot[r].degraded += x.degraded;
        rtot[r].breaker_open += x.breaker_open;
      }
      rtot[r].fog_admitted += step_fog_admitted;
      if (fog_on) {
        rtot[r].fog_wait_weighted_ms +=
            fog_out[r].mean_wait_ms * static_cast<double>(step_fog_admitted);
      }
    }
    total_offered_bits += step_offered_bits;
    if (cloud_on) {
      const std::uint64_t step_offered = step_admitted + step_shed;
      total_offered_devsteps += step_offered;
      total_admitted += step_admitted;
      stats.cloud_qps.push_back(static_cast<double>(step_admitted) *
                                config_.device_qps);
      stats.offered_qps.push_back(static_cast<double>(step_offered) *
                                  config_.device_qps);
      stats.shed_qps.push_back(static_cast<double>(step_shed) * config_.device_qps);
      dc_energy_j += outcome.power_w * config_.step_s;
      wait_weighted_ms += outcome.mean_wait_ms * static_cast<double>(step_admitted);
      machines_active_sum += static_cast<double>(outcome.machines_active);
    } else {
      const double qps = static_cast<double>(step_cloud) * config_.device_qps;
      total_offered_devsteps += step_cloud;
      total_admitted += step_cloud;
      stats.cloud_qps.push_back(qps);
      stats.offered_qps.push_back(qps);
      stats.shed_qps.push_back(0.0);
    }
  }

  // --- report -----------------------------------------------------------
  const double device_steps = static_cast<double>(n) * static_cast<double>(steps);
  const double device_hours =
      device_steps * config_.step_s / 3600.0;  // each step is step_s of wall time
  stats.mean_latency_ms = total_latency / device_steps;
  stats.mean_energy_mj = total_energy / device_steps;
  // Every device-step serves device_qps * step_s inferences at its priced
  // per-inference energy.
  stats.energy_mj_per_device_hour =
      total_energy * config_.device_qps * config_.step_s / device_hours;
  stats.oracle_mean_latency_ms = total_oracle_latency / device_steps;
  stats.oracle_mean_energy_mj = total_oracle_energy / device_steps;
  stats.mean_offered_mbps =
      total_offered_bits * config_.device_qps / 1e6 / static_cast<double>(steps);
  double qps_sum = 0.0;
  for (double q : stats.cloud_qps) {
    qps_sum += q;
    stats.peak_cloud_qps = std::max(stats.peak_cloud_qps, q);
  }
  stats.mean_cloud_qps = qps_sum / static_cast<double>(steps);
  double offered_sum = 0.0;
  for (double q : stats.offered_qps) offered_sum += q;
  stats.mean_offered_qps = offered_sum / static_cast<double>(steps);
  if (total_offered_devsteps > 0) {
    stats.shed_rate = static_cast<double>(stats.shed) /
                      static_cast<double>(total_offered_devsteps);
  }
  stats.sla_violation_rate =
      static_cast<double>(stats.sla_violations) / device_steps;
  stats.breaker_open_time_s =
      static_cast<double>(breaker_open_devsteps) * config_.step_s;
  stats.datacenter_energy_j = dc_energy_j;
  if (total_admitted > 0) {
    stats.mean_queue_wait_ms =
        wait_weighted_ms / static_cast<double>(total_admitted);
  }
  if (cloud_on) {
    stats.mean_machines_active = machines_active_sum / static_cast<double>(steps);
  }
  stats.switches_per_device_hour =
      static_cast<double>(stats.total_switches) / device_hours;
  for (std::uint32_t o : outages) stats.outage_readings += o;
  stats.latency_histogram = lat_hist;
  const std::uint64_t total_obs = static_cast<std::uint64_t>(n) * steps;
  stats.p50_latency_ms = percentile_from_hist(lat_hist, total_obs, 0.50);
  stats.p99_latency_ms = percentile_from_hist(lat_hist, total_obs, 0.99);
  stats.p999_latency_ms = percentile_from_hist(lat_hist, total_obs, 0.999);
  stats.switch_histogram.assign(kSwitchBins, 0);
  for (std::uint32_t sc : switch_count) {
    const std::size_t bin = std::min<std::size_t>(sc, kSwitchBins - 1);
    ++stats.switch_histogram[bin];
  }
  // Two-tier plans report no regions, and so no regional or fog totals:
  // their single implicit region would only repeat the fleet-wide columns.
  if (num_hops > 1) {
    const double steps_d = static_cast<double>(steps);
    const auto mean_qps = [&](std::uint64_t device_steps_run) {
      return static_cast<double>(device_steps_run) * config_.device_qps / steps_d;
    };
    const auto seconds = [&](std::uint64_t steps_run) {
      return static_cast<double>(steps_run) * config_.step_s;
    };
    stats.regions.resize(R);
    for (std::size_t r = 0; r < R; ++r) {
      FleetStats::RegionStats& rs = stats.regions[r];
      const RegionTotals& rt = rtot[r];
      rs.fog_offered_qps = mean_qps(rt.fog_offered);
      rs.fog_admitted_qps = mean_qps(rt.fog_admitted);
      rs.fog_shed_qps = mean_qps(rt.fog_shed);
      rs.cloud_offered_qps = mean_qps(rt.cloud_admitted + rt.cloud_shed);
      rs.cloud_admitted_qps = mean_qps(rt.cloud_admitted);
      rs.cloud_shed_qps = mean_qps(rt.cloud_shed);
      rs.degraded_device_s = seconds(rt.degraded);
      rs.breaker_open_s = seconds(rt.breaker_open);
      rs.backhaul_out_s = seconds(rt.backhaul_out_steps);
      rs.fog_energy_j = rt.fog_energy_j;
      if (rt.fog_admitted > 0) {
        rs.fog_queue_wait_ms =
            rt.fog_wait_weighted_ms / static_cast<double>(rt.fog_admitted);
      }
      stats.fog_shed += rt.fog_shed;
      stats.degraded_steps += rt.degraded;
      stats.fog_energy_j += rt.fog_energy_j;
    }
  }
  return stats;
}

}  // namespace lens::fleet
