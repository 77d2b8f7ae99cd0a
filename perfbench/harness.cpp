// Benchmark harness: runs one workload through the public entry points the
// CLI uses (core::NasDriver::run, fleet::FleetEngine::run, sim::
// EdgeCloudSystem::run), checks its output, and prints one JSON line.
//
//   lens_perfbench --workload NAME --seed N [--phase time|trace|setup] [--deep-check]
//
// Every run is single-threaded (par::set_max_threads(1)). The deterministic
// setup path is repeated and its fastest repeat reported; the timed call runs
// once per process (address layout moves timings by several percent, so
// repeats belong in fresh processes, which run.py launches). --phase trace
// adds the per-layer replays; --phase setup stops after the set-up repeats;
// --deep-check repeats the workload at kCheckThreads threads and requires a
// byte-identical result.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/machine.hpp"
#include "cloud/scheduler.hpp"
#include "comm/commcost.hpp"
#include "comm/trace.hpp"
#include "core/accuracy.hpp"
#include "core/evaluator.hpp"
#include "core/nas.hpp"
#include "core/plan.hpp"
#include "core/search_space.hpp"
#include "core/topology.hpp"
#include "dnn/presets.hpp"
#include "fleet/fleet.hpp"
#include "opt/gp.hpp"
#include "opt/hypervolume.hpp"
#include "opt/pareto.hpp"
#include "par/parallel.hpp"
#include "par/runtime.hpp"
#include "par/substream.hpp"
#include "perf/device.hpp"
#include "perf/predictor.hpp"
#include "runtime/deployer.hpp"
#include "runtime/threshold.hpp"
#include "runtime/tracker.hpp"
#include "sim/fault.hpp"
#include "sim/system.hpp"

namespace {

namespace core = lens::core;
namespace fleet = lens::fleet;
namespace sim = lens::sim;

using Clock = std::chrono::steady_clock;

constexpr std::size_t kCheckThreads = 4;
// Setup is repeated at least kMinSetupReps times and for at least
// kMinSetupSeconds (capped at kMaxSetupReps); the fastest repeat is reported,
// since other tenants of a shared host only ever slow a repeat down.
constexpr std::size_t kMinSetupReps = 15;
constexpr std::size_t kMaxSetupReps = 400;
constexpr double kMinSetupSeconds = 0.3;
// Fleet kernels are replayed over this many steps of the full population.
constexpr std::size_t kReplaySteps = 4;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Value of a "Vm...: N kB" line of /proc/self/status, in MiB. The peak
/// (VmHWM) belongs to this process image alone; getrusage's ru_maxrss also
/// carries the pre-exec high-water mark of a forked parent.
double proc_status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) return std::stod(line.substr(key.size() + 1)) / 1024.0;
  }
  throw std::runtime_error("/proc/self/status has no " + key);
}

double peak_rss_mb() { return proc_status_mb("VmHWM"); }
double resident_mb() { return proc_status_mb("VmRSS"); }

/// Seconds the hypervisor held back from this machine's CPUs (the steal
/// column of /proc/stat, all CPUs), so a diagnostic can show host contention.
double steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// FNV-1a over raw bytes: digests an output so runs can be compared exactly.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(const std::string& s) { bytes(s.data(), s.size()); }
};

/// Fixed CPU kernel timed beside every run so host drift can be told apart
/// from a program change (diagnostic only; never a compared metric).
double calibration_ms() {
  std::vector<double> times;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    double acc = 0.0;
    for (int i = 0; i < 4000000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      acc = acc * 0.999999 + static_cast<double>(x >> 11) * 1e-16;
    }
    sink = sink + acc;
    times.push_back(since(start) * 1e3);
  }
  return median(times);
}

/// Every per-layer metric the traced run emits, in output order. Each
/// workload's trace() writes all of them but trace.work_per_s, which main()
/// adds; a layer the workload never calls is written as 0 by not_called().
const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "opt.self_s", "opt.gp_fit_ms", "opt.gp_predict_us", "opt.hypervolume_ms",
      "core.accuracy_calls", "core.accuracy_ms", "perf.predict_calls", "perf.predict_ms",
      "core.cache_hit_frac", "core.compile_ms", "core.price_ns", "core.collapse_us",
      "core.collapse_calls", "sim.fault_build_ns", "sim.fault_episodes",
      "sim.fault_query_ns.first_hour", "sim.fault_query_ns.last_hour", "sim.self_s",
      "sim.retries", "sim.fallback_frac", "comm.trace_step_ns", "runtime.tracker_ns",
      "runtime.select_ns", "cloud.place_step_us", "cloud.place_step_calls",
      "cloud.admit_ns", "fleet.self_ns", "fleet.bytes_per_device", "fleet.degraded_frac",
      "fog.shed_frac", "share.opt", "share.core", "share.perf", "share.sim.fault_build",
      "share.sim.fault_query", "share.sim.events", "share.comm", "share.runtime",
      "share.cloud", "share.fleet", "trace.work_per_s"};
  return names;
}

using Layers = std::map<std::string, double>;
using Failures = std::vector<std::string>;

/// One benchmark workload. The constructor is the setup the harness times;
/// run() is the timed call.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void run() = 0;
  /// Units of work the timed call completed (see README.md per workload).
  virtual double work() const = 0;
  /// Output quality in (0, 1], higher is better (see README.md).
  virtual double quality() const = 0;
  virtual std::uint64_t digest() const = 0;
  /// Output checks on the timed call's result.
  virtual void check(Failures& failures) const = 0;
  /// Repeat the workload at kCheckThreads threads; the output must match.
  virtual void deep_check(Failures& failures) = 0;
  /// Per-layer numbers from replays of each module's public calls, given the
  /// timed call's wall time and the resident set just before it.
  virtual void trace(double run_s, double rss_before_mb, Layers& layers) = 0;
};

void expect(bool ok, const std::string& what, Failures& failures) {
  if (!ok) failures.push_back(what);
}

/// Writes 0 for per-layer metrics of layers a workload never calls.
void not_called(Layers& layers, std::initializer_list<const char*> names) {
  for (const char* name : names) layers[name] = 0.0;
}

/// The two-tier rig: TX2-class GPU edge, WiFi uplink at 5 ms RTT, roofline
/// predictors trained on the device simulator.
struct Rig {
  lens::perf::DeviceSimulator simulator{lens::perf::jetson_tx2_gpu()};
  lens::perf::RooflinePredictor predictor = lens::perf::RooflinePredictor::train(
      simulator, {.samples_per_kind = 500, .seed = 11});
  lens::comm::CommModel comm{lens::comm::WirelessTechnology::kWifi, 5.0};
};

// ---------------------------------------------------------------- search

/// Counts and times the calls made through it (traced run only; the counters
/// are not thread-safe).
struct CallTimer {
  double seconds = 0.0;
  std::size_t calls = 0;
  template <typename F>
  auto operator()(F&& call) {
    const auto start = Clock::now();
    auto result = call();
    seconds += since(start);
    ++calls;
    return result;
  }
};

class TimedPerfModel final : public lens::perf::LayerPerformanceModel {
 public:
  explicit TimedPerfModel(const lens::perf::LayerPerformanceModel& inner) : inner_(inner) {}
  lens::perf::LayerMeasurement predict(const lens::dnn::LayerSpec& layer,
                                       const lens::dnn::TensorShape& input) const override {
    return timer([&] { return inner_.predict(layer, input); });
  }
  mutable CallTimer timer;

 private:
  const lens::perf::LayerPerformanceModel& inner_;
};

class TimedAccuracy final : public core::AccuracyModel {
 public:
  explicit TimedAccuracy(const core::AccuracyModel& inner) : inner_(inner) {}
  double test_error_percent(const core::Genotype& genotype,
                            const lens::dnn::Architecture& arch) const override {
    return timer([&] { return inner_.test_error_percent(genotype, arch); });
  }
  mutable CallTimer timer;

 private:
  const core::AccuracyModel& inner_;
};

// Fixed hypervolume reference point (error %, latency ms, energy mJ); the
// quality figure is the dominated share of the box [0, reference].
const std::vector<double> kFrontReference = {100.0, 400.0, 2000.0};

/// search_mobo: the paper's Algorithm 2 in LENS mode — MOBO with 20 random
/// warm-up and 300 BO evaluations over the two-tier rig at 3 Mbps.
class SearchMobo final : public Workload {
 public:
  static constexpr std::size_t kInitial = 20;
  static constexpr std::size_t kIterations = 300;

  SearchMobo(std::uint64_t seed, bool traced)
      : timed_perf_(rig_.predictor),
        timed_accuracy_(accuracy_),
        evaluator_(traced ? static_cast<const lens::perf::LayerPerformanceModel&>(timed_perf_)
                          : rig_.predictor,
                   rig_.comm) {
    config_.mobo.num_initial = kInitial;
    config_.mobo.num_iterations = kIterations;
    config_.mobo.seed = static_cast<unsigned>(seed);
    config_.nsga2.seed = config_.mobo.seed;
    config_.tu_mbps = 3.0;
    config_.mode = core::ObjectiveMode::kBestDeployment;
    config_.strategy = core::SearchStrategy::kMobo;
    const core::AccuracyModel& accuracy =
        traced ? static_cast<const core::AccuracyModel&>(timed_accuracy_) : accuracy_;
    driver_.emplace(space_, evaluator_, accuracy, config_);
  }

  void run() override { result_ = driver_->run(); }

  double work() const override { return static_cast<double>(result_.history.size()); }

  double quality() const override {
    double box = 1.0;
    for (double r : kFrontReference) box *= r;
    return lens::opt::hypervolume(front_objectives(), kFrontReference) / box;
  }

  std::uint64_t digest() const override { return digest_of(result_); }

  void check(Failures& failures) const override {
    expect(result_.history.size() == kInitial + kIterations,
           "search: history has " + std::to_string(result_.history.size()) + " entries",
           failures);
    const std::vector<lens::opt::ParetoPoint>& points = result_.front.points();
    expect(!points.empty(), "search: empty front", failures);
    for (const lens::opt::ParetoPoint& p : points) {
      const bool indexed = p.id < result_.history.size() &&
                           result_.history[p.id].objectives() == p.objectives;
      expect(indexed, "search: front point does not match its history entry", failures);
      for (double v : p.objectives) {
        expect(std::isfinite(v), "search: non-finite objective", failures);
      }
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = 0; j < points.size(); ++j) {
        if (i != j && lens::opt::dominates(points[i].objectives, points[j].objectives)) {
          failures.push_back("search: front point dominated by another front point");
          return;
        }
      }
    }
  }

  void deep_check(Failures& failures) override {
    // Unwrapped models: the timing wrappers are not thread-safe.
    const core::DeploymentEvaluator plain(rig_.predictor, rig_.comm);
    lens::par::set_max_threads(kCheckThreads);
    core::NasDriver repeat(space_, plain, accuracy_, config_);
    const core::NasResult again = repeat.run();
    lens::par::set_max_threads(1);
    expect(digest_of(again) == digest_of(result_),
           "search: repeat at " + std::to_string(kCheckThreads) + " threads differs", failures);
  }

  void trace(double run_s, double, Layers& layers) override {
    not_called(layers, {"core.price_ns", "core.collapse_us", "core.collapse_calls",
                        "sim.fault_build_ns", "sim.fault_episodes",
                        "sim.fault_query_ns.first_hour", "sim.fault_query_ns.last_hour",
                        "sim.self_s", "sim.retries", "sim.fallback_frac", "comm.trace_step_ns",
                        "runtime.tracker_ns", "runtime.select_ns", "cloud.place_step_us",
                        "cloud.place_step_calls", "cloud.admit_ns", "fleet.self_ns",
                        "fleet.bytes_per_device", "fleet.degraded_frac", "fog.shed_frac",
                        "share.sim.fault_build", "share.sim.fault_query", "share.sim.events",
                        "share.comm", "share.runtime", "share.cloud", "share.fleet"});
    const double accuracy_s = timed_accuracy_.timer.seconds;
    const double predict_s = timed_perf_.timer.seconds;
    const double opt_s = std::max(0.0, run_s - accuracy_s - predict_s);
    layers["core.accuracy_calls"] = static_cast<double>(timed_accuracy_.timer.calls);
    layers["core.accuracy_ms"] = accuracy_s * 1e3;
    layers["perf.predict_calls"] = static_cast<double>(timed_perf_.timer.calls);
    layers["perf.predict_ms"] = predict_s * 1e3;
    layers["opt.self_s"] = opt_s;
    layers["share.opt"] = opt_s / run_s;
    layers["share.core"] = accuracy_s / run_s;
    layers["share.perf"] = predict_s / run_s;
    layers["core.cache_hit_frac"] = static_cast<double>(result_.cache_hits) /
                                    static_cast<double>(result_.history.size());

    // GP fit and posterior prediction replayed at the final history size,
    // one model per objective, as the engine keeps them.
    std::vector<std::vector<double>> xs;
    for (const core::EvaluatedCandidate& c : result_.history) {
      xs.push_back(space_.to_normalized(c.genotype));
    }
    std::vector<double> fit_ms, predict_us;
    for (std::size_t k = 0; k < core::kNumObjectives; ++k) {
      std::vector<double> ys;
      for (const core::EvaluatedCandidate& c : result_.history) ys.push_back(c.objectives()[k]);
      lens::opt::GaussianProcess gp(config_.mobo.gp);
      auto start = Clock::now();
      gp.fit(xs, ys);
      fit_ms.push_back(since(start) * 1e3);
      std::mt19937_64 rng(k + 1);
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      std::vector<std::vector<double>> queries(config_.mobo.pool_size,
                                               std::vector<double>(xs.front().size()));
      for (auto& q : queries) {
        for (double& v : q) v = unit(rng);
      }
      double mean_sum = 0.0;
      start = Clock::now();
      for (const auto& q : queries) mean_sum += gp.predict(q).mean;
      predict_us.push_back(since(start) * 1e6 / static_cast<double>(queries.size()));
      if (!std::isfinite(mean_sum)) throw std::runtime_error("GP replay: non-finite mean");
    }
    layers["opt.gp_fit_ms"] = median(fit_ms);
    layers["opt.gp_predict_us"] = median(predict_us);

    const std::vector<std::vector<double>> front = front_objectives();
    std::vector<double> hv_ms;
    for (int rep = 0; rep < 9; ++rep) {
      const auto start = Clock::now();
      const double hv = lens::opt::hypervolume(front, kFrontReference);
      hv_ms.push_back(since(start) * 1e3);
      if (!(hv >= 0.0)) throw std::runtime_error("hypervolume replay failed");
    }
    layers["opt.hypervolume_ms"] = median(hv_ms);

    const core::DeploymentEvaluator plain(rig_.predictor, rig_.comm);
    std::vector<double> compile_ms;
    for (int rep = 0; rep < 9; ++rep) {
      const auto start = Clock::now();
      const core::DeploymentPlan plan = plain.compile(lens::dnn::alexnet());
      compile_ms.push_back(since(start) * 1e3);
      if (plan.num_options() == 0) throw std::runtime_error("compile replay: empty plan");
    }
    layers["core.compile_ms"] = median(compile_ms);
  }

 private:
  std::vector<std::vector<double>> front_objectives() const {
    std::vector<std::vector<double>> objectives;
    for (const lens::opt::ParetoPoint& p : result_.front.points()) {
      objectives.push_back(p.objectives);
    }
    return objectives;
  }

  static std::uint64_t digest_of(const core::NasResult& result) {
    Digest d;
    for (const core::EvaluatedCandidate& c : result.history) {
      d.add(c.name);
      for (double v : c.objectives()) d.add(v);
    }
    for (const lens::opt::ParetoPoint& p : result.front.points()) {
      d.add(static_cast<std::uint64_t>(p.id));
    }
    return d.h;
  }

  Rig rig_;
  core::SurrogateAccuracyModel accuracy_;
  TimedPerfModel timed_perf_;
  TimedAccuracy timed_accuracy_;
  core::DeploymentEvaluator evaluator_;
  core::SearchSpace space_;
  core::NasConfig config_;
  std::optional<core::NasDriver> driver_;
  core::NasResult result_;
};

// ---------------------------------------------------------------- fleets

constexpr std::size_t kFleetDevices = 1000000;
constexpr std::size_t kFleetSteps = 64;

/// bench_fleet's scenario: AR(1) traces with Markov outage starts plus
/// per-device link and cloud outages, infinite cloud.
fleet::FleetConfig faulty_config(std::uint64_t seed) {
  fleet::FleetConfig config;
  config.devices = kFleetDevices;
  config.steps = kFleetSteps;
  config.seed = seed;
  config.trace.mean_mbps = 8.0;
  config.trace.sigma = 0.5;
  config.trace.outage_start_probability = 0.02;
  config.faults.link_outage_rate_hz = 1.0 / 3600.0;
  config.faults.link_outage_mean_s = 120.0;
  config.faults.cloud_outage_rate_hz = 1.0 / 7200.0;
  config.faults.cloud_outage_mean_s = 180.0;
  return config;
}

/// K-tier regional scenario: 16 failure domains with stochastic backhaul
/// brownouts/outages and fog-site failures, one scripted dead fog site, one
/// scripted 0.8-depth backhaul brownout, finite fog and cloud pools, and no
/// per-device fault classes.
fleet::FleetConfig regional_config(std::uint64_t seed) {
  fleet::FleetConfig config;
  config.devices = kFleetDevices;
  config.steps = kFleetSteps;
  config.seed = seed;
  config.trace.mean_mbps = 4.0;
  config.trace.sigma = 0.5;
  config.trace.outage_start_probability = 0.02;
  config.num_regions = 16;
  config.fog = lens::cloud::fog_site_defaults(8);
  lens::cloud::CloudConfig datacenter;
  datacenter.machines = 32;
  config.cloud = datacenter;
  config.region_faults.backhaul_brownout_rate_hz = 1.0 / 7200.0;
  config.region_faults.backhaul_brownout_mean_s = 1800.0;
  config.region_faults.backhaul_outage_rate_hz = 1.0 / 14400.0;
  config.region_faults.backhaul_outage_mean_s = 600.0;
  config.region_faults.fog_failure_rate_hz = 1.0 / 10800.0;
  config.region_faults.fog_failure_mean_s = 1200.0;
  config.region_episodes.push_back({1, {sim::FaultClass::kFogSiteFailure, 0.0, 1e9, 1.0}});
  config.region_episodes.push_back(
      {2, {sim::FaultClass::kBackhaulBrownout, 0.0, 1e9, 0.8, 1}});
  return config;
}

/// Both fleet workloads: one FleetEngine::run over 1M devices x 64 steps.
class FleetWorkload final : public Workload {
 public:
  /// Two-tier: alexnet on the trained rig.
  explicit FleetWorkload(fleet::FleetConfig config)
      : rig_(std::make_unique<Rig>()),
        plan_(core::DeploymentEvaluator(rig_->predictor, rig_->comm)
                  .compile(lens::dnn::alexnet())) {
    engine_.emplace(plan_, std::move(config));
  }

  /// K-tier: vgg16 over edge (TX2 GPU) -> fog (datacenter GPU) -> free
  /// cloud, radio 4 Mbps and backhaul 40 Mbps.
  FleetWorkload(fleet::FleetConfig config, std::vector<double> hop_tu)
      : edge_sim_(std::make_unique<lens::perf::DeviceSimulator>(lens::perf::jetson_tx2_gpu())),
        fog_sim_(std::make_unique<lens::perf::DeviceSimulator>(lens::perf::datacenter_gpu())),
        edge_oracle_(std::make_unique<lens::perf::SimulatorOracle>(*edge_sim_)),
        fog_oracle_(std::make_unique<lens::perf::SimulatorOracle>(*fog_sim_)),
        plan_(compile_ktier(*edge_oracle_, *fog_oracle_, hop_tu)),
        hop_tu_(std::move(hop_tu)) {
    engine_.emplace(plan_, hop_tu_, std::move(config));
  }

  void run() override { stats_ = engine_->run(); }

  double work() const override {
    return static_cast<double>(stats_.devices) * static_cast<double>(stats_.steps);
  }

  /// Oracle mean latency over the dynamic policy's mean latency.
  double quality() const override {
    return stats_.oracle_mean_latency_ms / stats_.mean_latency_ms;
  }

  std::uint64_t digest() const override {
    Digest d;
    d.add(stats_.csv());
    return d.h;
  }

  void check(Failures& failures) const override {
    const fleet::FleetConfig& config = engine_->config();
    expect(stats_.devices == config.devices && stats_.steps == config.steps,
           "fleet: report shape does not match the config", failures);
    expect(stats_.offered_qps.size() == config.steps,
           "fleet: per-step offered series has the wrong length", failures);
    if (config.cloud.has_value() || config.fog.has_value()) {
      check_admission(failures);
    } else {
      expect(stats_.shed == 0 && stats_.fog_shed == 0, "fleet: an infinite cloud shed requests",
             failures);
    }
    std::uint64_t observations = 0;
    for (std::uint64_t c : stats_.latency_histogram) observations += c;
    expect(observations == config.devices * config.steps,
           "fleet: latency histogram does not cover every device-step", failures);
    expect(stats_.p50_latency_ms <= stats_.p99_latency_ms &&
               stats_.p99_latency_ms <= stats_.p999_latency_ms,
           "fleet: latency percentiles not monotone", failures);
    expect(std::isfinite(stats_.mean_latency_ms) && stats_.mean_latency_ms > 0.0 &&
               stats_.oracle_mean_latency_ms <= stats_.mean_latency_ms,
           "fleet: mean latency not finite, or below the oracle", failures);
    expect(stats_.regions.size() == (hop_tu_.empty() ? 0 : config.num_regions),
           "fleet: per-region report has the wrong size", failures);
  }

  void deep_check(Failures& failures) override {
    lens::par::set_max_threads(kCheckThreads);
    const fleet::FleetStats again = engine_->run();
    lens::par::set_max_threads(1);
    expect(again.csv() == stats_.csv(),
           "fleet: second run() at " + std::to_string(kCheckThreads) +
               " threads is not byte-identical",
           failures);
  }

  void trace(double run_s, double rss_before_mb, Layers& layers) override;

 private:
  /// Admission conservation on counters the engine accumulates in different
  /// passes: per region, the fog offers counted while selecting against the
  /// fog admits and sheds counted after its place_step; the per-region
  /// central-cloud offers and sheds against the fleet-wide per-step series
  /// and shed total. Counts are device-steps, rebuilt from the mean rates.
  void check_admission(Failures& failures) const {
    const fleet::FleetConfig& config = engine_->config();
    const auto device_steps = [&](double mean_qps) {
      return std::llround(mean_qps * static_cast<double>(config.steps) / config.device_qps);
    };
    long long cloud_offered = 0, cloud_shed = 0;
    for (std::size_t r = 0; r < stats_.regions.size(); ++r) {
      const fleet::FleetStats::RegionStats& rs = stats_.regions[r];
      expect(device_steps(rs.fog_offered_qps) ==
                 device_steps(rs.fog_admitted_qps) + device_steps(rs.fog_shed_qps),
             "fleet: region " + std::to_string(r) + " fog offered != admitted + shed",
             failures);
      cloud_offered += device_steps(rs.cloud_offered_qps);
      cloud_shed += device_steps(rs.cloud_shed_qps);
    }
    long long series_offered = 0;
    for (double qps : stats_.offered_qps) series_offered += std::llround(qps / config.device_qps);
    expect(cloud_offered == series_offered,
           "fleet: per-region cloud offers != the per-step offered series", failures);
    expect(cloud_shed == static_cast<long long>(stats_.shed),
           "fleet: per-region cloud sheds != the fleet shed total", failures);
  }

  static core::DeploymentPlan compile_ktier(const lens::perf::LayerPerformanceModel& edge,
                                            const lens::perf::LayerPerformanceModel& fog,
                                            const std::vector<double>& hop_tu) {
    core::EdgeFogCloudConfig topo;
    topo.radio = lens::comm::CommModel(lens::comm::WirelessTechnology::kWifi, hop_tu[0]);
    topo.backhaul = lens::comm::CommModel(lens::comm::WirelessTechnology::kWifi, hop_tu[1]);
    return core::DeploymentEvaluator(core::edge_fog_cloud(edge, fog, nullptr, topo))
        .compile(lens::dnn::vgg16());
  }

  // Models are heap-held: the plan and evaluator keep non-owning references.
  std::unique_ptr<Rig> rig_;
  std::unique_ptr<lens::perf::DeviceSimulator> edge_sim_, fog_sim_;
  std::unique_ptr<lens::perf::SimulatorOracle> edge_oracle_, fog_oracle_;
  core::DeploymentPlan plan_;
  std::vector<double> hop_tu_;  ///< empty on the two-tier path
  std::optional<fleet::FleetEngine> engine_;
  fleet::FleetStats stats_;
};

void FleetWorkload::trace(double run_s, double rss_before_mb, Layers& layers) {
  const fleet::FleetConfig& config = engine_->config();
  const std::size_t n = config.devices;
  const double device_steps = static_cast<double>(n) * static_cast<double>(config.steps);
  const double horizon_s = static_cast<double>(config.steps) * config.step_s;
  const bool two_tier = hop_tu_.empty();
  not_called(layers, {"opt.self_s", "opt.gp_fit_ms", "opt.gp_predict_us", "opt.hypervolume_ms",
                      "core.accuracy_calls", "core.accuracy_ms", "perf.predict_calls",
                      "perf.predict_ms", "core.cache_hit_frac", "core.compile_ms",
                      "sim.fault_query_ns.first_hour", "sim.fault_query_ns.last_hour",
                      "sim.self_s", "sim.retries", "sim.fallback_frac", "cloud.admit_ns",
                      "share.opt", "share.perf", "share.sim.fault_query", "share.sim.events"});
  layers["fleet.bytes_per_device"] =
      std::max(0.0, peak_rss_mb() - rss_before_mb) * 1024.0 * 1024.0 / static_cast<double>(n);

  // sim: the per-device fault schedules (and, K-tier, the region schedules)
  // the engine builds before its first step.
  double build_s = 0.0;
  double episodes = 0.0;
  if (config.faults.any_enabled()) {
    sim::FaultScheduleConfig fcfg = config.faults;
    if (fcfg.horizon_s <= 0.0) fcfg.horizon_s = horizon_s;
    const auto start = Clock::now();
    for (std::size_t d = 0; d < n; ++d) {
      episodes += static_cast<double>(
          sim::FaultSchedule::generate_for_device(fcfg, config.seed, d).episodes().size());
    }
    build_s += since(start);
  }
  std::vector<sim::FaultInjector> regions(two_tier ? 0 : config.num_regions);
  if (!two_tier) {
    sim::FaultScheduleConfig rcfg = config.region_faults;
    if (rcfg.horizon_s <= 0.0) rcfg.horizon_s = horizon_s;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < regions.size(); ++r) {
      sim::FaultScheduleConfig cfg_r = rcfg;
      for (const fleet::RegionEpisode& re : config.region_episodes) {
        if (re.region == r) cfg_r.scripted.push_back(re.episode);
      }
      regions[r] =
          sim::FaultInjector(sim::FaultSchedule::generate_for_region(cfg_r, config.seed, r));
      episodes += static_cast<double>(regions[r].schedule().episodes().size());
    }
    build_s += since(start);
  }
  layers["sim.fault_build_ns"] = build_s * 1e9 / static_cast<double>(n);
  layers["sim.fault_episodes"] = episodes;
  layers["share.sim.fault_build"] = build_s / run_s;

  // comm / runtime / core: the per-device kernels, shard by shard as the
  // engine drives them, over kReplaySteps steps of the whole population.
  const lens::comm::TraceGenerator gen(config.trace);
  const std::vector<lens::comm::CostCurve> curves =
      two_tier ? plan_.latency_curves() : plan_.collapsed_latency_curves(0, hop_tu_);
  const std::vector<lens::runtime::DominanceInterval> intervals =
      lens::runtime::dominance_intervals(curves, config.tu_min, config.tu_max);
  std::vector<lens::comm::FleetTraceState> states(n);
  for (std::size_t i = 0; i < n; ++i) {
    states[i] = gen.start_state(
        lens::par::SplitMix64(lens::par::substream_seed(config.seed, i)));
  }
  std::vector<double> tu(n), estimate(n, 0.0), eff(n);
  std::vector<std::uint32_t> samples(n, 0), outages(n, 0);
  std::vector<std::uint32_t> option(
      n, static_cast<std::uint32_t>(
             lens::runtime::select_option(intervals, config.trace.mean_mbps)));
  std::vector<core::PricedObjectives> priced(two_tier ? n : 0);
  const std::size_t chunks = fleet::FleetEngine::num_chunks(n);
  double trace_s = 0.0, tracker_s = 0.0, select_s = 0.0, price_s = 0.0;
  for (std::size_t step = 0; step < kReplaySteps; ++step) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = lens::par::chunk_range(n, chunks, c);
      const std::size_t len = end - begin;
      auto start = Clock::now();
      gen.step_batch(&states[begin], len, &tu[begin]);
      trace_s += since(start);
      start = Clock::now();
      lens::runtime::tracker_update_batch(config.tracker,
                                          std::span<double>(estimate.data() + begin, len),
                                          std::span<std::uint32_t>(samples.data() + begin, len),
                                          std::span<std::uint32_t>(outages.data() + begin, len),
                                          std::span<const double>(tu.data() + begin, len));
      tracker_s += since(start);
      start = Clock::now();
      lens::runtime::select_batch(intervals, curves, config.tu_min, config.hysteresis_margin,
                                  std::span<const double>(estimate.data() + begin, len),
                                  std::span<std::uint32_t>(option.data() + begin, len));
      select_s += since(start);
      if (two_tier) {
        for (std::size_t i = begin; i < end; ++i) eff[i] = tu[i] > 0.0 ? tu[i] : config.tu_min;
        start = Clock::now();
        plan_.price_batch_into(std::span<const double>(eff.data() + begin, len),
                               std::span<core::PricedObjectives>(priced.data() + begin, len));
        price_s += since(start);
      }
    }
  }
  const double replayed = static_cast<double>(n) * static_cast<double>(kReplaySteps);
  const double scale = device_steps / replayed;  // replay -> whole run
  layers["comm.trace_step_ns"] = trace_s * 1e9 / replayed;
  layers["runtime.tracker_ns"] = tracker_s * 1e9 / replayed;
  layers["runtime.select_ns"] = select_s * 1e9 / replayed;
  layers["core.price_ns"] = price_s * 1e9 / replayed;

  // core: per-(step, region) latency-curve re-collapse under a browned hop.
  double collapse_s = 0.0;
  std::size_t collapse_calls = 0;
  if (!two_tier) {
    std::vector<double> pin = hop_tu_;
    std::vector<lens::comm::CostCurve> scratch;
    for (std::size_t s = 0; s < config.steps; ++s) {
      const double t = static_cast<double>(s) * config.step_s;
      for (const sim::FaultInjector& inj : regions) {
        bool slow = false;
        for (std::size_t h = 1; h < plan_.num_hops(); ++h) {
          const double factor = inj.backhaul_factor(t, h);
          pin[h] = hop_tu_[h] * factor;
          slow |= factor != 1.0;
        }
        if (!slow) continue;
        const auto start = Clock::now();
        plan_.collapse_latency_curves_into(0, pin, scratch);
        collapse_s += since(start);
        ++collapse_calls;
      }
    }
  }
  layers["core.collapse_us"] = collapse_calls > 0 ? collapse_s * 1e6 / collapse_calls : 0.0;
  layers["core.collapse_calls"] = static_cast<double>(collapse_calls);

  // cloud: place_step replayed on the run's per-step offered series (cloud)
  // and per-region mean offered load (fog).
  double place_s = 0.0;
  std::size_t place_calls = 0;
  const double job_ms = std::max(1.0, plan_.options()[option.front()].cloud_latency_ms);
  if (config.cloud.has_value()) {
    const lens::cloud::CloudScheduler sched(*config.cloud);
    for (double offered : stats_.offered_qps) {
      const auto start = Clock::now();
      const lens::cloud::StepOutcome out = sched.place_step(offered, job_ms);
      place_s += since(start);
      ++place_calls;
      if (!(out.admit_fraction >= 0.0)) throw std::runtime_error("place_step replay failed");
    }
  }
  if (config.fog.has_value()) {
    const lens::cloud::CloudScheduler sched(*config.fog);
    for (std::size_t s = 0; s < config.steps; ++s) {
      for (const fleet::FleetStats::RegionStats& rs : stats_.regions) {
        const auto start = Clock::now();
        const lens::cloud::StepOutcome out = sched.place_step(rs.fog_offered_qps, job_ms);
        place_s += since(start);
        ++place_calls;
        if (!(out.admit_fraction >= 0.0)) throw std::runtime_error("place_step replay failed");
      }
    }
  }
  layers["cloud.place_step_us"] = place_calls > 0 ? place_s * 1e6 / place_calls : 0.0;
  layers["cloud.place_step_calls"] = static_cast<double>(place_calls);

  const double comm_s = trace_s * scale;
  const double runtime_s = (tracker_s + select_s) * scale;
  const double core_s = price_s * scale + collapse_s;
  const double fleet_s = std::max(0.0, run_s - build_s - comm_s - runtime_s - core_s - place_s);
  layers["fleet.self_ns"] = fleet_s * 1e9 / device_steps;
  layers["share.comm"] = comm_s / run_s;
  layers["share.runtime"] = runtime_s / run_s;
  layers["share.core"] = core_s / run_s;
  layers["share.cloud"] = place_s / run_s;
  layers["share.fleet"] = fleet_s / run_s;
  layers["fleet.degraded_frac"] = static_cast<double>(stats_.degraded_steps) / device_steps;
  double fog_offered = 0.0;
  for (const fleet::FleetStats::RegionStats& rs : stats_.regions) {
    fog_offered += rs.fog_offered_qps * static_cast<double>(config.steps) / config.device_qps;
  }
  layers["fog.shed_frac"] =
      fog_offered > 0.0 ? static_cast<double>(stats_.fog_shed) / fog_offered : 0.0;
}

// ---------------------------------------------------------------- serve

/// serve_events_12h: the event simulator behind `lens faults` — 12 simulated
/// hours of Poisson traffic at 20 req/s with every fault class, a finite
/// 8-machine cloud, retry jitter and a circuit breaker, served by the
/// dynamic+fallback policy and by a fixed pin to the fastest cloud path.
class ServeEvents final : public Workload {
 public:
  static constexpr double kDurationS = 12 * 3600.0;
  static constexpr double kRateHz = 20.0;
  static constexpr double kTuMbps = 10.0;

  explicit ServeEvents(std::uint64_t seed)
      : plan_(core::DeploymentEvaluator(rig_.predictor, rig_.comm).compile(lens::dnn::alexnet())) {
    config_.arrival_rate_hz = kRateHz;
    config_.duration_s = kDurationS;
    config_.seed = static_cast<unsigned>(seed);
    config_.timeout_ms = 500.0;
    config_.max_retries = 2;
    config_.faults.seed = config_.seed;
    config_.faults.link_outage_rate_hz = 1.0 / 40.0;
    config_.faults.link_outage_mean_s = 5.0;
    config_.faults.cloud_outage_rate_hz = 1.0 / 60.0;
    config_.faults.cloud_outage_mean_s = 8.0;
    config_.faults.rtt_spike_rate_hz = 1.0 / 50.0;
    config_.faults.edge_slowdown_rate_hz = 1.0 / 80.0;
    config_.faults.machine_failure_rate_hz = 1.0 / 90.0;
    config_.faults.brownout_rate_hz = 1.0 / 70.0;
    config_.retry_jitter = 0.5;
    config_.breaker_failures = 3;
    lens::cloud::CloudConfig cloud;
    cloud.machines = 8;
    cloud.machine.capacity_ms_per_s = 4000.0;
    config_.cloud = cloud;

    const core::DeploymentEvaluation eval = plan_.price(kTuMbps);
    pinned_ = eval.options.size();
    for (std::size_t i = 0; i < eval.options.size(); ++i) {
      if (eval.options[i].tx_bytes == 0) continue;
      if (pinned_ == eval.options.size() ||
          eval.options[i].latency_ms < eval.options[pinned_].latency_ms) {
        pinned_ = i;
      }
    }
    if (pinned_ == eval.options.size()) throw std::runtime_error("serve: no cloud path");
    trace_.samples_mbps = {kTuMbps};
    trace_.interval_s = 1000.0;
    systems_[0].emplace(plan_, trace_, policy_config(sim::DispatchPolicy::kDynamic, 0));
    systems_[1].emplace(plan_, trace_, policy_config(sim::DispatchPolicy::kFixed, pinned_));
  }

  void run() override {
    for (std::size_t p = 0; p < 2; ++p) stats_[p] = systems_[p]->run();
  }

  double work() const override {
    return static_cast<double>(stats_[0].completed + stats_[1].completed);
  }

  /// Share of requests served as dispatched (no edge fallback, no drop).
  double quality() const override {
    double requests = 0.0, degraded = 0.0;
    for (const sim::SimStats& s : stats_) {
      requests += static_cast<double>(s.completed + s.dropped);
      degraded += static_cast<double>(s.fallback_executions + s.dropped);
    }
    return 1.0 - degraded / requests;
  }

  std::uint64_t digest() const override {
    Digest d;
    for (const sim::SimStats& s : stats_) {
      for (std::size_t v : {s.completed, s.timeouts, s.retries, s.fallback_executions, s.dropped,
                            s.shed, s.breaker_trips}) {
        d.add(static_cast<std::uint64_t>(v));
      }
      for (double v : {s.mean_latency_ms, s.p50_latency_ms, s.p95_latency_ms, s.p99_latency_ms,
                       s.max_latency_ms, s.total_energy_mj, s.breaker_open_time_s,
                       s.datacenter_energy_j}) {
        d.add(v);
      }
    }
    return d.h;
  }

  void check(Failures& failures) const override {
    // The arrivals the simulator draws: Poisson over [0, duration) from the seed.
    std::mt19937_64 rng(config_.seed);
    std::exponential_distribution<double> gap(config_.arrival_rate_hz);
    std::size_t arrivals = 0;
    for (double t = gap(rng); t < config_.duration_s; t += gap(rng)) ++arrivals;
    for (std::size_t p = 0; p < 2; ++p) {
      const sim::SimStats& s = stats_[p];
      const std::string name = p == 0 ? "serve dynamic: " : "serve fixed: ";
      expect(s.completed + s.dropped == arrivals,
             name + "completed + dropped != regenerated arrivals", failures);
      expect(systems_[p]->records().size() == arrivals, name + "one record per arrival",
             failures);
      expect(s.p50_latency_ms <= s.p95_latency_ms && s.p95_latency_ms <= s.p99_latency_ms &&
                 s.p99_latency_ms <= s.max_latency_ms,
             name + "latency percentiles not monotone", failures);
      expect(s.completed > 0 && std::isfinite(s.mean_latency_ms),
             name + "no completed requests", failures);
    }
  }

  /// The event loop is serial; repeatability is checked across processes.
  void deep_check(Failures&) override {}

  void trace(double run_s, double, Layers& layers) override {
    not_called(layers, {"opt.self_s", "opt.gp_fit_ms", "opt.gp_predict_us", "opt.hypervolume_ms",
                        "core.accuracy_calls", "core.accuracy_ms", "perf.predict_calls",
                        "perf.predict_ms", "core.cache_hit_frac", "core.compile_ms",
                        "core.price_ns", "core.collapse_us", "core.collapse_calls",
                        "comm.trace_step_ns", "runtime.tracker_ns", "runtime.select_ns",
                        "cloud.place_step_us", "cloud.place_step_calls", "fleet.self_ns",
                        "fleet.bytes_per_device", "fleet.degraded_frac", "fog.shed_frac",
                        "share.opt", "share.core", "share.perf", "share.comm", "share.runtime",
                        "share.fleet"});
    sim::FaultScheduleConfig fcfg = config_.faults;
    fcfg.horizon_s = 2.0 * config_.duration_s;  // as EdgeCloudSystem derives it
    auto start = Clock::now();
    const sim::FaultInjector faults(sim::FaultSchedule::generate(fcfg));
    const double build_s = since(start);
    layers["sim.fault_build_ns"] = build_s * 1e9;  // one device
    layers["sim.fault_episodes"] = static_cast<double>(faults.schedule().episodes().size());
    layers["share.sim.fault_build"] = 2.0 * build_s / run_s;  // one schedule per policy

    // FaultInjector queries at the run's arrival times: link_factor,
    // cloud_unavailable and edge_slowdown, which both policies ask for every
    // request (retries and the finite cloud ask more, so the share is a
    // lower bound). Per-query cost grows with t: the scans are linear.
    double sink = 0.0;
    const auto query_s = [&](const std::vector<sim::RequestRecord>& records, double from_s,
                             double to_s, std::size_t& calls) {
      const auto t0 = Clock::now();
      for (const sim::RequestRecord& r : records) {
        if (r.arrival_s < from_s || r.arrival_s >= to_s) continue;
        sink += faults.link_factor(r.arrival_s) + faults.edge_slowdown(r.arrival_s) +
                (faults.cloud_unavailable(r.arrival_s) ? 1.0 : 0.0);
        ++calls;
      }
      return since(t0);
    };
    const auto hour_ns = [&](double from_s) {
      std::size_t calls = 0;
      const double s = query_s(systems_[0]->records(), from_s, from_s + 3600.0, calls);
      return calls > 0 ? s * 1e9 / static_cast<double>(calls) : 0.0;
    };
    layers["sim.fault_query_ns.first_hour"] = hour_ns(0.0);
    layers["sim.fault_query_ns.last_hour"] = hour_ns(kDurationS - 3600.0);
    double queries_s = 0.0;
    for (const auto& system : systems_) {
      std::size_t calls = 0;
      queries_s += query_s(system->records(), 0.0, kDurationS, calls);
    }
    if (!std::isfinite(sink)) throw std::runtime_error("fault query replay: non-finite");

    // cloud: discrete admission over the fixed policy's cloud attempts.
    const double job_ms = plan_.options()[pinned_].cloud_latency_ms;
    lens::cloud::CloudScheduler sched(*config_.cloud);
    std::size_t attempts = 0;
    start = Clock::now();
    for (const sim::RequestRecord& r : systems_[1]->records()) {
      sched.admit(r.arrival_s, job_ms);
      attempts += 1 + r.timeouts;
    }
    const double admit_ns =
        since(start) * 1e9 / static_cast<double>(systems_[1]->records().size());
    const double admit_s = admit_ns * 1e-9 * static_cast<double>(attempts);
    layers["cloud.admit_ns"] = admit_ns;
    layers["share.cloud"] = admit_s / run_s;

    const double self_s = std::max(0.0, run_s - queries_s - admit_s - 2.0 * build_s);
    layers["sim.self_s"] = self_s;
    layers["share.sim.fault_query"] = queries_s / run_s;
    layers["share.sim.events"] = self_s / run_s;
    double requests = 0.0, fallbacks = 0.0, retries = 0.0;
    for (const sim::SimStats& s : stats_) {
      requests += static_cast<double>(s.completed + s.dropped);
      fallbacks += static_cast<double>(s.fallback_executions);
      retries += static_cast<double>(s.retries);
    }
    layers["sim.retries"] = retries;
    layers["sim.fallback_frac"] = fallbacks / requests;
  }

 private:
  sim::SimConfig policy_config(sim::DispatchPolicy policy, std::size_t fixed) const {
    sim::SimConfig config = config_;
    config.policy = policy;
    config.fixed_option = fixed;
    return config;
  }

  Rig rig_;
  core::DeploymentPlan plan_;
  sim::SimConfig config_;
  std::size_t pinned_ = 0;
  lens::comm::ThroughputTrace trace_;
  std::optional<sim::EdgeCloudSystem> systems_[2];
  sim::SimStats stats_[2];
};

// ---------------------------------------------------------------- main

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool traced) {
  if (name == "search_mobo") return std::make_unique<SearchMobo>(seed, traced);
  if (name == "fleet_faulty_1m") return std::make_unique<FleetWorkload>(faulty_config(seed));
  if (name == "fleet_regional") {
    return std::make_unique<FleetWorkload>(regional_config(seed), std::vector<double>{4.0, 40.0});
  }
  if (name == "serve_events_12h") return std::make_unique<ServeEvents>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool setup_only = false;
  bool deep_check = false;
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--phase") {
      const std::string phase = value();
      if (phase != "time" && phase != "trace" && phase != "setup") {
        throw std::invalid_argument("--phase time|trace|setup");
      }
      options.trace = phase == "trace";
      options.setup_only = phase == "setup";
    } else if (arg == "--deep-check") {
      options.deep_check = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (options.workload.empty()) throw std::invalid_argument("--workload is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    lens::par::set_max_threads(1);
    const double calib_ms = options.setup_only ? 0.0 : calibration_ms();

    std::vector<double> setup_times;
    std::unique_ptr<Workload> workload;
    const auto setup_start = Clock::now();
    while (setup_times.size() < kMinSetupReps ||
           (since(setup_start) < kMinSetupSeconds && setup_times.size() < kMaxSetupReps)) {
      workload.reset();
      const auto start = Clock::now();
      workload = make_workload(options.workload, options.seed, options.trace);
      setup_times.push_back(since(start));
    }
    const double setup_s = *std::min_element(setup_times.begin(), setup_times.end());
    if (options.setup_only) {
      std::printf("{\"setup_s\": %s}\n", json_number(setup_s).c_str());
      return 0;
    }

    const double rss_before_mb = resident_mb();
    const double steal_before_s = steal_s();
    const auto start = Clock::now();
    workload->run();
    const double timed_s = since(start);
    const double steal_during_s = steal_s() - steal_before_s;
    const double rss_mb = peak_rss_mb();

    Failures failures;
    workload->check(failures);
    Layers layers;
    if (options.trace) {
      workload->trace(timed_s, rss_before_mb, layers);
      layers["trace.work_per_s"] = workload->work() / timed_s;
      for (const auto& [name, value] : layers) {
        const auto& names = layer_metric_names();
        if (std::find(names.begin(), names.end(), name) == names.end()) {
          throw std::logic_error("trace wrote " + name + ", missing from layer_metric_names()");
        }
      }
    }
    if (options.deep_check) workload->deep_check(failures);

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(workload->digest()));
    std::string out = "{\"workload\": " + json_string(options.workload) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"work\": " + json_number(workload->work()) +
                      ", \"timed_s\": " + json_number(timed_s) +
                      ", \"setup_s\": " + json_number(setup_s) +
                      ", \"peak_rss_mb\": " + json_number(rss_mb) +
                      ", \"quality\": " + json_number(workload->quality()) +
                      ", \"calib_ms\": " + json_number(calib_ms) +
                      ", \"steal_s\": " + json_number(steal_during_s) +
                      ", \"digest\": \"" + digest + "\", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out += (i ? ", " : "") + json_string(failures[i]);
    }
    // A metric trace() did not write is left out; run.py flags it as a failure.
    out += "], \"layers\": {";
    bool first = true;
    for (const std::string& name : layer_metric_names()) {
      if (!layers.count(name)) continue;
      out += (first ? "" : ", ") + json_string(name) + ": " + json_number(layers.at(name));
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lens_perfbench: %s\n", e.what());
    return 2;
  }
}
