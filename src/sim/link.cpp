#include "sim/link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/fault.hpp"

namespace lens::sim {

TimeVaryingLink::TimeVaryingLink(comm::ThroughputTrace trace,
                                 comm::RadioPowerModel power_model)
    : TimeVaryingLink(std::move(trace), power_model, nullptr) {}

TimeVaryingLink::TimeVaryingLink(comm::ThroughputTrace trace,
                                 comm::RadioPowerModel power_model,
                                 const FaultInjector* faults)
    : trace_(std::move(trace)), power_model_(power_model), faults_(faults) {
  if (trace_.size() == 0 || trace_.interval_s <= 0.0) {
    throw std::invalid_argument("TimeVaryingLink: empty trace or bad interval");
  }
  for (double tu : trace_.samples_mbps) {
    if (tu <= 0.0) throw std::invalid_argument("TimeVaryingLink: non-positive throughput");
  }
}

double TimeVaryingLink::throughput_at(double t_s) const {
  if (t_s < 0.0) throw std::invalid_argument("TimeVaryingLink: negative time");
  const auto index = static_cast<std::size_t>(std::floor(t_s / trace_.interval_s));
  const double tu = trace_.samples_mbps[index % trace_.size()];
  return faults_ == nullptr ? tu : tu * faults_->link_factor(t_s);
}

TransferResult TimeVaryingLink::transfer(double start_s, std::uint64_t bytes) const {
  TransferResult result;
  result.start_s = start_s;
  if (bytes == 0) {
    result.end_s = start_s;
    return result;
  }
  double remaining_bits = static_cast<double>(bytes) * 8.0;
  double now = start_s;
  for (;;) {
    const double tu = throughput_at(now);           // Mbps = 1e6 bit/s
    const double rate_bits_per_s = tu * 1e6;
    // Rate is piecewise constant up to the next trace-interval edge or
    // fault-episode edge, whichever comes first.
    double interval_end = (std::floor(now / trace_.interval_s) + 1.0) * trace_.interval_s;
    // floor(now / interval_s) can round one interval low when `now` sits on
    // an edge (0.1 s trace, now 4.3: floor(42.999...) = 42), which puts the
    // edge at or behind `now` and would stall the loop; take the next one.
    // Fault boundaries always lie strictly after `now`.
    if (interval_end <= now) interval_end += trace_.interval_s;
    if (faults_ != nullptr) {
      interval_end = std::min(interval_end, faults_->next_link_boundary(now));
    }
    const double window = interval_end - now;
    const double can_send = rate_bits_per_s * window;
    const double power_mw = power_model_.transmit_power_mw(tu);
    if (can_send >= remaining_bits) {
      const double dt = remaining_bits / rate_bits_per_s;
      result.energy_mj += power_mw * dt;  // mW * s = mJ
      now += dt;
      break;
    }
    result.energy_mj += power_mw * window;
    remaining_bits -= can_send;
    now = interval_end;
  }
  result.end_s = now;
  return result;
}

TransferResult TimeVaryingLink::schedule(double ready_s, std::uint64_t bytes) {
  if (ready_s < 0.0) throw std::invalid_argument("TimeVaryingLink: negative ready time");
  const double start = std::max(ready_s, radio_free_s_);
  TransferResult result = transfer(start, bytes);
  radio_free_s_ = result.end_s;
  radio_busy_s_ += result.duration_s();
  return result;
}

}  // namespace lens::sim
