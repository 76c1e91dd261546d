#include "sim/lane_profiler.h"

#include <algorithm>

namespace prism::sim {

LaneProfiler::LaneProfiler(std::size_t round_capacity,
                           std::uint64_t sample_every)
    : lane_ring_(round_capacity < 1 ? 1 : round_capacity),
      worker_ring_(round_capacity < 1 ? 1 : round_capacity),
      sample_every_(sample_every == 0 ? kDefaultSampleEvery : sample_every) {
  lane_ring_.reserve();
  worker_ring_.reserve();
}

void LaneProfiler::begin_run(int lanes, int workers) {
  if (static_cast<std::size_t>(lanes) > lanes_.size()) {
    lanes_.resize(static_cast<std::size_t>(lanes));
  }
  if (static_cast<std::size_t>(workers) > workers_.size()) {
    workers_.resize(static_cast<std::size_t>(workers));
  }
}

void LaneProfiler::record_lane_sample(std::uint64_t round, int lane,
                                      int worker, Time window_start,
                                      Time window_end, std::uint64_t events,
                                      std::uint64_t busy_ns,
                                      std::uint32_t inbox_msgs) {
  LaneRound r;
  r.round = round;
  r.lane = static_cast<std::uint32_t>(lane);
  r.worker = static_cast<std::uint32_t>(worker);
  r.window_start = window_start;
  r.window_end = window_end;
  r.events = events;
  r.busy_ns = busy_ns;
  r.inbox_msgs = inbox_msgs;
  {
    const std::lock_guard<std::mutex> lock(ring_mu_);
    lane_ring_.push(r);
  }

  LaneTotals& t = lanes_[static_cast<std::size_t>(lane)];
  ++t.sampled_rounds;
  t.busy_ns += busy_ns;
}

void LaneProfiler::record_worker_round(std::uint64_t round, int worker,
                                       std::uint64_t wall_ns,
                                       std::uint64_t barrier_wait_ns,
                                       std::uint64_t busy_ns) {
  WorkerRound r;
  r.round = round;
  r.worker = static_cast<std::uint32_t>(worker);
  r.wall_ns = wall_ns;
  r.barrier_wait_ns = barrier_wait_ns;
  r.busy_ns = busy_ns;
  {
    const std::lock_guard<std::mutex> lock(ring_mu_);
    worker_ring_.push(r);
  }

  WorkerTotals& t = workers_[static_cast<std::size_t>(worker)];
  ++t.rounds;
  t.wall_ns += wall_ns;
  t.barrier_wait_ns += barrier_wait_ns;
  t.busy_ns += busy_ns;
}

void LaneProfiler::add_lane_run_totals(int lane, std::uint64_t events,
                                       Time sim_ns, std::uint64_t inbox_msgs,
                                       std::uint32_t inbox_high_water,
                                       std::uint64_t inbox_spills) {
  LaneTotals& t = lanes_[static_cast<std::size_t>(lane)];
  t.events += events;
  t.sim_ns += sim_ns;
  t.inbox_msgs += inbox_msgs;
  if (inbox_high_water > t.inbox_high_water) {
    t.inbox_high_water = inbox_high_water;
  }
  t.inbox_spills += inbox_spills;
}

void LaneProfiler::end_run(std::uint64_t messages_posted) {
  messages_ += messages_posted;
}

namespace {

double max_over_mean(const std::vector<LaneProfiler::LaneTotals>& lanes,
                     std::uint64_t LaneProfiler::LaneTotals::* field) {
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  std::size_t active = 0;
  for (const auto& t : lanes) {
    const std::uint64_t v = t.*field;
    if (t.events == 0 && t.sampled_rounds == 0 && v == 0) continue;
    ++active;
    sum += v;
    if (v > max) max = v;
  }
  if (active == 0 || sum == 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(active);
  return static_cast<double>(max) / mean;
}

}  // namespace

double LaneProfiler::busy_imbalance() const noexcept {
  return max_over_mean(lanes_, &LaneTotals::busy_ns);
}

double LaneProfiler::event_imbalance() const noexcept {
  return max_over_mean(lanes_, &LaneTotals::events);
}

void LaneProfiler::reset() {
  std::fill(lanes_.begin(), lanes_.end(), LaneTotals{});
  std::fill(workers_.begin(), workers_.end(), WorkerTotals{});
  lane_ring_.clear();
  worker_ring_.clear();
  windows_ = 0;
  messages_ = 0;
}

}  // namespace prism::sim
