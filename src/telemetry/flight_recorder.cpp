#include "telemetry/flight_recorder.h"

#include "telemetry/anomaly.h"

namespace prism::telemetry {

namespace {

std::uint64_t round_up_pow2(std::uint64_t v) {
  if (v <= 1) return 1;
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const char* flight_event_kind_name(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kRingArrival:
      return "ring_arrival";
    case FlightEventKind::kEnqueue:
      return "enqueue";
    case FlightEventKind::kDequeue:
      return "dequeue";
    case FlightEventKind::kDrop:
      return "drop";
    case FlightEventKind::kDeliver:
      return "deliver";
    case FlightEventKind::kFastPath:
      return "fast_path";
  }
  return "?";
}

void FlightRecorder::configure(const FlightRecorderConfig& config) {
  config_ = config;
  if (config_.sample_period == 0) config_.sample_period = 1;
  config_.sample_period = static_cast<std::uint32_t>(
      round_up_pow2(config_.sample_period));
  sample_mask_ = config_.sample_period - 1;
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  ring_ = sim::BoundedRing<FlightEvent>(config_.ring_capacity);
  ring_.reserve();
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t n) const {
  std::vector<FlightEvent> out;
  const std::size_t count = ring_.size() < n ? ring_.size() : n;
  out.reserve(count);
  for (std::size_t i = ring_.size() - count; i < ring_.size(); ++i) {
    out.push_back(at(i));
  }
  return out;
}

void FlightRecorder::on_ring_arrival(const net::FiveTuple& flow, int level,
                                     sim::Time arrived, sim::Time dequeued) {
  FlightEvent e;
  e.at = dequeued;
  e.flow = flow;
  e.wait_ns = arrived >= 0 ? dequeued - arrived : 0;
  e.kind = FlightEventKind::kRingArrival;
  e.stage = 1;
  e.level = static_cast<std::int8_t>(level);
  e.head_level = -1;  // the NIC ring is a priority-blind FIFO
  ring_.push(e);
  if (anomalies_ != nullptr) {
    anomalies_->on_stage_wait(flow, 1, level, e.wait_ns, -1, dequeued);
  }
}

void FlightRecorder::on_enqueue(const net::FiveTuple& flow, int stage,
                                int level, int depth, int head_level,
                                sim::Time at) {
  FlightEvent e;
  e.at = at;
  e.flow = flow;
  e.depth = depth;
  e.kind = FlightEventKind::kEnqueue;
  e.stage = static_cast<std::uint8_t>(stage);
  e.level = static_cast<std::int8_t>(level);
  e.head_level = static_cast<std::int8_t>(head_level);
  ring_.push(e);
}

void FlightRecorder::on_dequeue(const net::FiveTuple& flow, int stage,
                                int level, sim::Duration wait_ns,
                                int head_level_at_enqueue, sim::Time at) {
  FlightEvent e;
  e.at = at;
  e.flow = flow;
  e.wait_ns = wait_ns;
  e.kind = FlightEventKind::kDequeue;
  e.stage = static_cast<std::uint8_t>(stage);
  e.level = static_cast<std::int8_t>(level);
  e.head_level = static_cast<std::int8_t>(head_level_at_enqueue);
  ring_.push(e);
  if (anomalies_ != nullptr) {
    anomalies_->on_stage_wait(flow, stage, level, wait_ns,
                              head_level_at_enqueue, at);
  }
}

void FlightRecorder::on_drop(const net::FiveTuple& flow, int stage, int level,
                             int drop_reason, sim::Time at) {
  FlightEvent e;
  e.at = at;
  e.flow = flow;
  e.kind = FlightEventKind::kDrop;
  e.stage = static_cast<std::uint8_t>(stage);
  e.level = static_cast<std::int8_t>(level);
  e.drop_reason = static_cast<std::int8_t>(drop_reason);
  ring_.push(e);
}

void FlightRecorder::on_fast_path(const net::FiveTuple& flow, int level,
                                  sim::Time at) {
  FlightEvent e;
  e.at = at;
  e.flow = flow;
  e.kind = FlightEventKind::kFastPath;
  e.stage = 1;
  e.level = static_cast<std::int8_t>(level);
  ring_.push(e);
}

void FlightRecorder::on_deliver(const net::FiveTuple& flow, int level,
                                sim::Duration e2e_ns, sim::Time at) {
  FlightEvent e;
  e.at = at;
  e.flow = flow;
  e.wait_ns = e2e_ns;
  e.kind = FlightEventKind::kDeliver;
  e.stage = 4;
  e.level = static_cast<std::int8_t>(level);
  ring_.push(e);
}

}  // namespace prism::telemetry
