// Flow-path flight recorder: sampled per-packet lifecycle tracing.
//
// The latency ledger answers "how long do packets of class C wait in
// stage S" in aggregate; the flight recorder answers "which packet of
// which flow got stuck where, behind what". For flows selected by a
// deterministic hash sampler (plus always-trace pins for high-priority
// classes) it records every causal step of a packet's journey — ring
// arrival, each stage enqueue/dequeue with the queue depth and the
// priority class at the head of the queue at that instant, drops with
// reason, socket delivery — into a bounded overwrite-oldest ring.
//
// Like the LaneProfiler, recording NEVER alters the simulation: no
// simulated cost is charged and no scheduling decision depends on the
// recorder, so armed and disarmed runs are schedule-identical. The only
// cost is wall-clock, measured by perf_smoke's flight_recorder_overhead
// A/B point (budget: <= 3% at the default 1-in-64 sampling rate).
//
// Sampler determinism: the flow hash is std::hash<net::FiveTuple> — a
// fixed splitmix-style mix, independent of platform, thread count and
// run order — so the same flows are traced in every run of a seed, at
// any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/flow.h"
#include "sim/bounded.h"
#include "sim/time.h"
#include "telemetry/metrics.h"

namespace prism::telemetry {

class AnomalyBank;

/// What happened to the packet at this step of its journey.
enum class FlightEventKind : std::uint8_t {
  kRingArrival,  ///< dequeued from the NIC ring (wait = ring residency)
  kEnqueue,      ///< pushed onto a stage queue (depth/head at that instant)
  kDequeue,      ///< popped off a stage queue (wait = queue residency)
  kDrop,         ///< dropped (drop_reason = fault::DropReason code)
  kDeliver,      ///< handed to the socket (wait = end-to-end latency)
  kFastPath,     ///< overlay flow-cache hit: stages 2-3 skipped
};

const char* flight_event_kind_name(FlightEventKind kind) noexcept;

/// One step of a traced packet's lifecycle. Stage is 1..3 for the RX
/// pipeline stages and 4 for socket delivery; head_level is the priority
/// class at the head of the queue when this packet was enqueued (-1 =
/// queue empty, or a FIFO surface such as the NIC ring with no classes).
struct FlightEvent {
  sim::Time at = 0;
  net::FiveTuple flow;
  sim::Duration wait_ns = 0;
  std::int32_t depth = 0;
  FlightEventKind kind = FlightEventKind::kRingArrival;
  std::uint8_t stage = 0;
  std::int8_t level = 0;
  std::int8_t head_level = -1;
  std::int8_t drop_reason = -1;  ///< fault::DropReason code; -1 = none
};

/// Sampling + sizing knobs. Defaults are the always-on configuration the
/// perf budget is measured at.
struct FlightRecorderConfig {
  /// Trace 1 in N flows by hash (rounded up to a power of two; 1 = all).
  std::uint32_t sample_period = 64;
  /// Classes >= pin_level are always traced regardless of the sampler.
  int pin_level = 1;
  /// Events retained per host; oldest overwritten first.
  std::size_t ring_capacity = 2048;
};

/// Bounded per-host lifecycle ring. Disarmed (set_armed(false)),
/// should_trace() returns false so hot paths skip their trace blocks.
class FlightRecorder {
 public:
  FlightRecorder() { configure(FlightRecorderConfig{}); }

  void configure(const FlightRecorderConfig& config);
  const FlightRecorderConfig& config() const noexcept { return config_; }

  void set_armed(bool armed) noexcept { armed_ = armed; }
  bool armed() const noexcept { return armed_; }

  /// Detector bank fed on dequeue/ring observations (optional).
  void set_anomalies(AnomalyBank* bank) noexcept { anomalies_ = bank; }

  /// Deterministic sampling decision: pinned class, or flow-hash slot 0.
  bool should_trace(const net::FiveTuple& flow, int level) const noexcept {
    if (!armed_) return false;
    if (level >= config_.pin_level) return true;
    return (std::hash<net::FiveTuple>{}(flow)&sample_mask_) == 0;
  }

  // ------------------------------------------------------------ stamp points
  /// NIC ring dequeue: `arrived` is ring-insertion time, `dequeued` the
  /// poll instant; the difference is the (priority-blind) ring wait.
  void on_ring_arrival(const net::FiveTuple& flow, int level,
                       sim::Time arrived, sim::Time dequeued);
  /// Stage-queue push. `depth` counts all levels after the push and
  /// `head_level` is the class about to be served (-1 = was empty).
  void on_enqueue(const net::FiveTuple& flow, int stage, int level, int depth,
                  int head_level, sim::Time at);
  /// Stage-queue pop. `head_level_at_enqueue` replays what this packet
  /// queued behind; the anomaly bank turns (wait, head) into inversions.
  void on_dequeue(const net::FiveTuple& flow, int stage, int level,
                  sim::Duration wait_ns, int head_level_at_enqueue,
                  sim::Time at);
  void on_drop(const net::FiveTuple& flow, int stage, int level,
               int drop_reason, sim::Time at);
  void on_deliver(const net::FiveTuple& flow, int level,
                  sim::Duration e2e_ns, sim::Time at);
  /// Overlay flow-cache hit: the packet left stage 1 straight for socket
  /// delivery via the cached transform (no stage-2/3 events will follow).
  void on_fast_path(const net::FiveTuple& flow, int level, sim::Time at);

  // ------------------------------------------------------------- inspection
  std::size_t size() const noexcept { return ring_.size(); }
  std::size_t capacity() const noexcept { return ring_.capacity(); }
  /// i-th retained event, oldest first.
  const FlightEvent& at(std::size_t i) const { return ring_.at(i); }
  std::uint64_t recorded() const noexcept { return ring_.pushed(); }
  std::uint64_t overwritten() const noexcept { return ring_.dropped(); }

  /// Newest `n` events, oldest-first — the slice a firing detector
  /// freezes into its finding.
  std::vector<FlightEvent> tail(std::size_t n) const;

  void reset() noexcept { ring_.clear(); }

 private:
  FlightRecorderConfig config_;
  std::uint64_t sample_mask_ = 63;
  bool armed_ = true;
  AnomalyBank* anomalies_ = nullptr;
  sim::BoundedRing<FlightEvent> ring_{1};
};

}  // namespace prism::telemetry
