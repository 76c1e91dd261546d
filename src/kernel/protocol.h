// Final protocol step: L3/L4 processing and socket delivery.
//
// Both the single-stage host path (inside the NIC driver poll) and the
// last overlay stage (the backlog/veth poll) end here: the frame's
// transport header selects a UDP socket or TCP endpoint in the destination
// namespace and the payload crosses into the socket buffer.
#pragma once

#include <cstdint>

#include "kernel/cost_model.h"
#include "kernel/skb.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"

namespace prism::overlay {
class Netns;
}

namespace prism::telemetry {
class LatencyLedger;
class FlowTable;
class FlightRecorder;
class AnomalyBank;
}

namespace prism::fault {
struct FaultLayer;
}

namespace prism::kernel {

class OverloadGovernor;

/// Routes delivered skbs (including GRO chains) into sockets.
class SocketDeliverer {
 public:
  SocketDeliverer(sim::Simulator& sim, const CostModel& cost)
      : sim_(sim), cost_(cost) {}

  SocketDeliverer(const SocketDeliverer&) = delete;
  SocketDeliverer& operator=(const SocketDeliverer&) = delete;

  /// Attaches the latency ledger and flow table (telemetry/latency.h,
  /// telemetry/flow_table.h). Delivery is the one point where a packet's
  /// journey is complete, so the per-stage breakdown and the per-flow
  /// accounting are both recorded here. nullptr detaches.
  void set_latency(telemetry::LatencyLedger* ledger,
                   telemetry::FlowTable* flows) noexcept {
    ledger_ = ledger;
    flows_ = flows;
  }

  /// Attaches the flight recorder (traced journeys end here with a
  /// deliver event; traced protocol-level drops are recorded as stage-4
  /// drops) and the anomaly bank, which sees EVERY delivery — the SLO
  /// detector evaluates the full population, not the sampled one.
  /// nullptr detaches.
  void set_flight_recorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  void set_anomalies(telemetry::AnomalyBank* anomalies) noexcept {
    anomalies_ = anomalies;
  }

  /// Delivers every frame carried by `skb` (head + GRO chain) to sockets
  /// in `ns` at instant `at`. Returns extra in-kernel cost incurred
  /// (e.g. TCP ACK transmission). Frames without a matching socket are
  /// dropped and counted.
  sim::Duration deliver(Skb& skb, sim::Time at, overlay::Netns& ns);

  std::uint64_t no_socket_drops() const noexcept { return drops_; }
  /// Frames rejected by receive-side L4 checksum verification.
  std::uint64_t csum_drops() const noexcept { return csum_drops_; }
  /// Frames addressed to a draining or torn-down namespace.
  std::uint64_t dead_ns_drops() const noexcept { return dead_ns_drops_; }
  std::uint64_t delivered() const noexcept { return delivered_; }

  /// Attaches the host's fault layer (drop attribution + buffer
  /// alloc-failure injection). nullptr detaches.
  void set_faults(fault::FaultLayer* faults) noexcept { faults_ = faults; }

  /// Attaches the host's overload governor: successful socket deliveries
  /// feed its receiver-livelock watchdog (drops deliberately do not —
  /// a flood that never reaches a socket is exactly a livelock). nullptr
  /// detaches.
  void set_governor(OverloadGovernor* governor) noexcept {
    governor_ = governor;
  }

  /// Registers delivery counters under `prefix` (e.g. "sockets.").
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix) {
    reg.attach(prefix + "delivered", delivered_);
    reg.attach(prefix + "no_socket_drops", drops_);
    reg.attach(prefix + "csum_drops", csum_drops_);
    reg.attach(prefix + "dead_ns_drops", dead_ns_drops_);
  }

 private:
  /// `pre_parsed` (optional) is the caller's existing parse of `frame` —
  /// the skb's cached head-frame parse — reused instead of re-parsing.
  sim::Duration deliver_frame(const Skb& skb,
                              std::span<const std::uint8_t> frame,
                              const net::ParsedFrame* pre_parsed,
                              sim::Time at, overlay::Netns& ns,
                              bool final_frame);

  sim::Simulator& sim_;
  const CostModel& cost_;
  telemetry::LatencyLedger* ledger_ = nullptr;
  telemetry::FlowTable* flows_ = nullptr;
  telemetry::FlightRecorder* recorder_ = nullptr;
  telemetry::AnomalyBank* anomalies_ = nullptr;
  fault::FaultLayer* faults_ = nullptr;
  OverloadGovernor* governor_ = nullptr;
  std::uint64_t drops_ = 0;
  std::uint64_t csum_drops_ = 0;
  std::uint64_t dead_ns_drops_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace prism::kernel
