// NAPI poll-order tracing.
//
// The paper traced the kernel's NAPI device polling order with eBPF to
// expose the interleaved processing of vanilla NAPI (Fig. 6a) versus
// PRISM's streamlined order (Fig. 6b). This collector plays the same role
// for the simulated engine: every poll iteration records which device was
// polled and a snapshot of the poll list afterwards.
//
// Storage is a bounded ring of fixed-size records — device names are
// interned to small ids at attach time and resolved back to strings only
// when rendering, so a poll iteration costs a handful of integer stores
// and long sweeps cannot balloon RSS (the oldest records are overwritten
// and counted in dropped_records()).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/bounded.h"
#include "sim/time.h"

namespace prism::trace {

/// One net_rx_action loop iteration, resolved for consumption (tests,
/// rendering). The in-ring representation is compact; this is the
/// materialized view records() returns.
struct PollRecord {
  std::uint64_t iteration = 0;       ///< global iteration counter
  sim::Time at = 0;                  ///< simulated time of the poll
  std::string device;                ///< device polled in this iteration
  std::vector<std::string> poll_list;  ///< list contents after requeue
  int packets = 0;                   ///< packets processed by this poll
};

/// Accumulates poll records; attach to a NetRxEngine with set_poll_trace.
class PollTrace {
 public:
  using NameId = sim::NameTable::Id;

  /// Retained records by default; tune with the constructor for long
  /// sweeps.
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  /// Poll-list entries stored per record; longer lists are truncated
  /// (counted in truncated_lists()). Real poll lists hold one entry per
  /// pipeline device on the CPU, far below this bound.
  static constexpr std::size_t kMaxPollList = 12;

  explicit PollTrace(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  /// Resolves a device name to its interned id (registering it on first
  /// use). Producers intern once per device and record ids.
  NameId intern(std::string_view name) { return names_.intern(name); }

  /// Hot path: records one poll iteration from interned ids.
  void on_poll_ids(sim::Time at, NameId device, const NameId* poll_list,
                   std::size_t poll_list_len, int packets);

  /// Convenience overload (tests, ad-hoc producers): interns on the fly.
  void on_poll(sim::Time at, const std::string& device,
               std::vector<std::string> poll_list, int packets);

  /// Number of retained records (<= capacity).
  std::size_t size() const noexcept { return ring_.size(); }
  std::size_t capacity() const noexcept { return ring_.capacity(); }

  /// Records overwritten because the ring was full.
  std::uint64_t dropped_records() const noexcept { return ring_.dropped(); }

  /// Poll-list snapshots cut off at kMaxPollList entries.
  std::uint64_t truncated_lists() const noexcept { return truncated_; }

  /// Materializes the retained records, oldest first.
  std::vector<PollRecord> records() const;

  /// Device names in poll order, e.g. {"eth", "br", "eth", "veth", ...}.
  std::vector<std::string> device_order() const;

  /// Renders records in the format of the paper's Fig. 6 table.
  std::string render(std::size_t max_rows = 32) const;

  void clear() noexcept {
    ring_.clear();
    truncated_ = 0;
  }

 private:
  struct CompactRecord {
    std::uint64_t iteration = 0;
    sim::Time at = 0;
    int packets = 0;
    NameId device = 0;
    std::uint8_t list_len = 0;
    std::array<NameId, kMaxPollList> list{};
  };

  sim::BoundedRing<CompactRecord> ring_;
  std::uint64_t truncated_ = 0;
  sim::NameTable names_;
};

}  // namespace prism::trace
