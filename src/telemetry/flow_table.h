// Bounded per-flow accounting table, LRU-evicting.
//
// The socket deliverer feeds one entry per 5-tuple: packets, bytes,
// socket-layer drops, and an end-to-end latency histogram per flow — the
// per-flow view the paper's priority story implies but never shows
// (which flow's packets are waiting, and where). The table is bounded
// like a real flow cache: when full, the least-recently-seen flow is
// evicted and the eviction counted — truncation is never silent. The
// table is a sim::BoundedLru, which reuses evicted nodes for the incoming
// flow, so the steady state allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/flow.h"
#include "sim/bounded.h"
#include "sim/time.h"
#include "stats/histogram.h"

namespace prism::telemetry {

class JsonWriter;

class FlowTable {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;
  /// Per-flow histograms use 2^4 sub-buckets (<6.3% relative error) to
  /// keep capacity x histogram memory modest.
  static constexpr int kSubBucketBits = 4;

  /// Drop reasons remembered per flow (newest-first window).
  static constexpr std::size_t kDropHistory = 8;

  struct Entry {
    net::FiveTuple flow;
    int level = 0;  ///< priority class of the last accounted packet
    std::uint64_t packets = 0;  ///< frames delivered to a socket
    std::uint64_t bytes = 0;    ///< wire bytes of those frames
    std::uint64_t drops = 0;    ///< frames dropped at the socket layer
    sim::Time first_seen = -1;
    sim::Time last_seen = -1;
    stats::Histogram latency{kSubBucketBits};  ///< end-to-end, ns
    /// Last-N drop reasons as fault::DropReason codes (kept as ints so
    /// this header stays fault-free), oldest first.
    sim::BoundedRing<std::int8_t> drop_reasons{kDropHistory};

    /// Most-recent-first view of the recorded drop reasons.
    std::vector<int> recent_drop_reasons() const;
  };

  explicit FlowTable(std::size_t capacity = kDefaultCapacity);

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// Runtime switch (default on); off, record/record_drop are no-ops.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  /// Accounts one delivered frame. `e2e_ns` < 0 skips the latency
  /// histogram (skbs without a nic_rx stamp).
  void record(const net::FiveTuple& flow, std::size_t bytes, int level,
              sim::Duration e2e_ns, sim::Time at);

  /// Accounts one socket-layer drop (no bound socket / unparseable L4).
  /// `reason` is the fault::DropReason code, remembered in the flow's
  /// last-N history so "prism/flows" and the flight recorder agree on
  /// WHY a flow's packets died, not just how many (-1 = unknown).
  void record_drop(const net::FiveTuple& flow, int level, sim::Time at,
                   int reason = -1);

  /// One call per wire frame from the deliverer: delivered frames count
  /// packets/bytes (+ latency), undeliverable frames count drops.
  void record_frame(const net::FiveTuple& flow, std::size_t bytes,
                    int level, sim::Duration e2e_ns, sim::Time at,
                    bool delivered, int drop_reason = -1) {
    if (delivered) {
      record(flow, bytes, level, e2e_ns, at);
    } else {
      record_drop(flow, level, at, drop_reason);
    }
  }

  /// nullptr when the flow is not (or no longer) tracked.
  const Entry* lookup(const net::FiveTuple& flow) const;

  std::size_t size() const noexcept { return lru_.size(); }
  std::size_t capacity() const noexcept { return lru_.capacity(); }
  /// Flows pushed out by the LRU bound since construction/reset.
  std::uint64_t evictions() const noexcept { return lru_.evictions(); }

  /// Tracked entries, most recently seen first.
  std::vector<const Entry*> entries() const;

  void reset();

 private:
  /// Finds or inserts (possibly evicting) the entry, moving it to the
  /// LRU front.
  Entry& touch(const net::FiveTuple& flow, sim::Time at);

  bool enabled_ = true;
  sim::BoundedLru<net::FiveTuple, Entry> lru_;
};

/// Streams the table as JSON (the "prism/flows" proc file):
/// {"capacity":..., "tracked":..., "evictions":..., "flows":[...]}.
void write_flow_table_json(JsonWriter& w, const FlowTable& table);
std::string flow_table_json(const FlowTable& table);

}  // namespace prism::telemetry
