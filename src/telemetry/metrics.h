// Zero-allocation metrics registry.
//
// The paper's analysis leans on kernel counters (softnet_stat, ring drops,
// NAPI budget exhaustion) to explain where time and packets go. This
// registry gives the simulated stack the same substrate: components
// register named counters/gauges once (cold path, resolves a stable
// handle) and the hot path performs plain uint64 increments through that
// handle — no hashing, no locking, no allocation in steady state.
//
// Unbound instrumentation points write to a process-wide sink counter, so
// hot paths never branch on "is telemetry attached". Counters are always
// on; the costlier recorders (LatencyLedger, FlowTable, FlightRecorder,
// AnomalyBank) each have a runtime switch.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

// Always compiled in; the benchmark's run manifest still prints this.
#define PRISM_TELEMETRY_ENABLED 1

namespace prism::telemetry {

/// Monotonic event counter. Handles stay valid for the registry's (or the
/// sink's) lifetime; increments are a single add on the hot path.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }

  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

  /// Process-wide bit bucket for instrumentation points no registry has
  /// been bound to. Its value is meaningless (many components share it);
  /// it exists so hot paths can increment unconditionally.
  static Counter& sink() noexcept;

 private:
  std::uint64_t value_ = 0;
};

/// Level gauge with a high-watermark, for queue/backlog depths.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_ = v;
    if (v > max_) max_ = v;
  }

  void add(std::int64_t d) noexcept { set(value_ + d); }

  std::int64_t value() const noexcept { return value_; }
  std::int64_t max_value() const noexcept { return max_; }
  void reset() noexcept { value_ = 0; max_ = 0; }

  /// See Counter::sink().
  static Gauge& sink() noexcept;

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Snapshot of one named counter.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

/// Snapshot of one named gauge.
struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max_value = 0;
};

/// Owns named counters and gauges. Registration is idempotent: the same
/// name always resolves to the same handle, so independent components may
/// share an aggregate counter by name. Handle addresses are stable for the
/// registry's lifetime (deque storage, entries are never erased).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers (or finds) a counter. Cold path: one map lookup.
  Counter& counter(std::string_view name);

  /// Registers (or finds) a gauge.
  Gauge& gauge(std::string_view name);

  /// Value of a registered counter; 0 when the name is unknown.
  std::uint64_t counter_value(std::string_view name) const noexcept;

  /// Snapshots in registration order.
  std::vector<CounterSample> counters() const;
  std::vector<GaugeSample> gauges() const;

  std::size_t counter_count() const noexcept { return counters_.size(); }
  std::size_t gauge_count() const noexcept { return gauges_.size(); }

  /// Zeroes every counter and gauge (handles stay valid).
  void reset();

 private:
  struct NamedCounter {
    std::string name;
    Counter counter;
  };
  struct NamedGauge {
    std::string name;
    Gauge gauge;
  };

  std::deque<NamedCounter> counters_;
  std::deque<NamedGauge> gauges_;
  // Keys are views into the deque-owned names (never erased, so stable).
  std::unordered_map<std::string_view, Counter*> counter_index_;
  std::unordered_map<std::string_view, Gauge*> gauge_index_;
};

}  // namespace prism::telemetry
