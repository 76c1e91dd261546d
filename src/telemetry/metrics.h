// Metrics registry over component-owned counters.
//
// The paper's analysis leans on kernel counters (softnet_stat, ring drops,
// NAPI budget exhaustion). As in Linux, the datapath bumps plain uint64
// fields it owns and the registry only names them: a registry counter is
// the sum of the fields attached under its name, read at snapshot time,
// so a counted event is one add. The registry points into components and
// must not be read after one dies (Host declares it before them all).
// The costlier recorders (LatencyLedger, FlowTable, FlightRecorder,
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

/// Registry-owned monotonic counter, for callers with no field of their
/// own to attach. Handles stay valid for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }

  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

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

  /// Process-wide bit bucket for unbound gauges (its value is
  /// meaningless), so hot paths can set unconditionally.
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

/// Names counters and owns gauges. Registration is idempotent (one entry
/// per name, so components may share an aggregate by name), snapshots
/// keep first-registration order, and entries never move (deque storage).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Adds `source` to the counter `name` (registered on first use), which
  /// reads as the sum of its sources. `source` must stay at its address
  /// for as long as the registry is read: attaching types delete their
  /// copy and move operations, and Host declares its registry before
  /// every component so the registry is destroyed last.
  void attach(std::string_view name, const std::uint64_t& source);

  /// Registers (or finds) the registry-owned counter `name`, itself one
  /// more source of that name.
  Counter& counter(std::string_view name);

  /// Registers (or finds) a gauge.
  Gauge& gauge(std::string_view name);

  /// Current value of a counter; 0 when the name is unknown.
  std::uint64_t counter_value(std::string_view name) const noexcept;

  /// Snapshots in registration order.
  std::vector<CounterSample> counters() const;
  std::vector<GaugeSample> gauges() const;

  std::size_t counter_count() const noexcept { return counters_.size(); }
  std::size_t gauge_count() const noexcept { return gauges_.size(); }

 private:
  struct NamedCounter {
    std::string name;
    Counter owned;
    std::vector<const std::uint64_t*> sources;

    std::uint64_t value() const noexcept {
      std::uint64_t sum = owned.value();
      for (const std::uint64_t* s : sources) sum += *s;
      return sum;
    }
  };
  struct NamedGauge {
    std::string name;
    Gauge gauge;
  };

  NamedCounter& named_counter(std::string_view name);

  std::deque<NamedCounter> counters_;
  std::deque<NamedGauge> gauges_;
  // Keys are views into the deque-owned names (never erased, so stable).
  std::unordered_map<std::string_view, NamedCounter*> counter_index_;
  std::unordered_map<std::string_view, Gauge*> gauge_index_;
};

}  // namespace prism::telemetry
