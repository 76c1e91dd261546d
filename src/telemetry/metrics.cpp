#include "telemetry/metrics.h"

namespace prism::telemetry {

Gauge& Gauge::sink() noexcept {
  static Gauge sink;
  return sink;
}

Registry::NamedCounter& Registry::named_counter(std::string_view name) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return *it->second;
  counters_.push_back(NamedCounter{std::string(name), Counter{}, {}});
  NamedCounter& slot = counters_.back();
  counter_index_.emplace(slot.name, &slot);
  return slot;
}

void Registry::attach(std::string_view name, const std::uint64_t& source) {
  named_counter(name).sources.push_back(&source);
}

Counter& Registry::counter(std::string_view name) {
  return named_counter(name).owned;
}

Gauge& Registry::gauge(std::string_view name) {
  const auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return *it->second;
  gauges_.push_back(NamedGauge{std::string(name), Gauge{}});
  NamedGauge& slot = gauges_.back();
  gauge_index_.emplace(slot.name, &slot.gauge);
  return slot.gauge;
}

std::uint64_t Registry::counter_value(
    std::string_view name) const noexcept {
  const auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : it->second->value();
}

std::vector<CounterSample> Registry::counters() const {
  std::vector<CounterSample> out;
  out.reserve(counters_.size());
  for (const auto& c : counters_) {
    out.push_back(CounterSample{c.name, c.value()});
  }
  return out;
}

std::vector<GaugeSample> Registry::gauges() const {
  std::vector<GaugeSample> out;
  out.reserve(gauges_.size());
  for (const auto& g : gauges_) {
    out.push_back(
        GaugeSample{g.name, g.gauge.value(), g.gauge.max_value()});
  }
  return out;
}

}  // namespace prism::telemetry
