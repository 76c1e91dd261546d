#include "telemetry/flow_table.h"

#include "fault/fault.h"
#include "telemetry/json_writer.h"

namespace prism::telemetry {

std::vector<int> FlowTable::Entry::recent_drop_reasons() const {
  std::vector<int> out;
  out.reserve(drop_reasons.size());
  for (std::size_t i = drop_reasons.size(); i > 0; --i) {
    out.push_back(drop_reasons.at(i - 1));
  }
  return out;
}

FlowTable::FlowTable(std::size_t capacity) : lru_(capacity) {
  lru_.reserve();
}

FlowTable::Entry& FlowTable::touch(const net::FiveTuple& flow,
                                   sim::Time at) {
  const auto it = lru_.find(flow);
  if (it != lru_.end()) {
    lru_.touch(it);
    it->value.last_seen = at;
    return it->value;
  }
  // A reused victim node keeps its histogram's bucket storage; clear
  // every field it carried.
  Entry& e = lru_.insert(flow);
  e.flow = flow;
  e.level = 0;
  e.packets = 0;
  e.bytes = 0;
  e.drops = 0;
  e.first_seen = at;
  e.last_seen = at;
  e.latency.reset();
  e.drop_reasons.clear();
  return e;
}

void FlowTable::record(const net::FiveTuple& flow, std::size_t bytes,
                       int level, sim::Duration e2e_ns, sim::Time at) {
  if (!enabled_) return;
  Entry& e = touch(flow, at);
  e.level = level;
  ++e.packets;
  e.bytes += bytes;
  if (e2e_ns >= 0) e.latency.record(e2e_ns);
}

void FlowTable::record_drop(const net::FiveTuple& flow, int level,
                            sim::Time at, int reason) {
  if (!enabled_) return;
  Entry& e = touch(flow, at);
  e.level = level;
  ++e.drops;
  e.drop_reasons.push(static_cast<std::int8_t>(reason));
}

const FlowTable::Entry* FlowTable::lookup(
    const net::FiveTuple& flow) const {
  const auto it = lru_.find(flow);
  return it == lru_.end() ? nullptr : &it->value;
}

std::vector<const FlowTable::Entry*> FlowTable::entries() const {
  std::vector<const Entry*> out;
  out.reserve(lru_.size());
  for (const auto& node : lru_) out.push_back(&node.value);
  return out;
}

void FlowTable::reset() { lru_.clear(); }

void write_flow_table_json(JsonWriter& w, const FlowTable& table) {
  w.begin_object();
  w.member("enabled", table.enabled());
  w.member("capacity", static_cast<std::uint64_t>(table.capacity()));
  w.member("tracked", static_cast<std::uint64_t>(table.size()));
  w.member("evictions", table.evictions());
  w.key("flows").begin_array();
  for (const auto* e : table.entries()) {
    w.begin_object();
    w.member("flow", e->flow.to_string());
    w.member("class", static_cast<std::int64_t>(e->level));
    w.member("packets", e->packets);
    w.member("bytes", e->bytes);
    w.member("drops", e->drops);
    w.member("first_seen_ns", e->first_seen);
    w.member("last_seen_ns", e->last_seen);
    w.member("latency_count", e->latency.count());
    w.member("latency_mean_ns", e->latency.mean());
    w.member("latency_p50_ns", e->latency.percentile(0.50));
    w.member("latency_p99_ns", e->latency.percentile(0.99));
    w.member("latency_max_ns", e->latency.max());
    w.key("last_drop_reasons").begin_array();
    for (const int code : e->recent_drop_reasons()) {
      w.value(code >= 0 && code < static_cast<int>(fault::DropReason::kCount)
                  ? fault::drop_reason_name(
                        static_cast<fault::DropReason>(code))
                  : "unknown");
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string flow_table_json(const FlowTable& table) {
  JsonWriter w;
  write_flow_table_json(w, table);
  return w.take();
}

}  // namespace prism::telemetry
