#include "overlay/flow_cache.h"

namespace prism::overlay {

const FlowCacheEntry* FlowCache::lookup(const net::FiveTuple& flow,
                                        std::uint32_t vni) {
  if (!enabled_) return nullptr;
  const auto it = lru_.find(FlowCacheKey{flow, vni});
  if (it == lru_.end()) {
    ++misses_;
    return nullptr;
  }
  if (it->value.generation != generation_) {
    // Stale: the world changed since this transform was recorded. Drop
    // the entry and report a miss — the slow path re-resolves and
    // repopulates with the current generation.
    ++stale_;
    ++misses_;
    lru_.erase(it);
    return nullptr;
  }
  lru_.touch(it);
  ++hits_;
  return &it->value;
}

void FlowCache::insert(const net::FiveTuple& flow, std::uint32_t vni,
                       Netns* dst, int priority,
                       std::uint64_t generation) {
  if (!enabled_ || dst == nullptr) return;
  const FlowCacheKey key{flow, vni};
  const auto it = lru_.find(key);
  if (it != lru_.end()) {
    // Refresh in place (e.g. repopulation after an invalidation).
    lru_.touch(it);
    it->value = FlowCacheEntry{dst, priority, generation};
  } else {
    lru_.insert(key) = FlowCacheEntry{dst, priority, generation};
  }
  ++insertions_;
}

void FlowCache::reset() {
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
  stale_ = 0;
  insertions_ = 0;
  invalidations_ = 0;
}

void FlowCache::bind_telemetry(telemetry::Registry& reg,
                               const std::string& prefix) {
  reg.attach(prefix + "hits", hits_);
  reg.attach(prefix + "misses", misses_);
  reg.attach(prefix + "stale", stale_);
  reg.attach(prefix + "insertions", insertions_);
  reg.attach(prefix + "evictions", lru_.evictions());
  reg.attach(prefix + "invalidations", invalidations_);
}

}  // namespace prism::overlay
