#include "kernel/softnet.h"

#include "overlay/netns.h"

namespace prism::kernel {

sim::Duration BacklogStage::process_one(SkbPtr skb, sim::Time at,
                                        double cost_multiplier) {
  auto cost = static_cast<sim::Duration>(
      static_cast<double>(cost_.backlog_stage_per_packet) *
      cost_multiplier);
  skb->ts.stage3_start = at;
  skb->ts.stage3_done = at + cost;
  if (skb->dst_netns == nullptr) {
    // No destination namespace (skb injected past the bridge without
    // routing): drop and recycle rather than dereferencing null.
    ++dropped_;
    if (faults_ != nullptr) {
      faults_->drops.record(fault::DropReason::kNullNetns, skb->priority);
    }
    return cost;
  }
  if (!skb->dst_netns->accepting()) {
    // Destination namespace began draining after this skb was routed at
    // the bridge (teardown between classification and delivery). The
    // pointer is a tombstone, safe to inspect; the packet drops with one
    // kDeadNetns record per carried frame, matching the deliverer's
    // per-frame accounting.
    ++dropped_;
    if (faults_ != nullptr) {
      const auto frames =
          static_cast<std::uint64_t>(1 + skb->gro_chain.size());
      for (std::uint64_t i = 0; i < frames; ++i) {
        faults_->drops.record(fault::DropReason::kDeadNetns, skb->priority);
      }
    }
    return cost;
  }
  ++delivered_;
  cost += deliverer_.deliver(*skb, at + cost, *skb->dst_netns);
  return cost;
}

}  // namespace prism::kernel
