#include "kernel/napi.h"

#include <utility>

namespace prism::kernel {

const char* to_string(NapiMode mode) noexcept {
  switch (mode) {
    case NapiMode::kVanilla:
      return "vanilla";
    case NapiMode::kPrismBatch:
      return "prism-batch";
    case NapiMode::kPrismSync:
      return "prism-sync";
    case NapiMode::kPrismQueues:
      return "prism-queues";
  }
  return "?";
}

PollOutcome QueueNapi::poll(int batch, sim::Time start) {
  PollOutcome out;
  out.cost = cost_.napi_poll_overhead;
  // Queue selection happens once per poll (Fig. 7 line 24), generalized
  // to multiple levels: the highest non-empty priority queue is drained
  // for this batch. Vanilla never fills levels above 0, so it always
  // takes the low branch.
  const int level = highest_pending();
  if (level < 0) {
    out.has_more = false;
    return out;
  }
  auto& q = queues[static_cast<std::size_t>(level)];
  const double mult = cost_.depth_multiplier(q.size());
  while (out.processed < batch && !q.empty()) {
    SkbPtr skb = std::move(q.front());
    q.pop_front();
    if (recorder_ != nullptr && skb->traced && skb->parsed) {
      // Queue wait replayed against the head class captured at enqueue;
      // the anomaly bank turns (wait, head) into inversion findings.
      const sim::Time dequeued = start + out.cost;
      recorder_->on_dequeue(net::flow_of(*skb->parsed), recorder_stage_,
                            skb->observed_class,
                            dequeued - last_done_stamp(*skb),
                            skb->head_class_at_enqueue, dequeued);
    }
    out.cost += stage_.process_one(std::move(skb), start + out.cost, mult);
    ++out.processed;
  }
  out.has_more = has_pending();
  return out;
}

}  // namespace prism::kernel
