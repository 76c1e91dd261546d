// Ablation: preemption granularity (paper §III-B2).
//
// The paper frames PRISM-batch as the sweet spot between two extremes:
// checking for high-priority packets per packet (PRISM-sync's effect) and
// per device poll (no preemption at all). This bench decomposes
// PRISM-batch into its two ingredients:
//
//   * prism-queues: dual per-device queues, high polled first, but no
//     poll-list head insertion;
//   * prism-batch:  dual queues + head insertion (batch-level preemption);
//   * prism-sync:   per-packet run-to-completion.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace prism;
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation",
      "preemption granularity: none / queues-only / batch / per-packet");

  stats::Table table({"mode", "min(us)", "mean(us)", "p50(us)", "p90(us)",
                      "p99(us)", "rx-cpu"});
  for (const auto mode :
       {kernel::NapiMode::kVanilla, kernel::NapiMode::kPrismQueues,
        kernel::NapiMode::kPrismBatch, kernel::NapiMode::kPrismSync}) {
    harness::PriorityScenarioConfig cfg;
    cfg.mode = mode;
    cfg.busy = true;
    cfg.duration = sim::milliseconds(300);
    const auto res = harness::run_priority_scenario(cfg);
    bench::add_latency_row(table, kernel::to_string(mode), res.latency,
                           bench::pct(res.rx_cpu_utilization));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Dual queues alone let high-priority packets jump per-device\n"
      "backlogs; head insertion additionally reorders the device schedule\n"
      "(batch-level preemption); run-to-completion removes the remaining\n"
      "batch waits. Worst-case preemption latency for prism-batch is one\n"
      "low-priority batch at one stage (paper §III-B2).\n");
  return 0;
}
