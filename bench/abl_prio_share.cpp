// Ablation: how much high-priority traffic can PRISM protect?
//
// The paper's scenarios keep the high-priority flow small (1 Kpps probe
// vs 300 Kpps background). This sweep raises the high-priority rate and
// watches PRISM-batch's advantage shrink: once high-priority batches
// saturate the pipeline themselves, there is nothing left to preempt.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace prism;
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation", "high-priority traffic share vs PRISM benefit");

  stats::Table table({"probe Kpps", "vanilla p50(us)", "batch p50(us)",
                      "gain", "vanilla p99(us)", "batch p99(us)"});
  for (const double probe_kpps : {1.0, 5.0, 20.0, 50.0, 100.0}) {
    harness::PriorityScenarioConfig cfg;
    cfg.busy = true;
    cfg.bg_rate_pps = 250'000;  // leave headroom for the probe sweep
    cfg.probe_rate_pps = probe_kpps * 1e3;
    cfg.duration = sim::milliseconds(300);

    cfg.mode = kernel::NapiMode::kVanilla;
    const auto vanilla = harness::run_priority_scenario(cfg);
    cfg.mode = kernel::NapiMode::kPrismBatch;
    const auto batch = harness::run_priority_scenario(cfg);

    const double gain =
        1.0 - static_cast<double>(batch.latency.percentile(0.5)) /
                  static_cast<double>(vanilla.latency.percentile(0.5));
    table.add_row({stats::Table::cell(probe_kpps, 0),
                   bench::us(vanilla.latency.percentile(0.5)),
                   bench::us(batch.latency.percentile(0.5)),
                   stats::Table::cell(gain * 100, 0) + "%",
                   bench::us(vanilla.latency.percentile(0.99)),
                   bench::us(batch.latency.percentile(0.99))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "PRISM's design target is low-volume latency-sensitive flows\n"
      "(paper §II-B); as the high-priority share grows, its packets\n"
      "increasingly queue behind each other rather than behind background\n"
      "batches, and the preemption advantage fades.\n");
  return 0;
}
