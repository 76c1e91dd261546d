// Reproduces Fig. 10: per-packet latency of high-priority *host* traffic
// in the presence of low-priority background traffic.
//
// Paper result: on the native (non-overlay) path PRISM cannot improve
// latency over Vanilla — the host pipeline has a single stage and the
// prototype cannot differentiate priority inside the physical NIC driver
// (paper §IV-D). PRISM's benefit is specific to multi-stage pipelines.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"
#include "stats/cdf.h"

int main(int argc, char** argv) {
  using namespace prism;
  bench::check_flags(
      argc, argv, {"--seed", "--trace-flows", "--slo-us", "--inversion-us"});
  bench::print_header(
      "Figure 10", "high-priority HOST-path latency vs background traffic");

  // Same detector flags as fig09: --seed / --trace-flows / --slo-us.
  const std::uint64_t seed = bench::parse_seed(argc, argv);
  const std::uint32_t trace_flows = bench::parse_trace_flows(argc, argv);
  const sim::Duration slo = bench::parse_slo_us(argc, argv);
  const sim::Duration inv = bench::parse_inversion_us(argc, argv, 50);

  auto run = [&](kernel::NapiMode mode, bool busy) {
    harness::PriorityScenarioConfig cfg;
    cfg.mode = mode;
    cfg.busy = busy;
    cfg.overlay = false;  // native host path: single stage
    cfg.arm_detectors = true;
    if (trace_flows > 0) cfg.trace_sample_period = trace_flows;
    cfg.slo_p99_ns = slo;
    cfg.inversion_wait_ns = inv;
    cfg.wire_drop_rate = 0.005;
    cfg.wire_dup_rate = 0.002;
    cfg.fault_seed = seed;
    return harness::run_priority_scenario(cfg);
  };

  const auto idle = run(kernel::NapiMode::kVanilla, false);
  const auto vanilla = run(kernel::NapiMode::kVanilla, true);
  const auto batch = run(kernel::NapiMode::kPrismBatch, true);
  const auto sync = run(kernel::NapiMode::kPrismSync, true);

  stats::Table table({"configuration", "min(us)", "mean(us)", "p50(us)",
                      "p90(us)", "p99(us)", "rx-cpu"});
  bench::add_latency_row(table, "idle (reference)", idle.latency,
                         bench::pct(idle.rx_cpu_utilization));
  bench::add_latency_row(table, "busy vanilla", vanilla.latency,
                         bench::pct(vanilla.rx_cpu_utilization));
  bench::add_latency_row(table, "busy prism-batch", batch.latency,
                         bench::pct(batch.rx_cpu_utilization));
  bench::add_latency_row(table, "busy prism-sync", sync.latency,
                         bench::pct(sync.rx_cpu_utilization));
  std::printf("%s\n", table.render().c_str());

  const auto vs = stats::summarize(vanilla.latency);
  const auto ss = stats::summarize(sync.latency);
  const double mean_delta = 100.0 * (ss.mean_ns - vs.mean_ns) / vs.mean_ns;
  std::printf(
      "PRISM-sync vs vanilla (busy, host path): mean %+.0f%%\n"
      "(paper: no improvement — the single-stage host pipeline gives PRISM "
      "nothing to preempt)\n",
      mean_delta);

  // Attribution on the host path: ring_wait + stage1_service only — the
  // measured form of the single-stage argument above.
  std::printf("\n");
  bench::print_latency_breakdown("busy vanilla", vanilla.server_latency);
  bench::print_latency_breakdown("busy prism-sync", sync.server_latency);

  // Detector view of the same argument: the host path has no stage
  // queues, so there are no queue inversions for Prism to remove — every
  // inversion here is a ring inversion (the priority-blind NIC FIFO),
  // and it fires under every mode alike (paper §IV-D).
  std::printf("anomaly detectors (seed=%llu):\n",
              static_cast<unsigned long long>(seed));
  bench::print_anomaly_summary("idle", idle.server_anomalies);
  bench::print_anomaly_summary("busy vanilla", vanilla.server_anomalies);
  bench::print_anomaly_summary("busy prism-batch", batch.server_anomalies);
  bench::print_anomaly_summary("busy prism-sync", sync.server_anomalies);
  return 0;
}
