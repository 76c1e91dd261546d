// Reproduces Fig. 12: memcached performance in the presence of
// low-priority background traffic.
//
// Paper setup: memaslap-style load against a containerized memcached
// (high priority), sockperf UDP throughput as background; idle vs busy,
// Vanilla vs PRISM-sync.
//
// Paper result: on a busy vanilla server, memcached throughput drops ~80%
// and average latency rises >5x vs idle. PRISM-sync roughly doubles the
// busy throughput and cuts min/avg/tail latency by ~66%/~47%/~27%.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace prism;
  bench::check_flags(argc, argv, {});
  bench::print_header("Figure 12",
                      "memcached throughput and latency under background "
                      "traffic");

  struct Row {
    const char* label;
    kernel::NapiMode mode;
    bool busy;
  };
  const Row rows[] = {
      {"idle vanilla", kernel::NapiMode::kVanilla, false},
      {"idle prism-sync", kernel::NapiMode::kPrismSync, false},
      {"busy vanilla", kernel::NapiMode::kVanilla, true},
      {"busy prism-sync", kernel::NapiMode::kPrismSync, true},
  };

  stats::Table table({"configuration", "ops/s", "min(us)", "mean(us)",
                      "p99(us)", "timeouts", "rx-cpu"});
  harness::MemcachedScenarioResult res[4];
  int i = 0;
  for (const auto& row : rows) {
    harness::MemcachedScenarioConfig cfg;
    cfg.mode = row.mode;
    cfg.busy = row.busy;
    res[i] = harness::run_memcached_scenario(cfg);
    const auto s = stats::summarize(res[i].latency);
    table.add_row({row.label,
                   stats::Table::cell(res[i].ops_per_second, 0),
                   bench::us(s.min_ns), bench::us(s.mean_ns),
                   bench::us(s.p99_ns),
                   std::to_string(res[i].timeouts),
                   bench::pct(res[i].rx_cpu_utilization)});
    ++i;
  }
  std::printf("%s\n", table.render().c_str());

  const auto idle_v = stats::summarize(res[0].latency);
  const auto busy_v = stats::summarize(res[2].latency);
  const auto busy_p = stats::summarize(res[3].latency);
  std::printf(
      "busy vanilla vs idle: throughput %+.0f%%, mean latency %.1fx\n"
      "(paper: -80%%, >5x)\n"
      "prism-sync vs vanilla (busy): throughput %+.0f%%, min %+.0f%%, "
      "mean %+.0f%%, p99 %+.0f%%\n"
      "(paper: ~+100%%, ~-66%%, ~-47%%, ~-27%%)\n",
      100.0 * (res[2].ops_per_second - res[0].ops_per_second) /
          res[0].ops_per_second,
      busy_v.mean_ns / idle_v.mean_ns,
      100.0 * (res[3].ops_per_second - res[2].ops_per_second) /
          res[2].ops_per_second,
      100.0 * static_cast<double>(busy_p.min_ns - busy_v.min_ns) /
          static_cast<double>(busy_v.min_ns),
      100.0 * (busy_p.mean_ns - busy_v.mean_ns) / busy_v.mean_ns,
      100.0 * static_cast<double>(busy_p.p99_ns - busy_v.p99_ns) /
          static_cast<double>(busy_v.p99_ns));

  std::printf("\n");
  bench::print_latency_breakdown("busy vanilla", res[2].server_latency);
  bench::print_latency_breakdown("busy prism-sync", res[3].server_latency);
  return 0;
}
