// Ablation: Receive Packet Steering vs PRISM (paper §III-A).
//
// The vanilla two-list NAPI design exists so RPS can balance flows across
// CPUs without locking; PRISM trades that for a single streamlined list.
// This bench quantifies the trade: RPS scales aggregate multi-flow
// throughput across cores but does nothing for a single flow's latency,
// while PRISM cuts the latency of designated flows on one core.
#include <cstdio>

#include "apps/sockperf.h"
#include "bench_util.h"
#include "harness/testbed.h"

namespace {

struct Result {
  double delivered_pps;
  prism::stats::LatencySummary probe;
};

Result run(bool rps, prism::kernel::NapiMode mode, double rate_pps,
           int flows) {
  using namespace prism;
  harness::TestbedConfig tc;
  tc.mode = mode;
  if (rps) tc.server_rps_cpus = {0, 1, 2, 3};
  harness::Testbed tb(tc);
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  auto& probe_cli = tb.add_client_container("probe-cli");
  auto& probe_srv = tb.add_server_container("probe-srv");
  tb.server().priority_db().add(probe_srv.ip(), 11112);
  tb.client().priority_db().add(probe_cli.ip(), 22000);

  apps::SockperfServer bulk_server(
      tb.sim(),
      {&tb.server(), &srv, &tb.server().cpu(1), 11111});
  apps::SockperfServer probe_server(
      tb.sim(),
      {&tb.server(), &probe_srv, &tb.server().cpu(2), 11112});

  apps::SockperfClient::Config bulk;
  bulk.host = &tb.client();
  bulk.ns = &cli;
  for (int i = 0; i < flows; ++i) {
    bulk.cpus.push_back(&tb.client().cpu(1 + i % 4));
  }
  bulk.base_src_port = 21000;
  bulk.dst_ip = srv.ip();
  bulk.dst_port = 11111;
  bulk.rate_pps = rate_pps;
  bulk.burst = 32;
  bulk.stop_at = sim::milliseconds(300);
  apps::SockperfClient bulk_client(tb.sim(), bulk);
  bulk_client.start();

  apps::SockperfClient::Config probe;
  probe.host = &tb.client();
  probe.ns = &probe_cli;
  probe.cpus = {&tb.client().cpu(5)};
  probe.base_src_port = 22000;
  probe.dst_ip = probe_srv.ip();
  probe.dst_port = 11112;
  probe.rate_pps = 1000;
  probe.reply_every = 1;
  probe.start_at = sim::milliseconds(50);
  probe.stop_at = sim::milliseconds(300);
  apps::SockperfClient probe_client(tb.sim(), probe);
  probe_client.start();

  tb.run_until(sim::milliseconds(330));
  Result r;
  r.delivered_pps =
      static_cast<double>(bulk_server.received()) / 0.300;
  r.probe = stats::summarize(probe_client.latency());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prism;
  bench::check_flags(argc, argv, {});
  bench::print_header("Ablation",
                      "RPS (flow parallelism) vs PRISM (prioritization)");

  stats::Table table({"configuration", "bulk delivered Kpps",
                      "probe mean(us)", "probe p99(us)"});
  struct Row {
    const char* label;
    bool rps;
    kernel::NapiMode mode;
  };
  const Row rows[] = {
      {"vanilla, 1 core", false, kernel::NapiMode::kVanilla},
      {"vanilla + RPS(4)", true, kernel::NapiMode::kVanilla},
      {"prism-batch, 1 core", false, kernel::NapiMode::kPrismBatch},
      {"prism-batch + RPS(4)", true, kernel::NapiMode::kPrismBatch},
  };
  for (const auto& row : rows) {
    const auto r = run(row.rps, row.mode, 500'000, 4);
    table.add_row({row.label, bench::kpps(r.delivered_pps),
                   bench::us(r.probe.mean_ns), bench::us(r.probe.p99_ns)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "RPS recovers aggregate throughput by spreading the 4 bulk flows\n"
      "across cores; PRISM cuts the probe's latency. The mechanisms are\n"
      "complementary — PRISM's single poll list still admits steering\n"
      "(paper §III-A discusses the trade-off).\n");
  return 0;
}
