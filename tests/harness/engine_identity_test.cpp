// One workload, both harnesses: the classic single-simulator Testbed and a
// one-pair Cluster on the lane engine (at 1 and at 2 OS threads) must run
// the paper's probe-plus-background workload to the same numbers. The
// Testbed runs only the classic engine; this checks that a lane run of the
// same pair would show nothing different.
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "apps/sockperf.h"
#include "harness/cluster.h"
#include "harness/testbed.h"
#include "sim/time.h"
#include "stats/summary.h"

namespace prism {
namespace {

constexpr std::uint16_t kProbePort = 11111;
constexpr std::uint16_t kBgPort = 11112;
constexpr std::uint16_t kProbeSrcPort = 20000;
constexpr sim::Time kStop = sim::milliseconds(10);
constexpr sim::Time kEnd = sim::milliseconds(12);

/// One client/server pair, whichever harness built it.
struct Pair {
  kernel::Host& client;
  kernel::Host& server;
  sim::Simulator& client_sim;
  sim::Simulator& server_sim;
  std::function<overlay::Netns&(const std::string&)> add_client_container;
  std::function<overlay::Netns&(const std::string&)> add_server_container;
  std::function<void(sim::Time)> run_until;
};

struct Outcome {
  std::string latency;  ///< server prism/latency
  std::string softnet;  ///< server net/softnet_stat
  stats::LatencySummary probe;
  std::uint64_t replies = 0;
  std::uint64_t bg_delivered = 0;
};

/// A 20 kpps ping-pong probe (high priority) against 400 kpps of burst-64
/// background, both stopping at 10 ms.
Outcome run_workload(const Pair& p) {
  overlay::Netns& cli_probe = p.add_client_container("probe-cli");
  overlay::Netns& cli_bg = p.add_client_container("bg-cli");
  overlay::Netns& srv_probe = p.add_server_container("probe-srv");
  overlay::Netns& srv_bg = p.add_server_container("bg-srv");
  p.server.priority_db().add(srv_probe.ip(), kProbePort);
  p.client.priority_db().add(cli_probe.ip(), kProbeSrcPort);

  apps::SockperfServer probe_server(
      p.server_sim, {&p.server, &srv_probe, &p.server.cpu(1), kProbePort});
  apps::SockperfServer bg_server(
      p.server_sim, {&p.server, &srv_bg, &p.server.cpu(2), kBgPort});

  apps::SockperfClient::Config probe;
  probe.host = &p.client;
  probe.ns = &cli_probe;
  probe.cpus = {&p.client.cpu(1)};
  probe.base_src_port = kProbeSrcPort;
  probe.dst_ip = srv_probe.ip();
  probe.dst_port = kProbePort;
  probe.rate_pps = 20'000.0;
  probe.reply_every = 1;
  probe.stop_at = kStop;
  apps::SockperfClient probe_client(p.client_sim, probe);

  apps::SockperfClient::Config bg;
  bg.host = &p.client;
  bg.ns = &cli_bg;
  bg.cpus = {&p.client.cpu(2), &p.client.cpu(3)};
  bg.base_src_port = 21000;
  bg.dst_ip = srv_bg.ip();
  bg.dst_port = kBgPort;
  bg.rate_pps = 400'000.0;
  bg.burst = 64;
  bg.stop_at = kStop;
  apps::SockperfClient bg_client(p.client_sim, bg);

  probe_client.start();
  bg_client.start();
  p.run_until(kEnd);

  Outcome o;
  o.latency = p.server.proc().read("prism/latency");
  o.softnet = p.server.proc().read("net/softnet_stat");
  o.probe = stats::summarize(probe_client.latency());
  o.replies = probe_client.replies();
  o.bg_delivered = bg_server.received();
  return o;
}

Outcome run_on_testbed(kernel::NapiMode mode) {
  harness::TestbedConfig tc;
  tc.mode = mode;
  tc.client_cpus = 4;  // a Cluster pair's client has 4 CPUs
  tc.server_cpus = 4;
  harness::Testbed tb(tc);
  return run_workload(
      {tb.client(), tb.server(), tb.sim(), tb.sim(),
       [&](const std::string& n) -> overlay::Netns& {
         return tb.add_client_container(n);
       },
       [&](const std::string& n) -> overlay::Netns& {
         return tb.add_server_container(n);
       },
       [&](sim::Time t) { tb.run_until(t); }});
}

Outcome run_on_cluster(kernel::NapiMode mode, int threads) {
  harness::ClusterConfig cc;
  cc.pairs = 1;
  cc.mode = mode;
  harness::Cluster cl(cc);
  return run_workload(
      {cl.client(0), cl.server(0), cl.client_sim(0), cl.server_sim(0),
       [&](const std::string& n) -> overlay::Netns& {
         return cl.add_client_container(0, n);
       },
       [&](const std::string& n) -> overlay::Netns& {
         return cl.add_server_container(0, n);
       },
       [&](sim::Time t) { cl.run_until(t, threads); }});
}

void expect_same(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.softnet, b.softnet);
  EXPECT_EQ(a.probe.count, b.probe.count);
  EXPECT_EQ(a.probe.mean_ns, b.probe.mean_ns);
  EXPECT_EQ(a.probe.p50_ns, b.probe.p50_ns);
  EXPECT_EQ(a.probe.p99_ns, b.probe.p99_ns);
  EXPECT_EQ(a.probe.max_ns, b.probe.max_ns);
  EXPECT_EQ(a.replies, b.replies);
  EXPECT_EQ(a.bg_delivered, b.bg_delivered);
}

TEST(EngineIdentityTest, TestbedMatchesClusterAtOneAndTwoThreads) {
  for (kernel::NapiMode mode :
       {kernel::NapiMode::kVanilla, kernel::NapiMode::kPrismBatch,
        kernel::NapiMode::kPrismSync}) {
    SCOPED_TRACE(kernel::to_string(mode));
    const Outcome classic = run_on_testbed(mode);
    ASSERT_GT(classic.probe.count, 0u);
    ASSERT_GT(classic.bg_delivered, 0u);
    expect_same(classic, run_on_cluster(mode, 1));
    expect_same(classic, run_on_cluster(mode, 2));
  }
}

TEST(EngineIdentityTest, TestbedRejectsAnyThreadCountButOne) {
  for (int threads : {0, 2}) {
    harness::TestbedConfig tc;
    tc.threads = threads;
    EXPECT_THROW(harness::Testbed{tc}, std::invalid_argument)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace prism
