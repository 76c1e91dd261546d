// Wall-clock scaling benchmark for the parallel lane engine.
//
// Runs the multi-pair Cluster harness (one simulation lane per host,
// conservative windows at the wire boundary) over a thread sweep and
// reports wall-clock events/sec at 1/2/4/8 lanes' worth of threads, on a
// 4-host and an 8-host topology. Alongside the scaling curve it measures
// the single-thread cost of the lane backend itself against the classic
// shared-simulator engine (target: <= 5% regression, so the parallel
// machinery is free when unused), verifies that every thread count
// executed the exact same simulation (the lane engine's determinism
// guarantee), and records peak RSS, per-lane event rates, and the
// machine's hardware concurrency — scaling numbers are only meaningful
// relative to the cores that were actually available.
//
// Results go to stdout and BENCH_parallel.json (override with
// PRISM_BENCH_OUT or argv[1]). Report-only: always exits 0.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/sockperf.h"
#include "bench_util.h"
#include "harness/cluster.h"
#include "harness/testbed.h"
#include "sim/lane_profiler.h"
#include "telemetry/json_writer.h"
#include "telemetry/rollup.h"
#include "telemetry/span_tracer.h"

using namespace prism;

namespace {

constexpr std::uint16_t kProbePort = 11111;
constexpr std::uint16_t kBgPort = 11112;
constexpr std::uint16_t kProbeSrcPort = 20000;
constexpr std::uint16_t kBgSrcBase = 21000;

constexpr sim::Duration kWarmup = sim::milliseconds(50);
constexpr sim::Duration kDuration = sim::milliseconds(200);
constexpr sim::Duration kDrain = sim::milliseconds(20);
constexpr double kBgRatePps = 200'000.0;
constexpr int kReps = 3;
/// The classic-vs-lane A/B uses more reps, interleaved, because machine
/// noise between back-to-back runs easily exceeds the 5% budget.
constexpr int kAbReps = 5;

/// Single-thread lane-backend overhead budget vs the classic engine.
constexpr double kSingleLaneRegressionTarget = 0.05;

/// The paper-testbed workload, deployed once per pair: a 1 kpps echo
/// probe (high priority) plus a background flood, container to container
/// over each pair's VXLAN overlay.
struct PairApps {
  std::unique_ptr<apps::SockperfServer> probe_server;
  std::unique_ptr<apps::SockperfServer> bg_server;
  std::unique_ptr<apps::SockperfClient> probe_client;
  std::unique_ptr<apps::SockperfClient> bg_client;
};

apps::SockperfClient::Config probe_config(kernel::Host& client,
                                          overlay::Netns& ns,
                                          net::Ipv4Addr dst_ip) {
  apps::SockperfClient::Config c;
  c.host = &client;
  c.ns = &ns;
  c.cpus = {&client.cpu(1)};
  c.base_src_port = kProbeSrcPort;
  c.dst_ip = dst_ip;
  c.dst_port = kProbePort;
  c.rate_pps = 1'000.0;
  c.payload_size = 64;
  c.reply_every = 1;
  c.start_at = kWarmup;
  c.stop_at = kWarmup + kDuration;
  return c;
}

apps::SockperfClient::Config bg_config(kernel::Host& client,
                                       overlay::Netns& ns,
                                       net::Ipv4Addr dst_ip) {
  apps::SockperfClient::Config c;
  c.host = &client;
  c.ns = &ns;
  c.cpus = {&client.cpu(2), &client.cpu(3)};
  c.base_src_port = kBgSrcBase;
  c.dst_ip = dst_ip;
  c.dst_port = kBgPort;
  c.rate_pps = kBgRatePps;
  c.payload_size = 64;
  c.burst = 64;
  c.reply_every = 0;
  c.start_at = 0;
  c.stop_at = kWarmup + kDuration;
  return c;
}

struct ClusterPoint {
  int pairs = 0;
  int threads = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t windows = 0;
  std::uint64_t spills = 0;
  std::vector<std::uint64_t> per_lane_events;

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0; }
};

/// What a profiled run leaves behind after the cluster is gone: the
/// "prism/lanes" document for the result file, a rendered per-lane
/// imbalance table for stdout, and the sampled rounds as a Chrome trace
/// (one window track + one barrier-stall track per lane).
struct ProfiledCapture {
  std::string lanes_json;
  std::string table;
  std::string trace_json;
};

/// Renders the profiler's per-lane totals as the lane-imbalance table
/// (who did the work, who set the pace).
std::string render_lane_table(const sim::LaneProfiler& p) {
  std::string out;
  char line[160];
  const std::uint64_t rounds = p.rounds_recorded();
  std::snprintf(line, sizeof(line),
                "%-5s %12s %10s %9s %11s %7s %10s\n", "lane", "events",
                "busy_ms", "crit%", "inbox_msgs", "spills", "high_water");
  out += line;
  for (int i = 0; i < p.num_lanes(); ++i) {
    const auto& l = p.lane(i);
    std::snprintf(
        line, sizeof(line), "%-5d %12llu %10.2f %8.1f%% %11llu %7llu %10u\n",
        i, static_cast<unsigned long long>(l.events),
        static_cast<double>(l.busy_ns) / 1e6,
        rounds > 0 ? 100.0 * static_cast<double>(l.critical_rounds) /
                         static_cast<double>(rounds)
                   : 0.0,
        static_cast<unsigned long long>(l.inbox_msgs),
        static_cast<unsigned long long>(l.inbox_spills),
        l.inbox_high_water);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "busy imbalance (max/mean)=%.2f  event imbalance=%.2f  "
                "rounds=%llu  (busy_ms sampled 1/%llu rounds)\n",
                p.busy_imbalance(), p.event_imbalance(),
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(p.sample_every()));
  out += line;
  return out;
}

/// One timed cluster run: `pairs` client/server pairs (2*pairs lanes) on
/// `threads` OS threads. The timed section covers the whole run
/// (warmup + measurement + drain), matching perf_smoke's convention.
/// `capture` non-null enables the lane profiler for this run (kept out of
/// the timed sweep points so the scaling curve stays profiler-free).
ClusterPoint run_cluster(int pairs, int threads,
                         ProfiledCapture* capture = nullptr) {
  harness::ClusterConfig cc;
  cc.pairs = pairs;
  cc.mode = kernel::NapiMode::kPrismSync;
  harness::Cluster cluster(cc);
  if (capture != nullptr) cluster.enable_lane_profiler();

  std::vector<PairApps> apps_by_pair;
  for (int p = 0; p < pairs; ++p) {
    auto& cli_probe_ns = cluster.add_client_container(p, "probe-cli");
    auto& cli_bg_ns = cluster.add_client_container(p, "bg-cli");
    auto& srv_probe_ns = cluster.add_server_container(p, "probe-srv");
    auto& srv_bg_ns = cluster.add_server_container(p, "bg-srv");
    cluster.server(p).priority_db().add(srv_probe_ns.ip(), kProbePort);
    cluster.client(p).priority_db().add(cli_probe_ns.ip(), kProbeSrcPort);

    PairApps a;
    a.probe_server = std::make_unique<apps::SockperfServer>(
        cluster.server_sim(p),
        apps::SockperfServer::Config{&cluster.server(p), &srv_probe_ns,
                                     &cluster.server(p).cpu(1), kProbePort});
    a.bg_server = std::make_unique<apps::SockperfServer>(
        cluster.server_sim(p),
        apps::SockperfServer::Config{&cluster.server(p), &srv_bg_ns,
                                     &cluster.server(p).cpu(2), kBgPort});
    a.probe_client = std::make_unique<apps::SockperfClient>(
        cluster.client_sim(p),
        probe_config(cluster.client(p), cli_probe_ns, srv_probe_ns.ip()));
    a.bg_client = std::make_unique<apps::SockperfClient>(
        cluster.client_sim(p),
        bg_config(cluster.client(p), cli_bg_ns, srv_bg_ns.ip()));
    a.probe_client->start();
    a.bg_client->start();
    apps_by_pair.push_back(std::move(a));
  }

  const auto t0 = std::chrono::steady_clock::now();
  cluster.run_until(kWarmup + kDuration + kDrain, threads);
  const auto t1 = std::chrono::steady_clock::now();

  ClusterPoint r;
  r.pairs = pairs;
  r.threads = threads;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = cluster.lanes().events_executed();
  r.messages = cluster.lanes().messages_posted();
  r.windows = cluster.lanes().windows_run();
  r.spills = cluster.lanes().inbox_spills();
  for (int i = 0; i < cluster.num_hosts(); ++i) {
    r.per_lane_events.push_back(cluster.lanes().lane(i).events_executed());
  }
  if (capture != nullptr) {
    capture->lanes_json = cluster.proc_read("prism/lanes");
    capture->table = render_lane_table(*cluster.lane_profiler());
    telemetry::SpanTracer tracer;
    cluster.export_lane_trace(tracer);
    capture->trace_json = tracer.export_chrome_trace("perf_parallel");
  }
  return r;
}

ClusterPoint best_of_cluster(int pairs, int threads, int reps) {
  ClusterPoint best;
  for (int i = 0; i < reps; ++i) {
    ClusterPoint p = run_cluster(pairs, threads);
    if (best.wall_s == 0 || p.wall_s < best.wall_s) best = p;
  }
  return best;
}

/// The same per-pair workload on the classic two-host Testbed (shared
/// single-threaded simulator) — the baseline the lane backend's serial
/// cost is judged against.
double run_testbed_events_per_sec() {
  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kPrismSync;
  // Match the cluster pair's topology so the per-event cost is
  // comparable (Testbed defaults to 6 client CPUs, Cluster pairs to 4).
  tc.client_cpus = 4;
  tc.server_cpus = 4;
  harness::Testbed tb(tc);
  auto& cli_probe_ns = tb.add_client_container("probe-cli");
  auto& cli_bg_ns = tb.add_client_container("bg-cli");
  auto& srv_probe_ns = tb.add_server_container("probe-srv");
  auto& srv_bg_ns = tb.add_server_container("bg-srv");
  tb.server().priority_db().add(srv_probe_ns.ip(), kProbePort);
  tb.client().priority_db().add(cli_probe_ns.ip(), kProbeSrcPort);

  apps::SockperfServer probe_server(
      tb.sim(),
      {&tb.server(), &srv_probe_ns, &tb.server().cpu(1), kProbePort});
  apps::SockperfServer bg_server(
      tb.sim(),
      {&tb.server(), &srv_bg_ns, &tb.server().cpu(2), kBgPort});
  apps::SockperfClient probe_client(
      tb.sim(),
      probe_config(tb.client(), cli_probe_ns, srv_probe_ns.ip()));
  apps::SockperfClient bg_client(
      tb.sim(), bg_config(tb.client(), cli_bg_ns, srv_bg_ns.ip()));
  probe_client.start();
  bg_client.start();

  const auto t0 = std::chrono::steady_clock::now();
  tb.run_until(kWarmup + kDuration + kDrain);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  const std::uint64_t events = tb.sim().events_executed();
  return wall > 0 ? static_cast<double>(events) / wall : 0;
}


/// Peak resident set size in bytes (VmHWM); 0 when unavailable.
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("perf_parallel",
                      "lane-engine scaling: events/sec vs thread count");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency=%u  (speedups are bounded by real "
              "cores, not lanes)\n\n",
              hw);

  // Single-thread lane-backend overhead vs the classic engine: the same
  // one-pair workload on (a) the classic shared simulator and (b) two
  // lanes driven by one OS thread — windows, barriers and inbox drains
  // all run, with zero actual parallelism, so the difference is exactly
  // what the lane machinery costs when it buys nothing. Reps alternate
  // A/B so slow spells on a shared box penalize both engines alike;
  // best-of discards the disturbed reps.
  double classic_eps = 0;
  ClusterPoint lane_serial;
  for (int i = 0; i < kAbReps; ++i) {
    const double c = run_testbed_events_per_sec();
    if (c > classic_eps) classic_eps = c;
    ClusterPoint p = run_cluster(1, 1);
    if (lane_serial.wall_s == 0 || p.wall_s < lane_serial.wall_s) {
      lane_serial = std::move(p);
    }
  }
  const double lane_eps = lane_serial.events_per_sec();
  const double regression =
      classic_eps > 0 ? 1.0 - lane_eps / classic_eps : 0.0;
  std::printf("testbed classic ev/s=%12.0f\n", classic_eps);
  std::printf("testbed lanes   ev/s=%12.0f  regression=%5.1f%% "
              "(target <= %.0f%%)%s\n\n",
              lane_eps, regression * 100.0,
              kSingleLaneRegressionTarget * 100.0,
              regression <= kSingleLaneRegressionTarget ? ""
                                                        : "  ** OVER **");

  // Thread sweep on 4-host and 8-host clusters.
  std::vector<ClusterPoint> points;
  bool deterministic = true;
  for (int pairs : {2, 4}) {
    const int lanes = 2 * pairs;
    ClusterPoint base;
    for (int threads : {1, 2, 4, 8}) {
      if (threads > lanes) continue;
      ClusterPoint p = best_of_cluster(pairs, threads, kReps);
      if (threads == 1) {
        base = p;
      } else if (p.events != base.events ||
                 p.per_lane_events != base.per_lane_events) {
        deterministic = false;  // lane engine must not depend on threads
      }
      const double speedup =
          base.wall_s > 0 && p.wall_s > 0 ? base.wall_s / p.wall_s : 0.0;
      const bool advisory = hw > 0 && static_cast<unsigned>(threads) > hw;
      std::printf(
          "hosts=%d threads=%d  wall=%7.3fs  events=%10llu  "
          "ev/s=%12.0f  speedup=%.2fx  windows=%llu  msgs=%llu  "
          "spills=%llu%s\n",
          lanes, threads, p.wall_s,
          static_cast<unsigned long long>(p.events), p.events_per_sec(),
          speedup, static_cast<unsigned long long>(p.windows),
          static_cast<unsigned long long>(p.messages),
          static_cast<unsigned long long>(p.spills),
          advisory ? "  (advisory: threads > cores)" : "");
      points.push_back(std::move(p));
    }
    std::printf("\n");
  }
  std::printf("determinism across thread counts: %s\n",
              deterministic ? "OK" : "** DIVERGED **");

  // One profiled 4-host run (not part of the timed sweep): where the
  // wall-clock goes per lane, and who bounded each round's fixpoint.
  ProfiledCapture capture;
  run_cluster(2, 4, &capture);
  std::printf("\nlane profile (4 hosts, 4 threads):\n%s",
              capture.table.c_str());
  const std::uint64_t rss = peak_rss_bytes();
  std::printf("peak RSS=%.1f MiB\n", static_cast<double>(rss) / (1 << 20));

  const char* out_path = std::getenv("PRISM_BENCH_OUT");
  if (argc > 1) out_path = argv[1];
  if (out_path == nullptr) out_path = "BENCH_parallel.json";

  telemetry::JsonWriter w;
  w.begin_object();
  w.member("bench", "perf_parallel");
  w.member("mode", "prism_sync");
  w.member("hardware_concurrency", static_cast<std::uint64_t>(hw));
  w.member("sim_ms", sim::to_ms(kWarmup + kDuration + kDrain));
  w.member("reps_per_point", kReps);
  w.member("bg_rate_pps_per_pair", kBgRatePps);
  w.key("single_lane");
  w.begin_object();
  w.member("ab_reps", kAbReps);
  w.member("classic_events_per_sec", classic_eps);
  w.member("lane_events_per_sec", lane_eps);
  w.member("regression_fraction", regression);
  w.member("target_fraction", kSingleLaneRegressionTarget);
  w.member("within_target", regression <= kSingleLaneRegressionTarget);
  w.end_object();
  w.key("scaling");
  w.begin_array();
  for (const ClusterPoint& p : points) {
    w.begin_object();
    w.member("pairs", static_cast<std::uint64_t>(p.pairs));
    w.member("lanes", static_cast<std::uint64_t>(2 * p.pairs));
    w.member("threads", static_cast<std::uint64_t>(p.threads));
    w.member("wall_s", p.wall_s);
    w.member("events", p.events);
    w.member("events_per_sec", p.events_per_sec());
    w.member("messages_posted", p.messages);
    w.member("windows_run", p.windows);
    w.member("inbox_spills", p.spills);
    // Oversubscribed points (more threads than real cores) measure
    // contention, not scaling; bench_check skips advisory points.
    if (hw > 0 && static_cast<unsigned>(p.threads) > hw) {
      w.member("advisory", true);
    }
    w.key("per_lane_events_per_sec");
    w.begin_array();
    for (std::uint64_t ev : p.per_lane_events) {
      w.value(p.wall_s > 0 ? static_cast<double>(ev) / p.wall_s : 0.0);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("determinism");
  w.begin_object();
  w.member("events_match_across_threads", deterministic);
  w.end_object();
  w.key("lanes").raw(capture.lanes_json);
  w.member("peak_rss_bytes", rss);
  w.end_object();

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perf_parallel: cannot write %s\n", out_path);
    return 0;  // report-only bench: never fail the build
  }
  std::fputs(w.str().c_str(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  // The profiled run's sampled rounds as a Chrome trace (Perfetto /
  // chrome://tracing): per-lane window and barrier-stall tracks.
  const char* trace_path = std::getenv("PRISM_LANE_TRACE_OUT");
  if (trace_path == nullptr) trace_path = "lane_trace.json";
  if (std::FILE* tf = std::fopen(trace_path, "w")) {
    std::fputs(capture.trace_json.c_str(), tf);
    std::fputc('\n', tf);
    std::fclose(tf);
    std::printf("wrote %s\n", trace_path);
  } else {
    std::fprintf(stderr, "perf_parallel: cannot write %s\n", trace_path);
  }
  return 0;
}
