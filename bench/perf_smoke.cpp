// Wall-clock performance smoke test for the simulator hot path.
//
// Unlike the figure benches (which report *simulated* latencies), this
// bench measures how fast the simulator itself runs: wall-clock events/sec
// and packets/sec over a fig11-style background-load sweep, peak RSS, the
// recycling-pool hit rates that the zero-allocation hot path is built
// around, and the cost of the telemetry layer (span tracer + counters)
// at the high-load point. Results go to stdout and to
// BENCH_perf_smoke.json (override the path with PRISM_BENCH_OUT or
// argv[1]).
//
// The JSON embeds the seed-tree throughput measured on the same reference
// machine so the speedup of the pooled/inline hot path is tracked release
// over release, plus a machine-readable telemetry block (registry dump,
// softnet_stat, net/dev) from the high-load run. The bench never fails
// the build: it always exits 0 and leaves the judgement to whoever reads
// the numbers.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/sockperf.h"
#include "bench_util.h"
#include "harness/cluster.h"
#include "harness/testbed.h"
#include "kernel/skb_pool.h"
#include "sim/pool.h"
#include "stats/summary.h"
#include "telemetry/json_writer.h"
#include "telemetry/snapshot.h"
#include "telemetry/span_tracer.h"

using namespace prism;

namespace {

constexpr std::uint16_t kProbePort = 11111;
constexpr std::uint16_t kBgPort = 11112;
constexpr std::uint16_t kProbeSrcPort = 20000;
constexpr std::uint16_t kBgSrcBase = 21000;

/// Seed-tree throughput at the 450 kpps sweep point (events/sec, best of
/// three, same harness and machine class). The hot-path work targets >= 2x.
constexpr double kSeedEventsPerSec = 3606833.0;

/// Target ceiling for the telemetry layer's hot-path cost at 450 kpps:
/// full tracing (span tracer on every CPU, latency ledger + flow table
/// recording every delivery) must stay within 3% of the counters-only
/// baseline events/sec.
constexpr double kTelemetryOverheadTarget = 0.03;

constexpr double kSweepKpps[] = {0, 100, 250, 450};
constexpr double kHighLoadKpps = 450;
constexpr int kRepsPerPoint = 3;

/// Minimum events a sweep point must execute inside its timed section.
/// At bg=0 the base 200 ms window holds only a few thousand events and
/// finishes in well under a millisecond of wall time, so its events/sec
/// was dominated by fixed costs (an outlier ~4x the loaded points). A
/// point that comes in light is re-measured over a proportionally longer
/// simulated window (capped at kMaxDurationScale x) so every reported
/// rate averages over a comparable event volume.
constexpr std::uint64_t kMinEventsPerPoint = 500'000;
constexpr double kMaxDurationScale = 64.0;

struct PointResult {
  double bg_kpps = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  /// Server overlay flow-cache counters (zero when the cache is off).
  std::uint64_t fc_hits = 0;
  std::uint64_t fc_misses = 0;
  double fc_hit_rate = 0.0;

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0; }
  double packets_per_sec() const {
    return wall_s > 0 ? packets / wall_s : 0;
  }
};

/// One fig11-style run: a latency probe flow plus a background flood at
/// `bg_rate_pps`, both container-to-container over the VXLAN overlay,
/// under the PRISM-sync pipeline. With `full_telemetry` a span tracer is
/// attached to every CPU of both hosts and the latency ledger + flow
/// table record on every delivery; without it the ledger and flow table
/// are runtime-disabled so the A/B isolates the whole recording layer
/// (the counters are always bound by Host). `telemetry_block`, if
/// non-null, receives the run's telemetry as a JSON value (registry dump
/// + rings + latency + flows + proc-style snapshots), rendered outside
/// the timed section. Without `full_telemetry` the flight recorder and
/// anomaly bank (armed by default on every host) are disarmed too, so
/// the baseline is truly counters-only; `flight_recorder` re-arms just
/// those two for the recorder-overhead A/B.
PointResult run_point(double bg_rate_pps, sim::Duration duration,
                      bool full_telemetry = false,
                      std::string* telemetry_block = nullptr,
                      bool flight_recorder = false,
                      bool flow_cache = false) {
  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kPrismSync;
  tc.flow_cache = flow_cache;
  harness::Testbed tb(tc);
  telemetry::SpanTracer tracer;
  if (full_telemetry) {
    tb.attach_span_tracer(tracer);
  } else {
    tb.server().latency_ledger().set_enabled(false);
    tb.server().flow_table().set_enabled(false);
    tb.client().latency_ledger().set_enabled(false);
    tb.client().flow_table().set_enabled(false);
    if (!flight_recorder) {
      tb.server().flight_recorder().set_armed(false);
      tb.server().anomalies().set_armed(false);
      tb.client().flight_recorder().set_armed(false);
      tb.client().anomalies().set_armed(false);
    }
  }
  const sim::Duration warmup = sim::milliseconds(50);
  const sim::Time t_end = warmup + duration;

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
      tb.sim(), {&tb.server(), &srv_bg_ns, &tb.server().cpu(2), kBgPort});

  apps::SockperfClient::Config probe_cfg;
  probe_cfg.host = &tb.client();
  probe_cfg.ns = &cli_probe_ns;
  probe_cfg.cpus = {&tb.client().cpu(1)};
  probe_cfg.base_src_port = kProbeSrcPort;
  probe_cfg.dst_ip = srv_probe_ns.ip();
  probe_cfg.dst_port = kProbePort;
  probe_cfg.rate_pps = 1000.0;
  probe_cfg.payload_size = 64;
  probe_cfg.reply_every = 1;
  probe_cfg.start_at = warmup;
  probe_cfg.stop_at = t_end;
  apps::SockperfClient probe_client(tb.sim(), probe_cfg);

  apps::SockperfClient::Config bg_cfg;
  bg_cfg.host = &tb.client();
  bg_cfg.ns = &cli_bg_ns;
  bg_cfg.cpus = {&tb.client().cpu(2), &tb.client().cpu(3)};
  bg_cfg.base_src_port = kBgSrcBase;
  bg_cfg.dst_ip = srv_bg_ns.ip();
  bg_cfg.dst_port = kBgPort;
  bg_cfg.rate_pps = bg_rate_pps > 0 ? bg_rate_pps : 1.0;
  bg_cfg.payload_size = 64;
  bg_cfg.burst = 64;
  bg_cfg.reply_every = 0;
  bg_cfg.start_at = 0;
  bg_cfg.stop_at = t_end;
  apps::SockperfClient bg_client(tb.sim(), bg_cfg);

  probe_client.start();
  if (bg_rate_pps > 0) bg_client.start();

  const auto t0 = std::chrono::steady_clock::now();
  tb.sim().run_until(t_end + sim::milliseconds(20));
  const auto t1 = std::chrono::steady_clock::now();

  if (telemetry_block != nullptr) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.member("compiled_in", true);
    w.key("server_telemetry");
    w.raw(telemetry::telemetry_json(tb.server().telemetry()));
    w.member("softnet_stat", tb.server().softnet_stat());
    w.member("net_dev", tb.server().net_dev());
    w.key("trace");
    w.begin_object();
    w.member("recorded", tracer.recorded());
    w.member("retained", static_cast<std::uint64_t>(tracer.size()));
    w.member("dropped", tracer.dropped());
    w.end_object();
    w.end_object();
    *telemetry_block = w.take();
  }

  PointResult r;
  r.bg_kpps = bg_rate_pps / 1e3;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = tb.sim().events_executed();
  r.packets = bg_server.received() + probe_client.replies();
  r.fc_hits = tb.server().flow_cache().hits();
  r.fc_misses = tb.server().flow_cache().misses();
  r.fc_hit_rate = tb.server().flow_cache().hit_rate();
  return r;
}

/// Best wall-clock of `reps` identical runs (the simulation is
/// deterministic, so every rep executes the same events; only the wall
/// clock varies with machine noise).
PointResult best_of(double bg_rate_pps, sim::Duration duration, int reps,
                    bool full_telemetry = false,
                    std::string* telemetry_block = nullptr,
                    bool flight_recorder = false, bool flow_cache = false) {
  PointResult best;
  for (int i = 0; i < reps; ++i) {
    PointResult p = run_point(bg_rate_pps, duration, full_telemetry,
                              telemetry_block, flight_recorder, flow_cache);
    if (best.wall_s == 0 || p.wall_s < best.wall_s) best = p;
  }
  return best;
}

/// One lane-engine run for the profiler-overhead A/B: a single pair
/// (2 lanes) driven by one OS thread under the fig11 high-load workload,
/// with or without the lane profiler attached. Single-threaded so the
/// measured difference is pure recording cost (clock reads + ring
/// stores), not barrier-timing noise.
double run_lane_point_events_per_sec(bool profiled) {
  harness::ClusterConfig cc;
  cc.pairs = 1;
  cc.mode = kernel::NapiMode::kPrismSync;
  harness::Cluster cluster(cc);
  if (profiled) cluster.enable_lane_profiler();

  const sim::Duration warmup = sim::milliseconds(50);
  const sim::Time t_end = warmup + sim::milliseconds(200);

  auto& cli_probe_ns = cluster.add_client_container(0, "probe-cli");
  auto& cli_bg_ns = cluster.add_client_container(0, "bg-cli");
  auto& srv_probe_ns = cluster.add_server_container(0, "probe-srv");
  auto& srv_bg_ns = cluster.add_server_container(0, "bg-srv");
  cluster.server(0).priority_db().add(srv_probe_ns.ip(), kProbePort);
  cluster.client(0).priority_db().add(cli_probe_ns.ip(), kProbeSrcPort);

  apps::SockperfServer probe_server(
      cluster.server_sim(0), {&cluster.server(0), &srv_probe_ns,
                              &cluster.server(0).cpu(1), kProbePort});
  apps::SockperfServer bg_server(
      cluster.server_sim(0),
      {&cluster.server(0), &srv_bg_ns, &cluster.server(0).cpu(2), kBgPort});

  apps::SockperfClient::Config probe_cfg;
  probe_cfg.host = &cluster.client(0);
  probe_cfg.ns = &cli_probe_ns;
  probe_cfg.cpus = {&cluster.client(0).cpu(1)};
  probe_cfg.base_src_port = kProbeSrcPort;
  probe_cfg.dst_ip = srv_probe_ns.ip();
  probe_cfg.dst_port = kProbePort;
  probe_cfg.rate_pps = 1000.0;
  probe_cfg.payload_size = 64;
  probe_cfg.reply_every = 1;
  probe_cfg.start_at = warmup;
  probe_cfg.stop_at = t_end;
  apps::SockperfClient probe_client(cluster.client_sim(0), probe_cfg);

  apps::SockperfClient::Config bg_cfg;
  bg_cfg.host = &cluster.client(0);
  bg_cfg.ns = &cli_bg_ns;
  bg_cfg.cpus = {&cluster.client(0).cpu(2), &cluster.client(0).cpu(3)};
  bg_cfg.base_src_port = kBgSrcBase;
  bg_cfg.dst_ip = srv_bg_ns.ip();
  bg_cfg.dst_port = kBgPort;
  bg_cfg.rate_pps = kHighLoadKpps * 1e3;
  bg_cfg.payload_size = 64;
  bg_cfg.burst = 64;
  bg_cfg.reply_every = 0;
  bg_cfg.start_at = 0;
  bg_cfg.stop_at = t_end;
  apps::SockperfClient bg_client(cluster.client_sim(0), bg_cfg);

  probe_client.start();
  bg_client.start();

  const auto t0 = std::chrono::steady_clock::now();
  cluster.run_until(t_end + sim::milliseconds(20), 1);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  const std::uint64_t events = cluster.lanes().events_executed();
  return wall > 0 ? static_cast<double>(events) / wall : 0;
}

/// Peak resident set size in bytes (VmHWM from /proc/self/status); 0 when
/// unavailable (non-Linux).
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
  bench::print_header("perf_smoke",
                      "wall-clock hot-path throughput, fig11-style sweep");

  // Warm the process-global pools with one high-load run, then reset the
  // counters so the reported hit rates describe the warm steady state.
  run_point(kHighLoadKpps * 1e3, sim::milliseconds(50));
  kernel::SkbPool::instance().reset_stats();
  sim::BufferPool::instance().reset_stats();

  std::vector<PointResult> sweep;
  std::vector<double> sweep_sim_ms;
  for (double kpps : kSweepKpps) {
    sim::Duration duration = sim::milliseconds(200);
    PointResult p = best_of(kpps * 1e3, duration, kRepsPerPoint);
    if (p.events < kMinEventsPerPoint && p.events > 0) {
      double scale = static_cast<double>(kMinEventsPerPoint) /
                     static_cast<double>(p.events);
      if (scale > kMaxDurationScale) scale = kMaxDurationScale;
      duration = static_cast<sim::Duration>(
          static_cast<double>(duration) * scale);
      p = best_of(kpps * 1e3, duration, kRepsPerPoint);
    }
    sweep.push_back(p);
    sweep_sim_ms.push_back(sim::to_ms(duration));
    std::printf(
        "bg=%6.0f kpps  sim=%6.0fms  wall=%7.3fs  events=%10llu  "
        "ev/s=%12.0f  pkts/s=%12.0f\n",
        p.bg_kpps, sweep_sim_ms.back(), p.wall_s,
        static_cast<unsigned long long>(p.events), p.events_per_sec(),
        p.packets_per_sec());
  }

  const std::vector<stats::PoolSummary> pools = stats::pool_summaries();
  for (const auto& p : pools) {
    std::printf("pool %s\n", stats::to_string(p).c_str());
  }

  // A/B: the same high-load point with recycling disabled (plain
  // new/delete), to keep the pools honest about what they buy.
  kernel::SkbPool::instance().set_enabled(false);
  sim::BufferPool::instance().set_enabled(false);
  const PointResult no_pool =
      best_of(kHighLoadKpps * 1e3, sim::milliseconds(200), kRepsPerPoint);
  kernel::SkbPool::instance().set_enabled(true);
  sim::BufferPool::instance().set_enabled(true);

  // A/B: full telemetry (span tracer on every CPU of both hosts, latency
  // ledger + flow table recording every delivery) vs the counters-only
  // baseline above (ledger + flow table runtime-disabled).
  std::string telemetry_block;
  const PointResult telem_on =
      best_of(kHighLoadKpps * 1e3, sim::milliseconds(200), kRepsPerPoint,
              /*full_telemetry=*/true, &telemetry_block);

  // A/B: the flight recorder + anomaly bank alone (armed at defaults:
  // 1/64 sampling, high classes pinned, inversion detector on) against
  // the counters-only baseline. This is the cost of leaving the recorder
  // armed in production, which is the intended deployment.
  const PointResult recorder_on =
      best_of(kHighLoadKpps * 1e3, sim::milliseconds(200), kRepsPerPoint,
              /*full_telemetry=*/false, nullptr, /*flight_recorder=*/true);

  // A/B: overlay flow cache on vs off at the high-load point. The fast
  // path skips stages 2-3 entirely for cached flows, so it removes both
  // simulated cost *and* simulated events per packet: packets/s is the
  // honest throughput metric here (events/s divides a smaller event count
  // by a smaller wall time).
  const PointResult cache_on =
      best_of(kHighLoadKpps * 1e3, sim::milliseconds(200), kRepsPerPoint,
              /*full_telemetry=*/false, nullptr, /*flight_recorder=*/false,
              /*flow_cache=*/true);

  // A/B: lane-profiler recording cost on the lane engine (one pair, one
  // thread, same high-load workload), interleaved so machine noise hits
  // both arms alike. Target: <= 3%, same budget as the telemetry layer.
  double lane_off_eps = 0;
  double lane_on_eps = 0;
  for (int i = 0; i < kRepsPerPoint; ++i) {
    const double off = run_lane_point_events_per_sec(false);
    if (off > lane_off_eps) lane_off_eps = off;
    const double on = run_lane_point_events_per_sec(true);
    if (on > lane_on_eps) lane_on_eps = on;
  }
  const double profiler_overhead =
      lane_off_eps > 0 ? 1.0 - lane_on_eps / lane_off_eps : 0.0;

  const PointResult& high = sweep.back();
  const double speedup = high.events_per_sec() / kSeedEventsPerSec;
  const double telem_overhead =
      high.events_per_sec() > 0
          ? 1.0 - telem_on.events_per_sec() / high.events_per_sec()
          : 0.0;
  const double recorder_overhead =
      high.events_per_sec() > 0
          ? 1.0 - recorder_on.events_per_sec() / high.events_per_sec()
          : 0.0;
  const std::uint64_t rss = peak_rss_bytes();

  const double cache_events_speedup =
      high.events_per_sec() > 0
          ? cache_on.events_per_sec() / high.events_per_sec()
          : 0.0;
  const double cache_packets_speedup =
      high.packets_per_sec() > 0
          ? cache_on.packets_per_sec() / high.packets_per_sec()
          : 0.0;

  std::printf("high-load ev/s=%.0f  seed ev/s=%.0f  speedup=%.2fx\n",
              high.events_per_sec(), kSeedEventsPerSec, speedup);
  std::printf("pool-disabled ev/s=%.0f\n", no_pool.events_per_sec());
  std::printf(
      "flow-cache on: ev/s=%.0f (%.2fx)  pkts/s=%.0f (%.2fx)  "
      "hit_rate=%.2f%%\n",
      cache_on.events_per_sec(), cache_events_speedup,
      cache_on.packets_per_sec(), cache_packets_speedup,
      100.0 * cache_on.fc_hit_rate);
  std::printf("telemetry-on ev/s=%.0f  overhead=%.2f%% (target <= %.0f%%)%s\n",
              telem_on.events_per_sec(), telem_overhead * 100.0,
              kTelemetryOverheadTarget * 100.0,
              telem_overhead <= kTelemetryOverheadTarget ? "" : "  ** OVER **");
  std::printf(
      "flight-recorder ev/s=%.0f  overhead=%.2f%% (target <= %.0f%%)%s\n",
      recorder_on.events_per_sec(), recorder_overhead * 100.0,
      kTelemetryOverheadTarget * 100.0,
      recorder_overhead <= kTelemetryOverheadTarget ? "" : "  ** OVER **");
  std::printf(
      "lane-profiler off ev/s=%.0f  on ev/s=%.0f  overhead=%.2f%% "
      "(target <= %.0f%%)%s\n",
      lane_off_eps, lane_on_eps, profiler_overhead * 100.0,
      kTelemetryOverheadTarget * 100.0,
      profiler_overhead <= kTelemetryOverheadTarget ? "" : "  ** OVER **");
  std::printf("peak RSS=%.1f MiB\n", static_cast<double>(rss) / (1 << 20));

  const char* out_path = std::getenv("PRISM_BENCH_OUT");
  if (argc > 1) out_path = argv[1];
  if (out_path == nullptr) out_path = "BENCH_perf_smoke.json";

  telemetry::JsonWriter w;
  w.begin_object();
  w.member("bench", "perf_smoke");
  w.member("mode", "prism_sync");
  w.member("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.member("base_sim_ms_per_point", 200);
  w.member("min_events_per_point", kMinEventsPerPoint);
  w.member("reps_per_point", kRepsPerPoint);
  w.key("sweep");
  w.begin_array();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const PointResult& p = sweep[i];
    w.begin_object();
    w.member("bg_kpps", p.bg_kpps);
    w.member("sim_ms", sweep_sim_ms[i]);
    w.member("wall_s", p.wall_s);
    w.member("events", p.events);
    w.member("events_per_sec", p.events_per_sec());
    w.member("packets", p.packets);
    w.member("packets_per_sec", p.packets_per_sec());
    w.end_object();
  }
  w.end_array();
  w.key("high_load");
  w.begin_object();
  w.member("bg_kpps", kHighLoadKpps);
  w.member("events_per_sec", high.events_per_sec());
  w.member("seed_events_per_sec", kSeedEventsPerSec);
  w.member("speedup_vs_seed", speedup);
  w.member("pool_disabled_events_per_sec", no_pool.events_per_sec());
  w.end_object();
  w.key("telemetry_overhead");
  w.begin_object();
  w.member("compiled_in", true);
  w.member("baseline_events_per_sec", high.events_per_sec());
  w.member("telemetry_events_per_sec", telem_on.events_per_sec());
  w.member("overhead_fraction", telem_overhead);
  w.member("target_fraction", kTelemetryOverheadTarget);
  w.member("within_target", telem_overhead <= kTelemetryOverheadTarget);
  w.end_object();
  w.key("flight_recorder_overhead");
  w.begin_object();
  w.member("compiled_in", true);
  w.member("baseline_events_per_sec", high.events_per_sec());
  w.member("recorder_events_per_sec", recorder_on.events_per_sec());
  w.member("overhead_fraction", recorder_overhead);
  w.member("target_fraction", kTelemetryOverheadTarget);
  w.member("within_target", recorder_overhead <= kTelemetryOverheadTarget);
  w.end_object();
  w.key("lane_profiler_overhead");
  w.begin_object();
  w.member("compiled_in", true);
  w.member("baseline_events_per_sec", lane_off_eps);
  w.member("profiled_events_per_sec", lane_on_eps);
  w.member("overhead_fraction", profiler_overhead);
  w.member("target_fraction", kTelemetryOverheadTarget);
  w.member("within_target", profiler_overhead <= kTelemetryOverheadTarget);
  w.end_object();
  w.key("flow_cache");
  w.begin_object();
  w.member("compiled_in", true);
  w.member("baseline_events_per_sec", high.events_per_sec());
  w.member("baseline_packets_per_sec", high.packets_per_sec());
  w.member("cache_events_per_sec", cache_on.events_per_sec());
  w.member("cache_packets_per_sec", cache_on.packets_per_sec());
  w.member("events_speedup", cache_events_speedup);
  w.member("packets_speedup", cache_packets_speedup);
  w.member("hits", cache_on.fc_hits);
  w.member("misses", cache_on.fc_misses);
  w.member("hit_rate", cache_on.fc_hit_rate);
  w.end_object();
  w.key("overload");
  w.begin_object();
  w.member("compiled_in", true);
  w.end_object();
  w.member("peak_rss_bytes", rss);
  w.key("pools");
  w.begin_array();
  for (const auto& p : pools) {
    w.begin_object();
    w.member("name", p.name);
    w.member("acquired", p.acquired);
    w.member("reused", p.reused);
    w.member("allocated", p.allocated);
    w.member("released", p.released);
    w.member("discarded", p.discarded);
    w.member("hit_rate", p.hit_rate);
    w.end_object();
  }
  w.end_array();
  w.key("telemetry");
  w.raw(telemetry_block);
  w.end_object();

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perf_smoke: cannot write %s\n", out_path);
    return 0;  // report-only bench: never fail the build
  }
  std::fputs(w.str().c_str(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
