// Measuring binary of the repository benchmark (perfbench/run.py drives
// it; see perfbench/README.md).
//
// Runs one workload repeatedly for a wall-clock budget and prints one JSON
// document on stdout: the build manifest, one record per repetition
// (set-up phases, run wall/CPU time, VM steal, simulated outcomes, the
// correctness digest and any conservation violation) and, in traced mode,
// the per-layer counts and per-call timings of the simulator's layers.
//
// It drives the simulator only through its public API: harness::Testbed
// and harness::Cluster, the apps:: generators, and the public entry
// points of each layer (sim::EventQueue, net::parse_frame_into,
// net::ChecksumAccumulator, overlay::Fdb, overlay::FlowCache,
// telemetry::Counter, telemetry::LatencyLedger,
// telemetry::FlightRecorder).
//
// Usage:
//   prism_perfbench --workload W --seed N --seconds S [--trace 0|1]
//                   [--profile full|short] [--inject-violation]
//                   [--spans-out PATH]
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/http_server.h"
#include "apps/sockperf.h"
#include "fault/fault.h"
#include "harness/cluster.h"
#include "harness/testbed.h"
#include "kernel/skb.h"
#include "kernel/skb_pool.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/packet.h"
#include "overlay/fdb.h"
#include "overlay/flow_cache.h"
#include "sim/event_queue.h"
#include "sim/lane_profiler.h"
#include "sim/pool.h"
#include "sim/rng.h"
#include "stats/histogram.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/latency.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PRISM_OVERLOAD_ENABLED
#define PRISM_OVERLOAD_ENABLED 1
#endif

namespace pb {

using namespace prism;

// ------------------------------------------------------------- clocks

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process, summed over all its threads.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Machine-wide steal ticks (USER_HZ) from the "cpu" line of /proc/stat;
/// -1 when unreadable.
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string tag;
  long long v[8] = {};
  if (!(in >> tag) || tag != "cpu") return -1;
  for (long long& x : v) {
    if (!(in >> x)) return -1;
  }
  return v[7];
}

/// Peak resident set size of the process (VmHWM), MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// --------------------------------------------------------------- JSON

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// -------------------------------------------------------------- spans

/// The benchmark's own spans around its calls into the simulator: name,
/// start, end and parent, kept in memory and written once at exit.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(wall_now()) {}

  void begin(const std::string& name) {
    if (!enabled_) return;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, wall_now() - t0_, -1.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void end() {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(open_.back())].end = wall_now() - t0_;
    open_.pop_back();
  }
  /// Runs `fn` inside a span named `name`.
  template <typename F>
  void scope(const std::string& name, F&& fn) {
    begin(name);
    fn();
    end();
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"unit\": \"s\", \"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": %s, \"parent\": %d, "
                   "\"start\": %.9f, \"end\": %.9f}%s\n",
                   i, jstr(s.name).c_str(), s.parent, s.start, s.end,
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  bool enabled_;
  double t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------- workloads

constexpr std::uint16_t kProbePort = 11111;
constexpr std::uint16_t kBgPort = 11112;
constexpr std::uint16_t kProbeSrcPort = 20000;
constexpr std::uint16_t kBgSrcBase = 21000;
constexpr std::uint16_t kWebPort = 80;
constexpr std::uint16_t kWebSrcPort = 40000;
constexpr std::uint16_t kBulkPort = 5201;
constexpr std::uint16_t kBulkSrcPort = 41000;
constexpr int kProbeClass = 1;  // PriorityDb::add's default level
/// Threads of cluster_lanes' timed runs: half of the 4 cores the
/// benchmark was defined on.
constexpr int kClusterThreads = 2;

/// Distinct, reproducible generator seeds derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Params {
  std::string name;
  bool tcp = false;
  bool flow_cache = false;
  int pairs = 1;         ///< > 1: harness::Cluster on the lane engine
  double bg_pps = 0;     ///< UDP background per pair
  int bg_burst = 64;
  double probe_pps = 1000;
  double web_rps = 20000;
  double bulk_mps = 20000;
  std::size_t bulk_message = 64 * 1024;
  sim::Duration warmup = 0;
  sim::Duration duration = 0;
  sim::Duration drain = sim::milliseconds(20);
  sim::Duration slice = sim::milliseconds(10);  ///< traced run_until step
};

Params params_for(const std::string& name, bool short_profile) {
  Params p;
  p.name = name;
  const auto span = [&](int full_ms, int short_ms) {
    return sim::milliseconds(short_profile ? short_ms : full_ms);
  };
  if (name == "udp_prio" || name == "udp_cached") {
    p.flow_cache = name == "udp_cached";
    p.bg_pps = p.flow_cache ? 450'000.0 : 300'000.0;
    p.warmup = sim::milliseconds(50);
    p.duration = span(1450, 100);
  } else if (name == "tcp_web") {
    p.tcp = true;
    p.warmup = sim::milliseconds(50);
    p.duration = span(450, 50);
    p.drain = sim::milliseconds(30);
  } else if (name == "cluster_lanes") {
    p.pairs = 4;
    p.bg_pps = 200'000.0;
    p.warmup = sim::milliseconds(20);
    p.duration = span(480, 30);
    p.slice = sim::milliseconds(5);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return p;
}

/// Raw outcome of one repetition.
struct Outcome {
  std::uint64_t events = 0;
  std::uint64_t server_frames = 0;
  std::uint64_t client_frames = 0;
  stats::Histogram probe;  ///< one-way latency of the high-priority flow
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  double bg_sent = 0;
  double bg_delivered = 0;
  /// The probe class's ring, stage-2 and stage-3 waits (LatencyLedger).
  stats::Histogram ring_wait, stage2_wait, stage3_wait;
  std::vector<std::string> violations;
  std::ostringstream digest;
  std::map<std::string, double> counts;  ///< per-layer counts
};

/// One UDP client/server pair of the fig09 shape: a ping-pong probe and
/// bursty background, each in its own container on each side.
struct UdpPair {
  kernel::Host* client = nullptr;
  kernel::Host* server = nullptr;
  overlay::Netns* cli_probe = nullptr;
  overlay::Netns* cli_bg = nullptr;
  overlay::Netns* srv_probe = nullptr;
  overlay::Netns* srv_bg = nullptr;
  std::unique_ptr<apps::SockperfServer> probe_server;
  std::unique_ptr<apps::SockperfServer> bg_server;
  std::unique_ptr<apps::SockperfClient> probe_client;
  std::unique_ptr<apps::SockperfClient> bg_client;
};

using AddContainer = std::function<overlay::Netns&(const std::string&)>;

void udp_containers(UdpPair& u, SpanLog& spans, const AddContainer& add_cli,
                    const AddContainer& add_srv) {
  const auto add = [&](const char* span, const AddContainer& fn,
                       const char* name, overlay::Netns*& out) {
    spans.scope(span, [&] { out = &fn(name); });
  };
  add("add_client_container", add_cli, "probe-cli", u.cli_probe);
  add("add_client_container", add_cli, "bg-cli", u.cli_bg);
  add("add_server_container", add_srv, "probe-srv", u.srv_probe);
  add("add_server_container", add_srv, "bg-srv", u.srv_bg);
  spans.scope("priority_db.add", [&] {
    u.server->priority_db().add(u.srv_probe->ip(), kProbePort);
  });
  spans.scope("priority_db.add", [&] {
    u.client->priority_db().add(u.cli_probe->ip(), kProbeSrcPort);
  });
}

void udp_apps(UdpPair& u, SpanLog& spans, const Params& p,
              sim::Simulator& cli_sim, sim::Simulator& srv_sim,
              std::uint64_t seed, std::uint64_t stream) {
  const sim::Time t_end = p.warmup + p.duration;
  spans.scope("SockperfServer", [&] {
    u.probe_server = std::make_unique<apps::SockperfServer>(
        srv_sim, apps::SockperfServer::Config{u.server, u.srv_probe,
                                              &u.server->cpu(1), kProbePort});
  });
  spans.scope("SockperfServer", [&] {
    u.bg_server = std::make_unique<apps::SockperfServer>(
        srv_sim, apps::SockperfServer::Config{u.server, u.srv_bg,
                                              &u.server->cpu(2), kBgPort});
  });
  apps::SockperfClient::Config pc;
  pc.host = u.client;
  pc.ns = u.cli_probe;
  pc.cpus = {&u.client->cpu(1)};
  pc.base_src_port = kProbeSrcPort;
  pc.dst_ip = u.srv_probe->ip();
  pc.dst_port = kProbePort;
  pc.rate_pps = p.probe_pps;
  pc.reply_every = 1;
  pc.seed = derive_seed(seed, 2 * stream);
  pc.start_at = p.warmup;
  pc.stop_at = t_end;
  spans.scope("SockperfClient", [&] {
    u.probe_client = std::make_unique<apps::SockperfClient>(cli_sim, pc);
  });
  apps::SockperfClient::Config bc;
  bc.host = u.client;
  bc.ns = u.cli_bg;
  bc.cpus = {&u.client->cpu(2), &u.client->cpu(3)};
  bc.base_src_port = kBgSrcBase;
  bc.dst_ip = u.srv_bg->ip();
  bc.dst_port = kBgPort;
  bc.rate_pps = p.bg_pps;
  bc.burst = p.bg_burst;
  bc.seed = derive_seed(seed, 2 * stream + 1);
  bc.start_at = 0;
  bc.stop_at = t_end;
  spans.scope("SockperfClient", [&] {
    u.bg_client = std::make_unique<apps::SockperfClient>(cli_sim, bc);
  });
  spans.scope("SockperfClient.start", [&] {
    u.probe_client->start();
    u.bg_client->start();
  });
}

/// Per-class packet conservation of one UDP pair:
///   sends + retransmits == socket deliveries + reason-counted drops.
void udp_conservation(const UdpPair& u, int pair, bool inject,
                      Outcome& out) {
  const auto check = [&](const char* what, std::uint64_t sent,
                         std::uint64_t delivered, std::uint64_t dropped) {
    if (sent != delivered + dropped) {
      out.violations.push_back(
          "pair " + std::to_string(pair) + " " + what + ": sent " +
          std::to_string(sent) + " != delivered " +
          std::to_string(delivered) + " + dropped " + std::to_string(dropped));
    }
  };
  const auto& sdrops = u.server->faults().drops;
  const auto& cdrops = u.client->faults().drops;
  check("class 1 probe", u.probe_client->sent() + u.probe_client->retransmits(),
        u.probe_server->socket().received(), sdrops.class_total(kProbeClass));
  check("class 1 echo", u.probe_server->echoed(),
        u.probe_client->replies() + u.probe_client->late_replies(),
        cdrops.class_total(kProbeClass));
  check("class 0 background", u.bg_client->sent() + (inject ? 1 : 0),
        u.bg_server->socket().received(), sdrops.class_total(0));
}

void digest_drops(const std::string& host, const fault::DropLedger& ledger,
                  std::ostringstream& d) {
  for (int r = 0; r < fault::kNumDropReasons; ++r) {
    for (int c = 0; c < fault::kNumFaultClasses; ++c) {
      const auto n = ledger.count(static_cast<fault::DropReason>(r), c);
      if (n == 0) continue;
      d << "drops " << host << ' '
        << fault::drop_reason_name(static_cast<fault::DropReason>(r))
        << " class" << c << '=' << n << '\n';
    }
  }
}

/// Server-side per-layer counts summed over the workload's servers.
void add_server_counts(kernel::Host& s, std::uint32_t vni, Outcome& out) {
  auto& c = out.counts;
  c["nic.ring_drops"] += static_cast<double>(s.nic().rx_dropped());
  for (int q = 0; q < s.nic().num_queues(); ++q) {
    c["nic.irqs"] += static_cast<double>(s.nic().queue(q).irqs_fired());
  }
  kernel::NetRxEngine& eng = s.engine(s.default_rx_cpu());
  c["kernel.polls"] += static_cast<double>(eng.polls());
  c["kernel.time_squeeze"] += static_cast<double>(eng.time_squeezes());
  c["kernel.backlog_drops"] += static_cast<double>(
      s.faults().drops.total(fault::DropReason::kBacklogFull));
  c["kernel.rx_busy_ns"] += static_cast<double>(
      s.cpu(s.default_rx_cpu()).accounting().busy_time());
  c["kernel.gro_merged"] += static_cast<double>(s.nic_napi(0).gro_merged());
  // One FDB lookup per frame a bridge stage handles (forward or miss).
  overlay::Bridge& br = s.bridge(vni);
  for (int cpu = 0; cpu < s.num_cpus(); ++cpu) {
    c["overlay.fdb_lookups"] += static_cast<double>(
        br.stage(cpu).forwarded() + br.stage(cpu).dropped());
  }
  const overlay::FlowCache& fc = s.flow_cache();
  c["overlay.flowcache_hits"] += static_cast<double>(fc.hits());
  c["overlay.flowcache_misses"] += static_cast<double>(fc.misses());
  c["overlay.flowcache_insertions"] += static_cast<double>(fc.insertions());
  out.digest << "flowcache " << s.name() << " hits=" << fc.hits()
             << " misses=" << fc.misses() << '\n';
  using telemetry::LatencyStage;
  const telemetry::LatencyLedger& led = s.latency_ledger();
  out.ring_wait.merge(led.histogram(LatencyStage::kRingWait, kProbeClass));
  out.stage2_wait.merge(led.histogram(LatencyStage::kStage2Wait, kProbeClass));
  out.stage3_wait.merge(led.histogram(LatencyStage::kStage3Wait, kProbeClass));
}

/// Counts every host contributes (client and server alike).
void add_host_counts(kernel::Host& h, Outcome& out) {
  auto& c = out.counts;
  double incs = 0;
  for (const auto& s : h.metrics().counters()) {
    incs += static_cast<double>(s.value);
  }
  c["telemetry.counter_incs"] += incs;
  c["telemetry.recorder_events"] +=
      static_cast<double>(h.flight_recorder().recorded());
  for (int l = 0; l < telemetry::kNumLatencyClasses; ++l) {
    c["telemetry.ledger_records"] += static_cast<double>(
        h.latency_ledger()
            .histogram(telemetry::LatencyStage::kEndToEnd, l)
            .count());
  }
}

void digest_histogram(const char* tag, const stats::Histogram& h,
                      std::ostringstream& d) {
  d << tag << " count=" << h.count() << " min=" << h.min()
    << " max=" << h.max() << " sum=" << jnum(h.sum());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    d << " q" << q << '=' << h.percentile(q);
  }
  d << '\n';
}

/// One workload instance: set-up phases, the run, and what it leaves.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual void build(SpanLog& spans) = 0;
  virtual void containers(SpanLog& spans) = 0;
  virtual void apps(SpanLog& spans, std::uint64_t seed) = 0;
  /// Attaches the program's own tracing (traced repetitions only).
  virtual void attach_tracing() = 0;
  virtual void run_until(sim::Time t) = 0;
  /// Mean pending events per engine queue right now.
  virtual double pending_events() = 0;
  virtual void collect(bool inject, Outcome& out) = 0;
  /// Objects of the finished run that the layer timings reuse.
  virtual kernel::Host& server0() = 0;
  virtual overlay::Netns& server_container0() = 0;
  virtual std::uint32_t vni0() = 0;
};

class UdpTestbed final : public Scenario {
 public:
  explicit UdpTestbed(const Params& p) : p_(p) {}

  void build(SpanLog& spans) override {
    harness::TestbedConfig tc;
    tc.mode = kernel::NapiMode::kPrismSync;
    tc.flow_cache = p_.flow_cache;
    tc.threads = 1;
    spans.scope("Testbed",
                [&] { tb_ = std::make_unique<harness::Testbed>(tc); });
    u_.client = &tb_->client();
    u_.server = &tb_->server();
  }
  void containers(SpanLog& spans) override {
    udp_containers(
        u_, spans,
        [&](const std::string& n) -> overlay::Netns& {
          return tb_->add_client_container(n);
        },
        [&](const std::string& n) -> overlay::Netns& {
          return tb_->add_server_container(n);
        });
  }
  void apps(SpanLog& spans, std::uint64_t seed) override {
    udp_apps(u_, spans, p_, tb_->client_sim(), tb_->server_sim(), seed, 0);
  }
  void attach_tracing() override { tb_->attach_span_tracer(tracer_); }
  void run_until(sim::Time t) override { tb_->run_until(t); }
  double pending_events() override {
    return static_cast<double>(tb_->sim().pending_events());
  }
  void collect(bool inject, Outcome& out) override {
    out.events = tb_->sim().events_executed();
    out.server_frames = tb_->server().nic().rx_frames();
    out.client_frames = tb_->client().nic().rx_frames();
    out.probe.merge(u_.probe_client->latency());
    out.attempted = u_.probe_client->sent();
    out.answered = u_.probe_client->replies();
    out.bg_sent = static_cast<double>(u_.bg_client->sent());
    out.bg_delivered = static_cast<double>(u_.bg_server->socket().received());
    udp_conservation(u_, 0, inject, out);
    auto& d = out.digest;
    d << "replies=" << u_.probe_client->replies()
      << " bg_delivered=" << u_.bg_server->socket().received() << '\n';
    digest_drops("server", tb_->server().faults().drops, d);
    digest_drops("client", tb_->client().faults().drops, d);
    add_server_counts(tb_->server(), tb_->overlay().vni(), out);
    add_host_counts(tb_->server(), out);
    add_host_counts(tb_->client(), out);
  }
  kernel::Host& server0() override { return tb_->server(); }
  overlay::Netns& server_container0() override { return *u_.srv_probe; }
  std::uint32_t vni0() override { return tb_->overlay().vni(); }

 private:
  Params p_;
  // Declared before the testbed so it outlives the hosts that point at it.
  telemetry::SpanTracer tracer_;
  std::unique_ptr<harness::Testbed> tb_;
  UdpPair u_;
};

class WebTestbed final : public Scenario {
 public:
  explicit WebTestbed(const Params& p) : p_(p) {}

  void build(SpanLog& spans) override {
    harness::TestbedConfig tc;
    tc.mode = kernel::NapiMode::kPrismSync;
    tc.threads = 1;
    spans.scope("Testbed",
                [&] { tb_ = std::make_unique<harness::Testbed>(tc); });
  }
  void containers(SpanLog& spans) override {
    const auto client = [&](const char* name, overlay::Netns*& out) {
      spans.scope("add_client_container",
                  [&] { out = &tb_->add_client_container(name); });
    };
    const auto server = [&](const char* name, overlay::Netns*& out) {
      spans.scope("add_server_container",
                  [&] { out = &tb_->add_server_container(name); });
    };
    client("wrk", cli_web_);
    client("bg-cli", cli_bg_);
    server("nginx", srv_web_);
    server("bg-srv", srv_bg_);
    spans.scope("priority_db.add", [&] {
      tb_->server().priority_db().add(srv_web_->ip(), kWebPort);
    });
    spans.scope("priority_db.add", [&] {
      tb_->client().priority_db().add(cli_web_->ip(), kWebSrcPort);
    });
  }
  void apps(SpanLog& spans, std::uint64_t seed) override {
    kernel::Host& cli = tb_->client();
    kernel::Host& srv = tb_->server();
    const sim::Time t_end = p_.warmup + p_.duration;
    spans.scope("tcp_create", [&] {
      web_cli_ = &cli.tcp_create(*cli_web_, srv_web_->ip(), kWebSrcPort,
                                 kWebPort);
      web_srv_ = &srv.tcp_create(*srv_web_, cli_web_->ip(), kWebPort,
                                 kWebSrcPort);
      bulk_cli_ = &cli.tcp_create(*cli_bg_, srv_bg_->ip(), kBulkSrcPort,
                                  kBulkPort);
      bulk_srv_ = &srv.tcp_create(*srv_bg_, cli_bg_->ip(), kBulkPort,
                                  kBulkSrcPort);
    });
    apps::HttpServer::Config hc;
    hc.host = &srv;
    hc.ns = srv_web_;
    hc.cpu = &srv.cpu(1);
    hc.connection = web_srv_;
    spans.scope("HttpServer",
                [&] { http_ = std::make_unique<apps::HttpServer>(hc); });
    apps::Wrk2Client::Config wc;
    wc.host = &cli;
    wc.ns = cli_web_;
    wc.cpu = &cli.cpu(1);
    wc.connection = web_cli_;
    wc.rate_rps = p_.web_rps;
    wc.seed = derive_seed(seed, 0);
    wc.start_at = p_.warmup;
    wc.stop_at = t_end;
    spans.scope("Wrk2Client", [&] {
      wrk_ = std::make_unique<apps::Wrk2Client>(tb_->client_sim(), wc);
    });
    spans.scope("TcpSinkServer", [&] {
      sink_ = std::make_unique<apps::TcpSinkServer>(
          apps::TcpSinkServer::Config{bulk_srv_, &srv.cpu(2), &srv.cost()});
    });
    apps::SockperfTcpSender::Config bc;
    bc.endpoint = bulk_cli_;
    bc.cpu = &cli.cpu(2);
    bc.rate_mps = p_.bulk_mps;
    bc.message_size = p_.bulk_message;
    bc.seed = derive_seed(seed, 1);
    bc.start_at = 0;
    bc.stop_at = t_end;
    spans.scope("SockperfTcpSender", [&] {
      bulk_ = std::make_unique<apps::SockperfTcpSender>(tb_->client_sim(), bc);
    });
    spans.scope("start", [&] {
      wrk_->start();
      bulk_->start();
    });
  }
  void attach_tracing() override { tb_->attach_span_tracer(tracer_); }
  void run_until(sim::Time t) override { tb_->run_until(t); }
  double pending_events() override {
    return static_cast<double>(tb_->sim().pending_events());
  }
  void collect(bool inject, Outcome& out) override {
    out.events = tb_->sim().events_executed();
    out.server_frames = tb_->server().nic().rx_frames();
    out.client_frames = tb_->client().nic().rx_frames();
    out.probe.merge(wrk_->latency());
    out.attempted = wrk_->sent();
    out.answered = wrk_->completed();
    // Stream conservation per class: every byte written on a connection
    // (the sequence space consumed, initial sequence number 1) reaches
    // the peer in order; reason-counted drops were retransmitted.
    const auto check = [&](const char* what, const kernel::TcpEndpoint& tx,
                           const kernel::TcpEndpoint& rx, std::uint64_t extra) {
      const std::uint64_t sent = tx.snd_nxt() - 1u + extra;
      if (sent != rx.bytes_delivered()) {
        out.violations.push_back(std::string(what) + ": sent " +
                                 std::to_string(sent) + " bytes != delivered " +
                                 std::to_string(rx.bytes_delivered()));
      }
    };
    check("class 1 request stream", *web_cli_, *web_srv_, 0);
    check("class 1 response stream", *web_srv_, *web_cli_, 0);
    check("class 0 bulk stream", *bulk_cli_, *bulk_srv_, inject ? 1 : 0);
    out.bg_sent = static_cast<double>(bulk_cli_->snd_nxt() - 1u);
    out.bg_delivered = static_cast<double>(sink_->bytes_received());
    auto& d = out.digest;
    d << "completed=" << wrk_->completed()
      << " bulk_bytes=" << sink_->bytes_received()
      << " retransmits=" << web_cli_->retransmissions() << ','
      << web_srv_->retransmissions() << ',' << bulk_cli_->retransmissions()
      << '\n';
    digest_drops("server", tb_->server().faults().drops, d);
    digest_drops("client", tb_->client().faults().drops, d);
    add_server_counts(tb_->server(), tb_->overlay().vni(), out);
    add_host_counts(tb_->server(), out);
    add_host_counts(tb_->client(), out);
  }
  kernel::Host& server0() override { return tb_->server(); }
  overlay::Netns& server_container0() override { return *srv_web_; }
  std::uint32_t vni0() override { return tb_->overlay().vni(); }

 private:
  Params p_;
  telemetry::SpanTracer tracer_;
  std::unique_ptr<harness::Testbed> tb_;
  overlay::Netns* cli_web_ = nullptr;
  overlay::Netns* cli_bg_ = nullptr;
  overlay::Netns* srv_web_ = nullptr;
  overlay::Netns* srv_bg_ = nullptr;
  kernel::TcpEndpoint* web_cli_ = nullptr;
  kernel::TcpEndpoint* web_srv_ = nullptr;
  kernel::TcpEndpoint* bulk_cli_ = nullptr;
  kernel::TcpEndpoint* bulk_srv_ = nullptr;
  std::unique_ptr<apps::HttpServer> http_;
  std::unique_ptr<apps::Wrk2Client> wrk_;
  std::unique_ptr<apps::TcpSinkServer> sink_;
  std::unique_ptr<apps::SockperfTcpSender> bulk_;
};

class UdpCluster final : public Scenario {
 public:
  UdpCluster(const Params& p, int threads) : p_(p), threads_(threads) {}

  void build(SpanLog& spans) override {
    harness::ClusterConfig cc;
    cc.pairs = p_.pairs;
    cc.mode = kernel::NapiMode::kPrismSync;
    spans.scope("Cluster",
                [&] { cl_ = std::make_unique<harness::Cluster>(cc); });
    pairs_.resize(static_cast<std::size_t>(p_.pairs));
    for (int i = 0; i < p_.pairs; ++i) {
      pairs_[static_cast<std::size_t>(i)].client = &cl_->client(i);
      pairs_[static_cast<std::size_t>(i)].server = &cl_->server(i);
    }
  }
  void containers(SpanLog& spans) override {
    for (int i = 0; i < p_.pairs; ++i) {
      udp_containers(
          pairs_[static_cast<std::size_t>(i)], spans,
          [&, i](const std::string& n) -> overlay::Netns& {
            return cl_->add_client_container(i, n);
          },
          [&, i](const std::string& n) -> overlay::Netns& {
            return cl_->add_server_container(i, n);
          });
    }
  }
  void apps(SpanLog& spans, std::uint64_t seed) override {
    for (int i = 0; i < p_.pairs; ++i) {
      udp_apps(pairs_[static_cast<std::size_t>(i)], spans, p_,
               cl_->client_sim(i), cl_->server_sim(i), seed,
               static_cast<std::uint64_t>(i));
    }
  }
  void attach_tracing() override { cl_->enable_lane_profiler(0, 1); }
  void run_until(sim::Time t) override { cl_->run_until(t, threads_); }
  double pending_events() override {
    double sum = 0;
    for (int i = 0; i < cl_->num_hosts(); ++i) {
      sum += static_cast<double>(cl_->lanes().lane(i).pending_events());
    }
    return sum / cl_->num_hosts();
  }
  void collect(bool inject, Outcome& out) override {
    out.events = cl_->lanes().events_executed();
    auto& d = out.digest;
    for (int i = 0; i < p_.pairs; ++i) {
      UdpPair& u = pairs_[static_cast<std::size_t>(i)];
      out.server_frames += u.server->nic().rx_frames();
      out.client_frames += u.client->nic().rx_frames();
      out.probe.merge(u.probe_client->latency());
      out.attempted += u.probe_client->sent();
      out.answered += u.probe_client->replies();
      out.bg_sent += static_cast<double>(u.bg_client->sent());
      out.bg_delivered += static_cast<double>(u.bg_server->socket().received());
      udp_conservation(u, i, inject && i == 0, out);
      d << "pair" << i << " replies=" << u.probe_client->replies()
        << " bg_delivered=" << u.bg_server->socket().received() << '\n';
      digest_drops("server" + std::to_string(i), u.server->faults().drops, d);
      digest_drops("client" + std::to_string(i), u.client->faults().drops, d);
      add_server_counts(*u.server, cl_->overlay(i).vni(), out);
      add_host_counts(*u.server, out);
      add_host_counts(*u.client, out);
    }
    // The profiler accumulates over every run_until slice of a traced
    // repetition (the engine's own window counter restarts per call).
    if (const sim::LaneProfiler* prof = cl_->lane_profiler()) {
      auto& c = out.counts;
      c["sim.lane_windows"] = static_cast<double>(prof->rounds_recorded());
      for (int i = 0; i < prof->num_lanes(); ++i) {
        c["sim.lane_spills"] += static_cast<double>(prof->lane(i).inbox_spills);
      }
      double wall = 0, barrier = 0, busy = 0;
      for (int w = 0; w < prof->num_workers(); ++w) {
        wall += static_cast<double>(prof->worker(w).wall_ns);
        barrier += static_cast<double>(prof->worker(w).barrier_wait_ns);
        busy += static_cast<double>(prof->worker(w).busy_ns);
      }
      c["sim.lane_barrier_frac"] = wall > 0 ? barrier / wall : 0.0;
      c["sim.lane_busy_frac"] = wall > 0 ? busy / wall : 0.0;
    }
  }
  kernel::Host& server0() override { return cl_->server(0); }
  overlay::Netns& server_container0() override { return *pairs_[0].srv_probe; }
  std::uint32_t vni0() override { return cl_->overlay(0).vni(); }

 private:
  Params p_;
  int threads_;
  std::unique_ptr<harness::Cluster> cl_;
  std::vector<UdpPair> pairs_;
};

std::unique_ptr<Scenario> make_scenario(const Params& p, int threads) {
  if (p.pairs > 1) return std::make_unique<UdpCluster>(p, threads);
  if (p.tcp) return std::make_unique<WebTestbed>(p);
  return std::make_unique<UdpTestbed>(p);
}

/// Speed of this core right now, from two fixed loops that share no code
/// with the simulator. Other tenants of a shared VM slow the simulator and
/// these loops alike, so throughput divided by their speed is steadier
/// than throughput alone.
struct Calibration {
  double random_mops = 0;  ///< M random-access operations per CPU second
  double stream_gbps = 0;  ///< GB copied and summed per CPU second
};

/// Random access: xorshift-indexed read-modify-writes over 1 MiB and
/// lookups in a 4096-entry hash map.
double calibrate_random() {
  constexpr int kOps = 3'000'000;
  static std::vector<std::uint64_t> table(1 << 17);
  static std::unordered_map<std::uint64_t, std::uint64_t> map;
  if (map.empty()) {
    for (std::uint64_t i = 0; i < 4096; ++i) map[i * 0x9e3779b97f4a7c15ull] = i;
  }
  std::uint64_t x = 1;
  std::uint64_t acc = 0;
  const double t0 = cpu_now();
  for (int i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & (table.size() - 1)];
    slot += x;
    acc += slot + map.find((x & 4095) * 0x9e3779b97f4a7c15ull)->second;
  }
  const double t = cpu_now() - t0;
  keep(acc);
  return kOps / t / 1e6;
}

/// Streaming: 64 KiB copies out of a 1 MiB buffer, each summed afterwards.
double calibrate_stream() {
  constexpr int kCopies = 2000;
  constexpr std::size_t kChunk = 1 << 16;
  static std::vector<std::uint8_t> src(1 << 20, 1);
  static std::vector<std::uint8_t> dst(kChunk);
  std::uint64_t acc = 0;
  const double t0 = cpu_now();
  for (int i = 0; i < kCopies; ++i) {
    const std::size_t off = (static_cast<std::size_t>(i) * 7 % 15) * kChunk;
    std::memcpy(dst.data(), src.data() + off, kChunk);
    for (std::size_t j = 0; j < kChunk; j += 8) {
      std::uint64_t w;
      std::memcpy(&w, dst.data() + j, 8);
      acc += w;
    }
  }
  const double t = cpu_now() - t0;
  keep(acc);
  return kCopies * static_cast<double>(kChunk) / t / 1e9;
}

Calibration calibrate() { return {calibrate_random(), calibrate_stream()}; }

// ---------------------------------------------------------- one rep

struct Rep {
  std::string kind;  ///< "timed", "check" (warm-up / reference) or "traced"
  int threads = 1;
  double build_s = 0, containers_s = 0, apps_s = 0, setup_s = 0;
  double run_wall_s = 0, run_cpu_s = 0;
  long long steal_ticks = -1;
  double mean_pending = 0;
  Calibration cal;  ///< mean of calibrate() before and after the run
  sim::Time sim_end_ns = 0;
  int servers = 1;
  std::uint64_t skb_acquired = 0, skb_reused = 0;
  std::uint64_t buf_acquired = 0, buf_reused = 0;
  Outcome out;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_profile = false;
  bool inject_violation = false;
  std::string spans_out;
};

std::unique_ptr<Rep> run_rep(const Options& o, const Params& p,
                             const std::string& kind, int threads,
                             SpanLog& spans,
                             std::unique_ptr<Scenario>* keep_alive = nullptr) {
  auto rep = std::make_unique<Rep>();
  rep->kind = kind;
  rep->threads = threads;
  const bool traced = kind == "traced";
  spans.begin("rep." + kind);
  kernel::SkbPool::instance().reset_stats();
  sim::BufferPool::instance().reset_stats();
  std::unique_ptr<Scenario> sc = make_scenario(p, threads);

  const double t0 = wall_now();
  spans.scope("harness.build", [&] { sc->build(spans); });
  const double t1 = wall_now();
  spans.scope("harness.containers", [&] { sc->containers(spans); });
  const double t2 = wall_now();
  spans.scope("harness.apps", [&] { sc->apps(spans, o.seed); });
  const double t3 = wall_now();
  rep->build_s = t1 - t0;
  rep->containers_s = t2 - t1;
  rep->apps_s = t3 - t2;
  rep->setup_s = t3 - t0;
  if (traced) sc->attach_tracing();

  const sim::Time t_end = p.warmup + p.duration + p.drain;
  rep->sim_end_ns = t_end;
  rep->servers = p.pairs;
  const Calibration cal0 = calibrate();
  const long long steal0 = steal_ticks();
  const double w0 = wall_now();
  const double c0 = cpu_now();
  if (traced) {
    // Fixed simulated slices, one span each; the queue depth is sampled
    // at every slice edge for the event-queue timing.
    spans.begin("run");
    double pending = 0;
    int slices = 0;
    for (sim::Time t = p.slice; ; t += p.slice) {
      const sim::Time until = std::min(t, t_end);
      spans.scope("run_until", [&] { sc->run_until(until); });
      pending += sc->pending_events();
      ++slices;
      if (until == t_end) break;
    }
    spans.end();
    rep->mean_pending = pending / slices;
  } else {
    sc->run_until(t_end);
  }
  rep->run_cpu_s = cpu_now() - c0;
  rep->run_wall_s = wall_now() - w0;
  const long long steal1 = steal_ticks();
  const Calibration cal1 = calibrate();
  rep->cal = {0.5 * (cal0.random_mops + cal1.random_mops),
              0.5 * (cal0.stream_gbps + cal1.stream_gbps)};
  rep->steal_ticks = steal0 < 0 || steal1 < 0 ? -1 : steal1 - steal0;

  const auto& skb = kernel::SkbPool::instance().stats();
  const auto& buf = sim::BufferPool::instance().stats();
  rep->skb_acquired = skb.acquired;
  rep->skb_reused = skb.reused;
  rep->buf_acquired = buf.acquired;
  rep->buf_reused = buf.reused;

  Outcome& out = rep->out;
  sc->collect(o.inject_violation, out);
  std::ostringstream head;
  head << "workload=" << p.name << " seed=" << o.seed
       << " events=" << out.events << " server_frames=" << out.server_frames
       << " client_frames=" << out.client_frames << '\n';
  digest_histogram("probe", out.probe, head);
  const std::string tail = out.digest.str();
  out.digest.str(head.str() + tail);
  out.digest.seekp(0, std::ios_base::end);
  if (out.answered != out.probe.count()) {
    out.violations.push_back("probe histogram holds " +
                             std::to_string(out.probe.count()) +
                             " samples for " + std::to_string(out.answered) +
                             " replies");
  }
  spans.end();
  if (keep_alive != nullptr) *keep_alive = std::move(sc);
  return rep;
}

/// Set-up only (no run): the testbed or cluster, its containers, its
/// PriorityDb entries and its apps, up to the first event.
double setup_only(const Options& o, const Params& p, SpanLog& spans) {
  std::unique_ptr<Scenario> sc = make_scenario(p, kClusterThreads);
  spans.begin("setup_only");
  const double t0 = wall_now();
  sc->build(spans);
  sc->containers(spans);
  sc->apps(spans, o.seed);
  const double t = wall_now() - t0;
  spans.end();
  return t;
}

constexpr int kSetupsPerRep = 5;
constexpr int kMinSetups = 41;

// ------------------------------------------------------ layer timings

/// Median ns per call of `op` over 7 batches of ~4 ms each.
template <typename F>
double ns_per_call(F&& op) {
  std::uint64_t n = 256;
  for (;;) {
    const double t0 = wall_now();
    for (std::uint64_t i = 0; i < n; ++i) op(i);
    if (wall_now() - t0 > 0.004 || n > (1ull << 28)) break;
    n *= 2;
  }
  std::vector<double> v;
  for (int b = 0; b < 7; ++b) {
    const double t0 = wall_now();
    for (std::uint64_t i = 0; i < n; ++i) op(i);
    v.push_back((wall_now() - t0) * 1e9 / static_cast<double>(n));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// A VXLAN-encapsulated frame shaped like the workload's data frames:
/// 64 B UDP payload, or a 1400 B TCP segment (the MTU-sized case).
net::PacketBuf workload_frame(std::size_t payload, bool tcp,
                              std::uint32_t vni) {
  net::FrameSpec inner;
  inner.src_mac = net::MacAddr::parse("02:42:ac:11:00:02");
  inner.dst_mac = net::MacAddr::parse("02:42:ac:11:00:03");
  inner.src_ip = net::Ipv4Addr::of(172, 17, 0, 2);
  inner.dst_ip = net::Ipv4Addr::of(172, 17, 0, 3);
  inner.src_port = tcp ? kBulkSrcPort : kBgSrcBase;
  inner.dst_port = tcp ? kBulkPort : kBgPort;
  const std::vector<std::uint8_t> body(payload, 0x5a);
  net::PacketBuf frame;
  if (tcp) {
    net::TcpHeader th;
    th.seq = 1;
    th.ack = 1;
    th.flags = net::TcpFlags::kAck | net::TcpFlags::kPsh;
    frame = net::build_tcp_frame(inner, th, body);
  } else {
    frame = net::build_udp_frame(inner, body);
  }
  net::FrameSpec outer;
  outer.src_mac = net::MacAddr::parse("02:00:0a:00:00:01");
  outer.dst_mac = net::MacAddr::parse("02:00:0a:00:00:02");
  outer.src_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  outer.dst_ip = net::Ipv4Addr::of(10, 0, 0, 2);
  outer.src_port = 49152;
  outer.dst_port = net::kVxlanPort;
  net::vxlan_encapsulate(frame, outer, vni);
  return frame;
}

struct FrameCosts {
  double parse_ns = 0;
  double csum_ns = 0;
};

/// Outer + inner parse of one encapsulated frame, and the L4 checksum of
/// its inner segment.
FrameCosts time_frame(std::size_t payload, bool tcp, std::uint32_t vni) {
  const net::PacketBuf frame = workload_frame(payload, tcp, vni);
  const auto bytes = frame.bytes();
  net::ParsedFrame outer;
  net::ParsedFrame inner;
  if (!net::parse_frame_into(bytes, outer) ||
      outer.l4_payload.size() <= net::VxlanHeader::kSize ||
      !net::parse_frame_into(outer.l4_payload.subspan(net::VxlanHeader::kSize),
                             inner)) {
    throw std::runtime_error("benchmark frame does not parse");
  }
  FrameCosts c;
  c.parse_ns = ns_per_call([&](std::uint64_t) {
    const bool ok =
        net::parse_frame_into(bytes, outer) &&
        net::parse_frame_into(
            outer.l4_payload.subspan(net::VxlanHeader::kSize), inner);
    keep(ok);
    keep(inner.l4_payload_offset);
  });
  const std::size_t l4_header =
      tcp ? net::TcpHeader::kSize : net::UdpHeader::kSize;
  const auto inner_bytes = outer.l4_payload.subspan(net::VxlanHeader::kSize);
  const auto segment = inner_bytes.subspan(inner.l4_payload_offset - l4_header);
  c.csum_ns = ns_per_call([&](std::uint64_t) {
    net::ChecksumAccumulator acc;
    acc.add(segment);
    const std::uint16_t sum = acc.finish();
    keep(sum);
  });
  return c;
}

/// EventQueue push + pop at a steady depth of `depth` pending events.
double time_queue(double depth) {
  sim::EventQueue q;
  sim::Rng rng(7);
  const std::size_t d =
      std::max<std::size_t>(1, static_cast<std::size_t>(depth + 0.5));
  sim::Time now = 0;
  for (std::size_t i = 0; i < d; ++i) {
    q.push(static_cast<sim::Time>(rng.next() % 100'000), [] {});
  }
  std::uint64_t fired = 0;
  const double ns = ns_per_call([&](std::uint64_t) {
    q.push(now + static_cast<sim::Time>(rng.next() % 100'000),
           [&fired] { ++fired; });
    now = q.next_time();
    sim::EventFn fn = q.pop();
    fn();
  });
  keep(fired);
  return ns;
}

std::map<std::string, double> time_layers(const Params& p, Scenario& sc,
                                          double mean_pending) {
  std::map<std::string, double> t;
  t["sim.queue_op_ns"] = time_queue(mean_pending);
  const FrameCosts small = time_frame(64, false, sc.vni0());
  const FrameCosts mtu = time_frame(1400, true, sc.vni0());
  t["net.parse_ns_64B"] = small.parse_ns;
  t["net.csum_ns_64B"] = small.csum_ns;
  t["net.parse_ns_mtu"] = mtu.parse_ns;
  t["net.csum_ns_mtu"] = mtu.csum_ns;
  t["frame.parse_ns"] = p.tcp ? mtu.parse_ns : small.parse_ns;
  t["frame.csum_ns"] = p.tcp ? mtu.csum_ns : small.csum_ns;

  // The server's own FDB, as the run left it: lookups of a learned MAC.
  overlay::Netns& dst = sc.server_container0();
  overlay::Fdb& fdb = sc.server0().fdb(sc.vni0());
  const net::MacAddr mac = dst.mac();
  t["overlay.fdb_lookup_ns"] = ns_per_call([&](std::uint64_t) {
    overlay::Netns* ns = fdb.lookup(mac);
    keep(ns);
  });

  // A stand-alone cache of the default capacity: probes hit one of the
  // workload's few flows; fills insert fresh flows into a full cache,
  // so each one evicts the least recently used entry.
  overlay::FlowCache cache;
  cache.set_enabled(true);
  const auto flow_of = [](std::uint64_t i) {
    return net::FiveTuple{net::Ipv4Addr::of(172, 17, 0, 2),
                          net::Ipv4Addr::of(172, 17, 0, 3),
                          static_cast<std::uint16_t>(20000 + (i & 0x7fff)),
                          static_cast<std::uint16_t>(11111 + (i >> 15)),
                          net::IpProto::kUdp};
  };
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(flow_of(i), sc.vni0(), &dst, 0, cache.generation());
  }
  t["overlay.flowcache_probe_ns"] = ns_per_call([&](std::uint64_t i) {
    const overlay::FlowCacheEntry* e = cache.lookup(flow_of(i & 3), sc.vni0());
    keep(e);
  });
  std::uint64_t next = 4;
  t["overlay.flowcache_fill_ns"] = ns_per_call([&](std::uint64_t) {
    cache.insert(flow_of(next++ % 1'000'000), sc.vni0(), &dst, 0,
                 cache.generation());
  });

  telemetry::Registry reg;
  telemetry::Counter& counter = reg.counter("perfbench.counter");
  t["telemetry.counter_inc_ns"] = ns_per_call([&](std::uint64_t) {
    counter.inc();
    keep(counter);
  });

  telemetry::LatencyLedger ledger;
  kernel::SkbTimestamps ts;
  t["telemetry.ledger_record_ns"] = ns_per_call([&](std::uint64_t i) {
    const sim::Time base = static_cast<sim::Time>(i) * 3'000;
    ts.nic_rx = base;
    ts.stage1_start = base + 900;
    ts.stage1_done = base + 1'200;
    ts.stage2_start = base + 1'400;
    ts.stage2_done = base + 1'700;
    ts.stage3_start = base + 1'900;
    ts.stage3_done = base + 2'300;
    ts.socket_enqueue = base + 2'400;
    ledger.record_delivery(ts, static_cast<int>(i & 1));
  });

  telemetry::FlightRecorder recorder;
  t["telemetry.should_trace_ns"] = ns_per_call([&](std::uint64_t i) {
    const bool b = recorder.should_trace(flow_of(i & 0xffff), 0);
    keep(b);
  });
  return t;
}

// ------------------------------------------------------------ output

/// Percentile `q` of a nanosecond histogram, in microseconds.
std::string us(const stats::Histogram& h, double q) {
  return jnum(static_cast<double>(h.percentile(q)) / 1e3);
}

std::string rep_json(const Rep& r) {
  const Outcome& o = r.out;
  std::ostringstream s;
  s << "{\"kind\": " << jstr(r.kind) << ", \"threads\": " << r.threads
    << ", \"setup_s\": " << jnum(r.setup_s)
    << ", \"build_s\": " << jnum(r.build_s)
    << ", \"containers_s\": " << jnum(r.containers_s)
    << ", \"apps_s\": " << jnum(r.apps_s)
    << ", \"run_wall_s\": " << jnum(r.run_wall_s)
    << ", \"run_cpu_s\": " << jnum(r.run_cpu_s)
    << ", \"steal_ticks\": " << r.steal_ticks
    << ", \"events\": " << o.events
    << ", \"server_frames\": " << o.server_frames
    << ", \"client_frames\": " << o.client_frames
    << ", \"attempted\": " << o.attempted
    << ", \"answered\": " << o.answered
    << ", \"probe_samples\": " << o.probe.count()
    << ", \"probe_p50_us\": " << us(o.probe, 0.5)
    << ", \"probe_p99_us\": " << us(o.probe, 0.99)
    << ", \"bg_sent\": " << jnum(o.bg_sent)
    << ", \"bg_delivered\": " << jnum(o.bg_delivered)
    << ", \"mean_pending\": " << jnum(r.mean_pending)
    << ", \"cal_random_mops\": " << jnum(r.cal.random_mops)
    << ", \"cal_stream_gbps\": " << jnum(r.cal.stream_gbps)
    << ", \"sim_end_ns\": " << r.sim_end_ns << ", \"servers\": " << r.servers
    << ", \"ring_wait_p99_us\": " << us(o.ring_wait, 0.99)
    << ", \"stage2_wait_p99_us\": " << us(o.stage2_wait, 0.99)
    << ", \"stage3_wait_p99_us\": " << us(o.stage3_wait, 0.99)
    << ", \"skb_acquired\": " << r.skb_acquired
    << ", \"skb_reused\": " << r.skb_reused
    << ", \"buf_acquired\": " << r.buf_acquired
    << ", \"buf_reused\": " << r.buf_reused
    << ", \"violations\": [";
  for (std::size_t i = 0; i < o.violations.size(); ++i) {
    s << (i ? ", " : "") << jstr(o.violations[i]);
  }
  s << "], \"counts\": {";
  bool first = true;
  for (const auto& [k, v] : o.counts) {
    s << (first ? "" : ", ") << jstr(k) << ": " << jnum(v);
    first = false;
  }
  s << "}, \"digest\": " << jstr(o.digest.str()) << "}";
  return s.str();
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--profile") {
      const std::string v = value();
      if (v != "full" && v != "short") {
        throw std::invalid_argument("bad --profile " + v);
      }
      o.short_profile = v == "short";
    } else if (a == "--inject-violation") {
      o.inject_violation = true;
    } else if (a == "--spans-out") {
      o.spans_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

int run(const Options& o) {
  const Params p = params_for(o.workload, o.short_profile);
  const bool cluster = p.pairs > 1;
  const int threads = cluster ? kClusterThreads : 1;
  SpanLog spans(o.trace);
  std::vector<std::unique_ptr<Rep>> reps;
  std::map<std::string, double> layers;
  const double start = wall_now();
  const auto budget_left = [&] { return wall_now() - start < o.seconds; };
  // Set-up time is sampled by set-ups without a run, a few after every
  // repetition: the machine's speed drifts in phases of seconds, so
  // samples spread over the whole budget give a steadier median than
  // one back-to-back batch.
  std::vector<double> setups;
  const auto sample_setups = [&](int n) {
    for (int i = 0; i < n; ++i) setups.push_back(setup_only(o, p, spans));
  };

  // The reference repetition: warms the pools and caches, and gives the
  // digest every later repetition must reproduce. On the cluster it runs
  // on one thread, so the timed two-thread runs are also checked against
  // the single-thread schedule.
  reps.push_back(run_rep(o, p, "check", 1, spans));
  // Memory one run of the workload needs; later repetitions reuse it.
  const double rss_mib = peak_rss_mib();
  sample_setups(kSetupsPerRep);
  if (!o.trace) {
    do {
      reps.push_back(run_rep(o, p, "timed", threads, spans));
      sample_setups(kSetupsPerRep);
    } while (budget_left() || reps.size() < 4);
  } else {
    // Alternate untraced and traced repetitions; the last traced one is
    // kept alive for the layer timings.
    std::unique_ptr<Scenario> last;
    do {
      reps.push_back(run_rep(o, p, "timed", threads, spans));
      sample_setups(kSetupsPerRep);
      reps.push_back(run_rep(o, p, "traced", threads, spans, &last));
      sample_setups(kSetupsPerRep);
    } while (budget_left());
    layers = time_layers(p, *last, reps.back()->mean_pending);
  }
  sample_setups(kMinSetups - static_cast<int>(setups.size()));

  if (!o.spans_out.empty() && o.trace && !spans.write(o.spans_out)) {
    std::fprintf(stderr, "prism_perfbench: cannot write %s\n",
                 o.spans_out.c_str());
    return 2;
  }

#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "";
#endif
  std::ostringstream s;
  s << "{\"workload\": " << jstr(p.name) << ", \"seed\": " << o.seed
    << ", \"threads\": " << threads
    << ", \"profile\": " << jstr(o.short_profile ? "short" : "full")
    << ", \"build\": {\"build_type\": " << jstr(PERFBENCH_BUILD_TYPE)
    << ", \"compiler\": " << jstr(PERFBENCH_COMPILER)
    << ", \"sanitizer\": " << jstr(sanitizer)
    << ", \"PRISM_TELEMETRY\": " << PRISM_TELEMETRY_ENABLED
    << ", \"PRISM_FAULTS\": " << PRISM_FAULTS_ENABLED
    << ", \"PRISM_OVERLOAD\": " << PRISM_OVERLOAD_ENABLED
    << ", \"PRISM_FLOWCACHE\": " << PRISM_FLOWCACHE_ENABLED << "}"
    << ", \"peak_rss_mib\": " << jnum(rss_mib)
    << ", \"setup_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    s << (i ? ", " : "") << jnum(setups[i]);
  }
  s << "], \"layers\": {";
  bool first = true;
  for (const auto& [k, v] : layers) {
    s << (first ? "" : ", ") << jstr(k) << ": " << jnum(v);
    first = false;
  }
  s << "}, \"reps\": [\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    s << rep_json(*reps[i]) << (i + 1 == reps.size() ? "\n" : ",\n");
  }
  s << "]}\n";
  std::fputs(s.str().c_str(), stdout);
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(pb::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prism_perfbench: %s\n", e.what());
    return 2;
  }
}
