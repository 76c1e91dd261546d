// LaneProfiler unit tests: sampled wall-clock accounting conserves each
// round's time, the exact totals match the engine's own counters, the
// critical-path attribution covers every round, spill/inbox accounting
// is byte-identical across thread counts, and an attached profiler never
// perturbs the schedule.
#include "sim/lane_profiler.h"

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "sim/lane.h"
#include "sim/time.h"

namespace prism::sim {
namespace {

/// Cross-lane ping-pong: lanes `a` and `b` exchange `remaining` messages
/// over a link with `prop` propagation. Each hop is one event on the
/// receiving lane, so both lanes stay busy and every round carries a
/// cross-lane message.
struct PingPong {
  LaneSet& set;
  int a;
  int b;
  Duration prop;
  int remaining;

  void start() {
    set.lane(a).schedule_at(1, [this] { hop(a, b); });
  }
  void hop(int from, int to) {
    if (remaining-- <= 0) return;
    set.post(from, to, set.lane(from).now() + prop + 1,
             [this, from, to] { hop(to, from); });
  }
};

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
};

RunResult run_ping_pong(int threads, LaneProfiler* prof,
                        Time deadline = 200'000) {
  LaneSet set(2);
  set.register_link(0, 1, 100);
  if (prof != nullptr) set.set_profiler(prof);
  PingPong pp{set, 0, 1, 100, 400};
  pp.start();
  set.run_until(deadline, threads);
  set.set_profiler(nullptr);
  return {set.events_executed(), set.messages_posted()};
}

TEST(LaneProfilerTest, AttachFollowsTelemetryBuild) {
  LaneSet set(2);
  LaneProfiler prof(128, 1);
  set.set_profiler(&prof);
  EXPECT_EQ(set.profiler(), &prof);
  set.set_profiler(nullptr);
}

TEST(LaneProfilerTest, ProfiledRunMatchesUnprofiledRun) {
  const RunResult plain = run_ping_pong(1, nullptr);
  LaneProfiler prof(1 << 10, 1);
  const RunResult profiled = run_ping_pong(1, &prof);
  EXPECT_EQ(plain.events, profiled.events);
  EXPECT_EQ(plain.messages, profiled.messages);
  // And across thread counts with the profiler attached.
  LaneProfiler prof2(1 << 10, 1);
  const RunResult parallel = run_ping_pong(2, &prof2);
  EXPECT_EQ(plain.events, parallel.events);
  EXPECT_EQ(plain.messages, parallel.messages);
}

TEST(LaneProfilerTest, WorkerRoundTimeConservation) {
  for (int threads : {1, 2}) {
    LaneProfiler prof(1 << 12, 1);  // sample every round
    run_ping_pong(threads, &prof);
    ASSERT_GT(prof.worker_round_count(), 0u) << "threads=" << threads;
    for (std::size_t i = 0; i < prof.worker_round_count(); ++i) {
      const auto& r = prof.worker_round(i);
      // The measured components are disjoint subintervals of the round,
      // so they can never exceed the round's wall time, and idle is
      // exactly the remainder.
      EXPECT_LE(r.barrier_wait_ns + r.busy_ns, r.wall_ns);
      EXPECT_EQ(r.barrier_wait_ns + r.busy_ns + r.idle_ns(), r.wall_ns);
    }
    for (int w = 0; w < prof.num_workers(); ++w) {
      const auto& t = prof.worker(w);
      EXPECT_EQ(t.barrier_wait_ns + t.busy_ns + t.idle_ns(), t.wall_ns);
    }
  }
}

TEST(LaneProfilerTest, ExactTotalsMatchEngineCounters) {
  LaneSet set(2);
  set.register_link(0, 1, 100);
  LaneProfiler prof(256, 4);
  set.set_profiler(&prof);
  PingPong pp{set, 0, 1, 100, 300};
  pp.start();
  const Time deadline = 100'000;
  set.run_until(deadline, 1);

  // Event / message / window totals come from the engine's own counters,
  // so they are exact even though only 1 in 4 rounds was sampled.
  EXPECT_EQ(prof.lane(0).events + prof.lane(1).events,
            set.events_executed());
  EXPECT_EQ(prof.lane(0).inbox_msgs + prof.lane(1).inbox_msgs,
            set.messages_posted());
  EXPECT_EQ(prof.messages_posted(), set.messages_posted());
  EXPECT_EQ(prof.rounds_recorded(), set.windows_run());
  EXPECT_EQ(prof.lane(0).sim_ns, deadline);
  EXPECT_EQ(prof.lane(1).sim_ns, deadline);

  // Every round has exactly one critical lane.
  EXPECT_EQ(prof.lane(0).critical_rounds + prof.lane(1).critical_rounds,
            prof.rounds_recorded());

  // Sampling: records exist, cover only every 4th round (the round
  // counter restarts at 0 per run and is stamped post-increment, so
  // retained round numbers are ≡ 1 mod 4), and busy time is attributed
  // to exactly the sampled rounds.
  ASSERT_GT(prof.lane_round_count(), 0u);
  for (std::size_t i = 0; i < prof.lane_round_count(); ++i) {
    EXPECT_EQ(prof.lane_round(i).round % 4, 1u);
  }
  EXPECT_GT(prof.lane(0).sampled_rounds, 0u);
  EXPECT_LT(prof.lane(0).sampled_rounds, prof.rounds_recorded());
  set.set_profiler(nullptr);
}

TEST(LaneProfilerTest, InboxAccountingIdenticalAcrossThreadCounts) {
  // A burst large enough to overflow the 1024-slot inbox ring onto the
  // spill path: one lane-0 event posts 3000 messages in a single window.
  auto run = [](int threads, LaneProfiler* prof) {
    LaneSet set(2);
    set.register_link(0, 1, 50);
    if (prof != nullptr) set.set_profiler(prof);
    set.lane(0).schedule_at(10, [&set] {
      for (int i = 0; i < 3000; ++i) {
        set.post(0, 1, set.lane(0).now() + 51 + i, [] {});
      }
    });
    set.run_until(10'000, threads);
    set.set_profiler(nullptr);
    return std::make_pair(set.lane_inbox_spills(1),
                          set.lane_inbox_pushed(1));
  };
  const auto serial = run(1, nullptr);
  const auto parallel = run(2, nullptr);
  EXPECT_GT(serial.first, 0u) << "burst did not overflow the inbox ring";
  EXPECT_EQ(serial.second, 3000u);
  EXPECT_EQ(serial, parallel);

  // The profiler's per-lane totals see the same numbers at any thread
  // count, and attaching it does not change the engine's accounting.
  LaneProfiler p1(64, 8);
  LaneProfiler p2(64, 8);
  const auto prof_serial = run(1, &p1);
  const auto prof_parallel = run(2, &p2);
  EXPECT_EQ(prof_serial, serial);
  EXPECT_EQ(prof_parallel, serial);
  EXPECT_EQ(p1.lane(1).inbox_spills, serial.first);
  EXPECT_EQ(p2.lane(1).inbox_spills, serial.first);
  EXPECT_EQ(p1.lane(1).inbox_msgs, 3000u);
  EXPECT_EQ(p2.lane(1).inbox_msgs, 3000u);
  EXPECT_EQ(p1.lane(1).inbox_high_water, p2.lane(1).inbox_high_water);
}

TEST(LaneProfilerTest, CriticalLaneAttributionFollowsTheBusyLane) {
  // Lane 0 runs a dense local schedule; lane 1 only ever receives a
  // couple of messages. Lane 0's next event bounds nearly every round.
  LaneSet set(2);
  set.register_link(0, 1, 100);
  LaneProfiler prof(256, 1);
  set.set_profiler(&prof);
  for (Time t = 1; t < 50'000; t += 10) {
    set.lane(0).schedule_at(t, [] {});
  }
  set.lane(0).schedule_at(5, [&set] {
    set.post(0, 1, set.lane(0).now() + 101, [] {});
  });
  set.run_until(50'000, 1);
  EXPECT_GT(prof.lane(0).critical_rounds, prof.lane(1).critical_rounds);
  EXPECT_EQ(prof.lane(0).critical_rounds + prof.lane(1).critical_rounds,
            prof.rounds_recorded());
  EXPECT_GT(prof.event_imbalance(), 1.5);
  set.set_profiler(nullptr);
}

TEST(LaneProfilerTest, RingRetentionDropsOldestAndCounts) {
  LaneProfiler prof(8, 1);  // tiny ring, sample every round
  run_ping_pong(1, &prof);
  ASSERT_GT(prof.rounds_recorded(), 8u);
  EXPECT_EQ(prof.lane_round_count(), 8u);
  EXPECT_GT(prof.lane_rounds_dropped(), 0u);
  // Retained records are the most recent ones, oldest first.
  for (std::size_t i = 1; i < prof.lane_round_count(); ++i) {
    EXPECT_LE(prof.lane_round(i - 1).round, prof.lane_round(i).round);
  }
}

TEST(LaneProfilerTest, ResetClearsEverything) {
  LaneProfiler prof(64, 1);
  run_ping_pong(1, &prof);
  ASSERT_GT(prof.rounds_recorded(), 0u);
  prof.reset();
  EXPECT_EQ(prof.rounds_recorded(), 0u);
  EXPECT_EQ(prof.messages_posted(), 0u);
  EXPECT_EQ(prof.lane_round_count(), 0u);
  EXPECT_EQ(prof.worker_round_count(), 0u);
  EXPECT_EQ(prof.lane(0).events, 0u);
  EXPECT_EQ(prof.lane(0).busy_ns, 0u);
  // A fresh capture after reset works and counts from zero again.
  run_ping_pong(1, &prof);
  EXPECT_GT(prof.rounds_recorded(), 0u);
}

}  // namespace
}  // namespace prism::sim
