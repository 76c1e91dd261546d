// Wall-clock profiler for the parallel lane engine.
//
// The conservative-window scheduler (sim/lane.h) answers "was the run
// correct"; this profiler answers "why did it run at this speed". Per
// window round it records, for every lane, the window's simulated length,
// the events it executed and the wall-clock time they took (busy), plus
// the messages its inboxes delivered at the round's edge; and, for every
// worker thread, the round's wall time split into barrier wait, busy work
// and idle slack. The window-computation step additionally attributes
// each round to its *critical lane* — the lane whose next pending event
// bounded the release-time fixpoint, i.e. the lane the whole round was
// waiting on — so a flat scaling curve can be read back to "lane 3 set
// the pace in 80% of rounds".
//
// Recording is zero-allocation on the hot path: every per-round record
// lands in a ring preallocated at attach time (overwrites are counted,
// never silent), and the per-lane / per-worker totals are plain adds into
// preallocated slots. The LaneSet only touches the profiler through a
// nullable pointer, so a detached engine (set_profiler(nullptr), the
// default) pays a single branch per round.
//
// Wall-clock readings are *sampled*: rounds are often shorter than a
// microsecond, so reading the clock six times per round would cost more
// than the rounds themselves (a measured ~30% slowdown on short-window
// workloads). Only every sample_every()-th round pays the clock reads
// and produces LaneRound/WorkerRound records. The integer totals —
// events, simulated time, inbox messages/high-water/spills, round and
// critical-path counts — stay exact anyway because they come from
// counters the engine maintains regardless (simulator event counts,
// lane clocks, SPSC push/high-water/spill counters, the window
// counter), snapshotted once per run_until: an unsampled round pays the
// profiler nothing beyond the sampling check itself. busy/barrier/
// idle/wall totals cover the sampled rounds only (divide by
// sampled_rounds for per-round averages); ratios like busy_imbalance()
// are unaffected. The sampled round indices depend only on the round
// counter, so profiled runs remain schedule-deterministic at any
// thread count.
//
// The profiler accumulates across run_until() calls (rounds keep
// numbering monotonically); reset() starts a fresh capture. Snapshots
// are consumed by telemetry/rollup.{h,cpp}: lanes_json() renders the
// "prism/lanes" proc document and export_lane_trace() turns the retained
// rounds into per-lane Chrome-trace tracks.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/time.h"

namespace prism::sim {

class LaneProfiler {
 public:
  /// One sampled (round, lane) execution record.
  struct LaneRound {
    std::uint64_t round = 0;   ///< window round number, 1-based
    std::uint32_t lane = 0;
    std::uint32_t worker = 0;  ///< OS worker that ran the lane this round
    Time window_start = 0;     ///< lane clock when the window opened
    Time window_end = 0;       ///< this round's horizon for the lane
    std::uint64_t events = 0;  ///< events executed inside the window
    std::uint64_t busy_ns = 0;  ///< wall ns spent executing them
    std::uint32_t inbox_msgs = 0;  ///< cross-lane arrivals drained
  };

  /// One sampled (round, worker) accounting record. The three components
  /// are disjoint wall-clock subintervals of the round, so
  /// barrier_wait_ns + busy_ns + idle_ns() <= wall_ns always holds and
  /// idle is the (non-negative) remainder.
  struct WorkerRound {
    std::uint64_t round = 0;
    std::uint32_t worker = 0;
    std::uint64_t wall_ns = 0;     ///< drain start -> second barrier release
    std::uint64_t barrier_wait_ns = 0;  ///< both barrier waits of the round
    std::uint64_t busy_ns = 0;     ///< inbox drains + lane execution

    std::uint64_t idle_ns() const noexcept {
      const std::uint64_t used = barrier_wait_ns + busy_ns;
      return wall_ns > used ? wall_ns - used : 0;
    }
  };

  /// Whole-capture aggregate for one lane. events / sim_ns / inbox
  /// counters are exact over the capture — snapshotted from counters the
  /// engine maintains anyway at the end of each run (zero hot-path
  /// cost); busy_ns covers the sampled rounds only.
  struct LaneTotals {
    std::uint64_t events = 0;   ///< events the lane executed
    /// Rounds that carry wall-clock readings; busy_ns sums over exactly
    /// these.
    std::uint64_t sampled_rounds = 0;
    std::uint64_t busy_ns = 0;  ///< wall ns executing, sampled rounds only
    Time sim_ns = 0;            ///< simulated time advanced while profiled
    std::uint64_t inbox_msgs = 0;        ///< cross-lane arrivals received
    std::uint32_t inbox_high_water = 0;  ///< max inbox backlog observed
    std::uint64_t inbox_spills = 0;      ///< ring overflows
    /// Rounds whose release-time fixpoint this lane bounded (its next
    /// pending event was the round's global minimum).
    std::uint64_t critical_rounds = 0;
  };

  /// Whole-capture aggregate for one worker thread; covers the sampled
  /// rounds only (the unsampled ones never read the clock).
  struct WorkerTotals {
    std::uint64_t rounds = 0;  ///< sampled rounds
    std::uint64_t wall_ns = 0;
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t busy_ns = 0;

    std::uint64_t idle_ns() const noexcept {
      const std::uint64_t used = barrier_wait_ns + busy_ns;
      return wall_ns > used ? wall_ns - used : 0;
    }
  };

  static constexpr std::size_t kDefaultRoundCapacity = 1 << 14;
  /// Every how-many-th round pays the clock reads by default. 64 keeps
  /// the measured overhead well inside the 3% budget on sub-microsecond
  /// rounds while still sampling thousands of rounds per second.
  static constexpr std::uint64_t kDefaultSampleEvery = 64;

  /// `round_capacity` bounds each record ring (LaneRound and WorkerRound
  /// separately); the oldest records are overwritten — and counted — once
  /// a ring fills. Totals are exact regardless of ring retention.
  /// `sample_every` sets the wall-clock sampling period (0 -> default;
  /// 1 = every round, for tests and fine-grained traces).
  explicit LaneProfiler(std::size_t round_capacity = kDefaultRoundCapacity,
                        std::uint64_t sample_every = kDefaultSampleEvery);

  LaneProfiler(const LaneProfiler&) = delete;
  LaneProfiler& operator=(const LaneProfiler&) = delete;

  // ------------------------------------------------- LaneSet-facing hooks
  // (Hot-path: called with the profiler attached; every record is plain
  // stores into preallocated storage.)

  /// Sizes per-lane/per-worker slots. Called by LaneSet::run_until();
  /// idempotent across runs of the same geometry.
  void begin_run(int lanes, int workers);

  /// The engine samples wall clocks on rounds where
  /// `round_counter % sample_every() == 0`.
  std::uint64_t sample_every() const noexcept { return sample_every_; }

  /// One lane's sampled execution: its window plus its wall-clock cost
  /// (sampled rounds only; lands in the record ring).
  void record_lane_sample(std::uint64_t round, int lane, int worker,
                          Time window_start, Time window_end,
                          std::uint64_t events, std::uint64_t busy_ns,
                          std::uint32_t inbox_msgs);

  /// One worker finished a sampled round.
  void record_worker_round(std::uint64_t round, int worker,
                           std::uint64_t wall_ns,
                           std::uint64_t barrier_wait_ns,
                           std::uint64_t busy_ns);

  /// The completion step computed round `round`; `critical_lane` held the
  /// earliest pending event (the fixpoint's lower bound). Inline: runs
  /// once per round on the (single) completion thread.
  void record_window(std::uint64_t round, int critical_lane) {
    (void)round;  // round numbers restart per run; windows_ counts overall
    ++windows_;
    if (critical_lane >= 0 &&
        static_cast<std::size_t>(critical_lane) < lanes_.size()) {
      ++lanes_[static_cast<std::size_t>(critical_lane)].critical_rounds;
    }
  }

  /// Folds one finished run's engine counters for `lane` into the totals
  /// (cold path, once per lane per run_until). `events`, `sim_ns`,
  /// `inbox_msgs` and `inbox_spills` are deltas over the run;
  /// `inbox_high_water` is max-merged.
  void add_lane_run_totals(int lane, std::uint64_t events, Time sim_ns,
                           std::uint64_t inbox_msgs,
                           std::uint32_t inbox_high_water,
                           std::uint64_t inbox_spills);

  /// Run finished: cross-lane messages posted during the run.
  void end_run(std::uint64_t messages_posted);

  // ----------------------------------------------------------- snapshot
  /// Window rounds witnessed across every profiled run_until().
  std::uint64_t rounds_recorded() const noexcept { return windows_; }
  std::uint64_t messages_posted() const noexcept { return messages_; }
  int num_lanes() const noexcept { return static_cast<int>(lanes_.size()); }
  int num_workers() const noexcept {
    return static_cast<int>(workers_.size());
  }

  const LaneTotals& lane(int i) const {
    return lanes_[static_cast<std::size_t>(i)];
  }
  const WorkerTotals& worker(int i) const {
    return workers_[static_cast<std::size_t>(i)];
  }

  /// Retained per-round records, oldest first.
  std::size_t lane_round_count() const noexcept { return lane_ring_.size; }
  const LaneRound& lane_round(std::size_t i) const {
    return lane_ring_.at(i);
  }
  std::uint64_t lane_rounds_dropped() const noexcept {
    return lane_ring_.dropped;
  }
  std::size_t worker_round_count() const noexcept {
    return worker_ring_.size;
  }
  const WorkerRound& worker_round(std::size_t i) const {
    return worker_ring_.at(i);
  }
  std::uint64_t worker_rounds_dropped() const noexcept {
    return worker_ring_.dropped;
  }

  /// Busy-time imbalance across lanes: max lane busy / mean lane busy
  /// (1.0 = perfectly balanced; 0 when nothing ran). The gap between a
  /// measured speedup and the lane count is usually this number.
  double busy_imbalance() const noexcept;

  /// Events-executed imbalance across lanes (same max/mean shape) — the
  /// thread-count-independent companion to busy_imbalance().
  double event_imbalance() const noexcept;

  /// Drops every record and total (capacity is kept).
  void reset();

 private:
  template <typename T>
  struct Ring {
    std::vector<T> data;     ///< preallocated to capacity
    std::size_t capacity = 0;
    std::size_t size = 0;
    std::size_t head = 0;    ///< index of the oldest record
    std::uint64_t dropped = 0;

    void push(const T& v) {
      if (size < capacity) {
        data[size++] = v;
        return;
      }
      data[head] = v;
      head = (head + 1) % capacity;
      ++dropped;
    }
    const T& at(std::size_t i) const {
      return data[(head + i) % capacity];
    }
    void clear() {
      size = 0;
      head = 0;
      dropped = 0;
    }
  };

  std::vector<LaneTotals> lanes_;
  std::vector<WorkerTotals> workers_;
  /// Guards the record rings: sampled records arrive from every worker
  /// thread concurrently. Taken only on sampled rounds (1 in
  /// sample_every()), so contention is negligible; the per-lane and
  /// per-worker totals stay lock-free (single writer each — a lane is
  /// owned by one worker for a whole run, critical_rounds is written by
  /// the completion step while all workers are parked).
  std::mutex ring_mu_;
  Ring<LaneRound> lane_ring_;
  Ring<WorkerRound> worker_ring_;
  std::uint64_t sample_every_ = kDefaultSampleEvery;
  std::uint64_t windows_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace prism::sim
