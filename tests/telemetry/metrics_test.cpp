#include <gtest/gtest.h>

#include <cstdint>

#include "telemetry/metrics.h"

namespace prism::telemetry {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, TracksValueAndHighWatermark) {
  Gauge g;
  g.set(5);
  g.set(12);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max_value(), 12);
  g.add(-3);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 12);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 0);
}

TEST(GaugeTest, SinkIsProcessWide) {
  EXPECT_EQ(&Gauge::sink(), &Gauge::sink());
  Gauge::sink().set(7);  // must not crash
}

TEST(RegistryTest, CounterRegistrationIsIdempotent) {
  Registry reg;
  Counter& a = reg.counter("nic.rx_frames");
  Counter& b = reg.counter("nic.rx_frames");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.counter_count(), 1u);
  a.inc(10);
  EXPECT_EQ(b.value(), 10u);
}

TEST(RegistryTest, SharedNameAggregatesAcrossComponents) {
  // Two components binding the same name (e.g. every UDP socket under
  // "sockets.") intentionally share one aggregate counter.
  Registry reg;
  Counter* sock1 = &reg.counter("sockets.rcvbuf_enqueued");
  Counter* sock2 = &reg.counter("sockets.rcvbuf_enqueued");
  sock1->inc(2);
  sock2->inc(3);
  EXPECT_EQ(reg.counter_value("sockets.rcvbuf_enqueued"), 5u);
}

TEST(RegistryTest, HandleAddressesSurviveManyRegistrations) {
  Registry reg;
  Counter* first = &reg.counter("c0");
  first->inc();
  // Force internal growth; deque storage must not move existing entries.
  for (int i = 1; i < 500; ++i) {
    // Not `"c" + to_string(i)`: GCC 12 -O3 false -Wrestrict on it.
    reg.counter(std::string("c").append(std::to_string(i)));
  }
  EXPECT_EQ(&reg.counter("c0"), first);
  EXPECT_EQ(first->value(), 1u);
}

TEST(RegistryTest, CounterValueUnknownNameIsZero) {
  Registry reg;
  reg.counter("known").inc(9);
  EXPECT_EQ(reg.counter_value("known"), 9u);
  EXPECT_EQ(reg.counter_value("unknown"), 0u);
}

TEST(RegistryTest, SnapshotsPreserveRegistrationOrder) {
  Registry reg;
  reg.counter("zulu").inc(1);
  reg.counter("alpha").inc(2);
  reg.gauge("mike").set(3);
  reg.gauge("bravo").set(4);

  const auto cs = reg.counters();
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].name, "zulu");
  EXPECT_EQ(cs[0].value, 1u);
  EXPECT_EQ(cs[1].name, "alpha");
  EXPECT_EQ(cs[1].value, 2u);

  const auto gs = reg.gauges();
  ASSERT_EQ(gs.size(), 2u);
  EXPECT_EQ(gs[0].name, "mike");
  EXPECT_EQ(gs[0].value, 3);
  EXPECT_EQ(gs[1].name, "bravo");
  EXPECT_EQ(gs[1].value, 4);
}

TEST(RegistryTest, GaugesAreIdempotentToo) {
  Registry reg;
  Gauge& a = reg.gauge("ring_depth");
  Gauge& b = reg.gauge("ring_depth");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.gauge_count(), 1u);
}

TEST(RegistryTest, AttachedSourcesAreSummedAtReadTime) {
  // Two components owning one count each (two UDP sockets' rcvbuf
  // totals) attach under one name; the registry reads their live sum.
  Registry reg;
  std::uint64_t sock1 = 0;
  std::uint64_t sock2 = 0;
  reg.attach("sockets.rcvbuf_enqueued", sock1);
  reg.counter("zulu");
  reg.attach("sockets.rcvbuf_enqueued", sock2);  // second source, same slot
  sock1 = 2;
  sock2 = 3;
  EXPECT_EQ(reg.counter_value("sockets.rcvbuf_enqueued"), 5u);
  EXPECT_EQ(reg.counter_count(), 2u);

  const auto cs = reg.counters();
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].name, "sockets.rcvbuf_enqueued");
  EXPECT_EQ(cs[0].value, 5u);
  EXPECT_EQ(cs[1].name, "zulu");

  ++sock2;  // a component-side increment is visible at the next read
  EXPECT_EQ(reg.counter_value("sockets.rcvbuf_enqueued"), 6u);
  EXPECT_EQ(reg.counters()[0].value, 6u);
}

}  // namespace
}  // namespace prism::telemetry
