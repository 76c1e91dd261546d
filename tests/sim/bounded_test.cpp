// The shared bounded containers, on the cases their collectors' tests
// (FlowTable, FlowCache, SpanTracer, PollTrace, FlightRecorder,
// LaneProfiler) never reach.
#include "sim/bounded.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace prism::sim {
namespace {

std::vector<int> keys_mru_first(const BoundedLru<int, int>& lru) {
  std::vector<int> out;
  for (const auto& node : lru) out.push_back(node.key);
  return out;
}

TEST(BoundedLruTest, EraseThenRefillEvictsInTrueLruOrder) {
  BoundedLru<int, int> lru(3);
  for (int k : {1, 2, 3}) lru.insert(k) = k * 10;
  lru.erase(lru.find(2));  // a stale middle entry goes
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.find(2), lru.end());

  lru.insert(4) = 40;  // fills the freed slot: nothing evicted
  EXPECT_EQ(lru.evictions(), 0u);
  EXPECT_EQ(keys_mru_first(lru), (std::vector<int>{4, 3, 1}));

  lru.touch(lru.find(1));  // 3 is now least recently used
  lru.insert(5) = 50;
  EXPECT_EQ(lru.evictions(), 1u);
  EXPECT_EQ(lru.find(3), lru.end());
  lru.insert(6) = 60;
  EXPECT_EQ(lru.evictions(), 2u);
  EXPECT_EQ(lru.find(4), lru.end());
  EXPECT_EQ(keys_mru_first(lru), (std::vector<int>{6, 5, 1}));
  EXPECT_EQ(lru.find(1)->value, 10);
}

TEST(BoundedLruTest, FullInsertReusesTheVictimNode) {
  BoundedLru<int, std::vector<int>> lru(2);
  lru.insert(1).assign(64, 7);
  lru.insert(2).assign(1, 8);
  const std::vector<int>* victim = &lru.find(1)->value;
  const int* victim_storage = victim->data();

  std::vector<int>& fresh = lru.insert(3);  // evicts 1, reusing its node
  EXPECT_EQ(&fresh, victim);
  // The value still holds the victim's fields (and storage) for the
  // caller to overwrite.
  EXPECT_EQ(fresh.data(), victim_storage);
  EXPECT_EQ(fresh.size(), 64u);
  EXPECT_EQ(lru.find(3)->key, 3);
  EXPECT_EQ(lru.find(1), lru.end());
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(BoundedRingTest, CapacityOneKeepsTheNewest) {
  BoundedRing<int> ring(1);
  for (int v : {1, 2, 3}) ring.push(v);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.at(0), 3);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.pushed(), 3u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  ring.push(4);
  EXPECT_EQ(ring.at(0), 4);
}

TEST(NameTableTest, ThrowsOnceFull) {
  NameTable names;
  for (std::size_t i = 0; i < NameTable::kMaxNames; ++i) {
    ASSERT_EQ(names.intern(std::to_string(i)), static_cast<NameTable::Id>(i));
  }
  EXPECT_EQ(names.intern("65535"), 65535);  // known names still resolve
  EXPECT_EQ(names.name(7), "7");
  EXPECT_THROW(names.intern("one too many"), std::length_error);
}

}  // namespace
}  // namespace prism::sim
