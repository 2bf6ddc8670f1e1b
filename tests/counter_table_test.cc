// Edge-case coverage for the frequency hot path's open-addressing counter
// store (frequency/counter_table.h): epoch-based bulk clears (round
// boundaries and virtual-site splits), growth at the load-factor
// threshold, extreme keys (0 and UINT64_MAX have no sentinel role), and
// stale-slot reuse across epochs.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/frequency/counter_table.h"

namespace disttrack {
namespace frequency {
namespace {

TEST(CounterTableTest, InsertFindIncrement) {
  CounterTable t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Find(42), nullptr);
  t.Insert(42, 1);
  ASSERT_NE(t.Find(42), nullptr);
  EXPECT_EQ(*t.Find(42), 1u);
  t.IncrementIfTracked(42);
  t.IncrementIfTracked(43);  // untracked: no-op, no insertion
  EXPECT_EQ(*t.Find(42), 2u);
  EXPECT_EQ(t.Find(43), nullptr);
  EXPECT_EQ(t.size(), 1u);
}

TEST(CounterTableTest, ExtremeKeysAreOrdinary) {
  CounterTable t;
  t.Insert(0, 7);
  t.Insert(~uint64_t{0}, 9);
  ASSERT_NE(t.Find(0), nullptr);
  ASSERT_NE(t.Find(~uint64_t{0}), nullptr);
  EXPECT_EQ(*t.Find(0), 7u);
  EXPECT_EQ(*t.Find(~uint64_t{0}), 9u);
  t.IncrementIfTracked(0);
  EXPECT_EQ(*t.Find(0), 8u);
  EXPECT_EQ(t.size(), 2u);
  // Both survive a grow cycle.
  for (uint64_t j = 1; j < 400; ++j) t.Insert(j, j);
  EXPECT_EQ(*t.Find(0), 8u);
  EXPECT_EQ(*t.Find(~uint64_t{0}), 9u);
}

TEST(CounterTableTest, ClearByEpochDropsEverything) {
  CounterTable t;
  for (uint64_t j = 0; j < 100; ++j) t.Insert(j * 31, j + 1);
  EXPECT_EQ(t.size(), 100u);
  uint64_t epoch_before = t.epoch();
  size_t cap_before = t.capacity();
  t.Clear();
  EXPECT_EQ(t.epoch(), epoch_before + 1);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), cap_before);  // capacity retained
  for (uint64_t j = 0; j < 100; ++j) {
    EXPECT_EQ(t.Find(j * 31), nullptr) << "stale key resurfaced: " << j * 31;
  }
}

TEST(CounterTableTest, StaleSlotsAreReusableAfterClear) {
  // Re-inserting the same keys after a clear lands on the same slots;
  // values must restart, not resume, and repeated clear/insert cycles
  // must neither leak size nor resurrect old values.
  CounterTable t;
  for (int round = 0; round < 50; ++round) {
    for (uint64_t j = 0; j < 40; ++j) {
      EXPECT_EQ(t.Find(j), nullptr);
      t.Insert(j, 1);
    }
    for (uint64_t j = 0; j < 40; ++j) {
      ASSERT_NE(t.Find(j), nullptr);
      EXPECT_EQ(*t.Find(j), 1u) << "value leaked across epochs";
    }
    EXPECT_EQ(t.size(), 40u);
    t.Clear();
  }
}

TEST(CounterTableTest, GrowthAtHighLoadKeepsAllEntries) {
  CounterTable t;
  size_t initial_capacity = t.capacity();
  // Large enough to push capacity past 2^16, where the fingerprint bits
  // must stay below the index bits (they are taken relative to shift_).
  const uint64_t kN = 40000;
  for (uint64_t j = 0; j < kN; ++j) t.Insert(j * 0x9E3779B1ull, j);
  EXPECT_GT(t.capacity(), initial_capacity);
  EXPECT_EQ(t.size(), static_cast<size_t>(kN));
  // Load factor stays at or below 1/2 after growth.
  EXPECT_LE(2 * t.size(), t.capacity());
  for (uint64_t j = 0; j < kN; ++j) {
    ASSERT_NE(t.Find(j * 0x9E3779B1ull), nullptr) << j;
    EXPECT_EQ(*t.Find(j * 0x9E3779B1ull), j);
  }
}

TEST(CounterTableTest, GrowthRehashesOnlyTheLiveEpoch) {
  CounterTable t;
  // Populate and clear: the stale slots still physically occupy the
  // array. A grow after the clear must not resurrect them.
  for (uint64_t j = 0; j < 200; ++j) t.Insert(j, j + 1);
  t.Clear();
  for (uint64_t j = 1000; j < 1600; ++j) t.Insert(j, j);  // forces growth
  for (uint64_t j = 0; j < 200; ++j) {
    EXPECT_EQ(t.Find(j), nullptr) << "pre-clear key " << j << " resurfaced";
  }
  for (uint64_t j = 1000; j < 1600; ++j) {
    ASSERT_NE(t.Find(j), nullptr);
    EXPECT_EQ(*t.Find(j), j);
  }
  EXPECT_EQ(t.size(), 600u);
}

TEST(CounterTableTest, MatchesUnorderedMapUnderRandomWorkload) {
  // Differential test against std::unordered_map over mixed
  // insert/increment/clear traffic, including adversarially colliding
  // keys (sequential ids — the Zipf workload's shape).
  Rng rng(12345);
  CounterTable t;
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int op = 0; op < 200000; ++op) {
    uint64_t key = rng.UniformU64(512);  // dense key space: many repeats
    if (op % 7919 == 7918) {
      t.Clear();
      ref.clear();
      continue;
    }
    auto it = ref.find(key);
    uint64_t* slot = t.Find(key);
    ASSERT_EQ(slot != nullptr, it != ref.end()) << "presence mismatch";
    if (it != ref.end()) {
      ASSERT_EQ(*slot, it->second);
      ++it->second;
      t.IncrementIfTracked(key);
    } else if (rng.Bernoulli(0.25)) {
      ref.emplace(key, 1);
      t.Insert(key, 1);
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& [key, value] : ref) {
    ASSERT_NE(t.Find(key), nullptr);
    EXPECT_EQ(*t.Find(key), value);
  }
}

// Find and the bulk IncrementTrackedRun path across epochs and growth:
// each epoch inserts enough keys to grow the table several times, then a
// bursty or scattered run (long enough for the four-lane walk) must leave
// every counter where per-key increments of a std::unordered_map leave
// it, and keys never inserted must stay untracked.
TEST(CounterTableTest, IncrementTrackedRunMatchesPerKeyAcrossEpochs) {
  Rng rng(0x5eed0007);
  CounterTable t;
  for (int epoch = 0; epoch < 8; ++epoch) {
    std::unordered_map<uint64_t, uint64_t> ref;
    size_t inserts = 1 + rng.UniformU64(500);
    for (size_t i = 0; i < inserts; ++i) {
      uint64_t key = rng.UniformU64(2000);
      if (t.Find(key) == nullptr) {
        uint64_t value = 1 + rng.UniformU64(100);
        t.Insert(key, value);
        ref.emplace(key, value);
      }
    }
    std::vector<uint64_t> run;
    size_t run_len = rng.UniformU64(3000);
    for (size_t i = 0; i < run_len; ++i) {
      uint64_t key = rng.UniformU64(2000);
      size_t burst = 1 + rng.UniformU64(epoch % 2 == 0 ? 6 : 1);
      for (size_t r = 0; r < burst; ++r) run.push_back(key);
    }
    t.IncrementTrackedRun(run.data(), run.size());
    for (uint64_t key : run) {
      auto it = ref.find(key);
      if (it != ref.end()) ++it->second;
    }
    ASSERT_EQ(t.size(), ref.size());
    for (const auto& [key, value] : ref) {
      const uint64_t* found = t.Find(key);
      ASSERT_NE(found, nullptr) << "key " << key;
      ASSERT_EQ(*found, value) << "key " << key;
    }
    for (int probe = 0; probe < 200; ++probe) {
      ASSERT_EQ(t.Find(2000 + rng.UniformU64(2000)), nullptr);
    }
    t.Clear();
    ASSERT_EQ(t.size(), 0u);
  }
}

}  // namespace
}  // namespace frequency
}  // namespace disttrack
