// Arena-layer unit tests: the pooled-allocation and flat-container
// primitives the simulators' hot paths now sit on.
//  * core::Pool — slab stability, free-list recycling, generation bumps
//    that invalidate stale handles, capacity reuse across lifetimes;
//  * core::Recycler — bounded retirement, buffer-capacity reuse;
//  * core::InlineFunction — inline vs heap captures, move-only transfer,
//    destruction of captured state (leak-checked under the ASan CI leg);
//  * core::FlatMap / FlatSet — probe/erase/tombstone/rehash behaviour, the
//    sizing rules (reserve at <=50% load, clear() keeping a right-sized
//    allocation and freeing an oversized one) and the sorted_keys()
//    determinism contract the record pipeline relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/flat_map.hpp"
#include "core/inline_function.hpp"

namespace lispcp::core {
namespace {

TEST(Pool, AllocateReleaseRecyclesIndices) {
  Pool<int> pool;
  const std::uint32_t a = pool.allocate();
  pool[a] = 41;
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.capacity(), Pool<int>::kSlabSize);

  pool.release(a);
  EXPECT_EQ(pool.live(), 0u);

  // The freed slot is handed out again before any fresh one.
  const std::uint32_t b = pool.allocate();
  EXPECT_EQ(b, a);
}

TEST(Pool, GenerationBumpInvalidatesStaleHandles) {
  Pool<int> pool;
  const std::uint32_t index = pool.allocate();
  const std::uint32_t before = pool.generation(index);
  pool.release(index);
  EXPECT_EQ(pool.generation(index), before + 1);

  // A second lifetime of the same slot has a distinct stamp, so an
  // (index, generation) handle from the first lifetime no longer matches.
  const std::uint32_t again = pool.allocate();
  ASSERT_EQ(again, index);
  EXPECT_NE(pool.generation(again), before);
}

TEST(Pool, RetiredSlotStaysAllocatedUntilRecycled) {
  Pool<int> pool;
  const std::uint32_t index = pool.allocate();
  pool[index] = 7;
  const std::uint32_t before = pool.generation(index);
  pool.retire(index);
  EXPECT_EQ(pool.generation(index), before + 1) << "old handles go stale";
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool[index], 7) << "the value is still usable in place";
  // A retired slot is not handed out again until it is recycled.
  const std::uint32_t other = pool.allocate();
  EXPECT_NE(other, index);
  pool.recycle(index);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.allocate(), index);
  EXPECT_EQ(pool.generation(index), before + 1) << "recycle bumps nothing";
}

TEST(Pool, SlabsNeverMove) {
  Pool<int> pool;
  const std::uint32_t first = pool.allocate();
  int* address = &pool[first];
  // Force several slab growths; the first slot must stay put (the event
  // queue holds raw references across schedule() calls).
  std::vector<std::uint32_t> held;
  for (std::size_t i = 0; i < Pool<int>::kSlabSize * 4; ++i) {
    held.push_back(pool.allocate());
  }
  EXPECT_GE(pool.capacity(), Pool<int>::kSlabSize * 4);
  EXPECT_EQ(&pool[first], address);
  for (const auto index : held) pool.release(index);
  pool.release(first);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Pool, ReleasedSlotKeepsValueState) {
  Pool<std::vector<int>> pool;
  const std::uint32_t index = pool.allocate();
  pool[index].reserve(1024);
  const std::size_t kept = pool[index].capacity();
  pool.release(index);

  // Reuse is the point: the vector's buffer survives the release so the
  // next lifetime starts with capacity instead of growing from zero.
  const std::uint32_t again = pool.allocate();
  ASSERT_EQ(again, index);
  EXPECT_GE(pool[again].capacity(), kept);
}

TEST(Recycler, AcquireReusesRetiredBuffers) {
  Recycler<std::vector<int>> recycler;
  std::vector<int> buffer;
  buffer.reserve(512);
  recycler.release(std::move(buffer));
  EXPECT_EQ(recycler.retired(), 1u);

  std::vector<int> out = recycler.acquire();
  EXPECT_GE(out.capacity(), 512u);
  EXPECT_EQ(recycler.retired(), 0u);

  // Empty recycler hands back a fresh object.
  std::vector<int> fresh = recycler.acquire();
  EXPECT_EQ(fresh.capacity(), 0u);
}

TEST(Recycler, BoundDropsExcessRetirees) {
  Recycler<std::vector<int>> recycler(2);
  for (int i = 0; i < 5; ++i) {
    std::vector<int> v(8, i);
    recycler.release(std::move(v));
  }
  EXPECT_EQ(recycler.retired(), 2u);
}

TEST(InlineFunction, SmallCaptureStaysInlineAndRuns) {
  int target = 0;
  InlineFunction<void(), 88> fn = [&target] { target = 7; };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(target, 7);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeap) {
  // 128 bytes of captured state exceeds the 88-byte inline budget; the
  // callable must still work (and its heap block must be freed — the ASan
  // leg turns a leak here into a test failure).
  struct Big {
    double values[16];
  };
  Big big{};
  big.values[3] = 2.5;
  InlineFunction<double(), 88> fn = [big] { return big.values[3]; };
  EXPECT_EQ(fn(), 2.5);
}

TEST(InlineFunction, MoveTransfersCapturedState) {
  auto counter = std::make_shared<int>(0);
  InlineFunction<void(), 88> a = [counter] { ++*counter; };
  EXPECT_EQ(counter.use_count(), 2);

  InlineFunction<void(), 88> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(counter.use_count(), 2);  // moved, not copied
  b();
  EXPECT_EQ(*counter, 1);

  b = nullptr;
  EXPECT_EQ(counter.use_count(), 1);  // capture destroyed on reset
}

TEST(InlineFunction, MoveOnlyCapturesAreAccepted) {
  auto owned = std::make_unique<int>(11);
  InlineFunction<int(), 88> fn = [p = std::move(owned)] { return *p; };
  InlineFunction<int(), 88> moved = std::move(fn);
  EXPECT_EQ(moved(), 11);
}

TEST(FlatMap, InsertFindEraseRoundTrip) {
  FlatMap<int, std::string> map;
  EXPECT_TRUE(map.empty());
  map[3] = "three";
  map.insert_or_assign(5, "five");
  EXPECT_EQ(map.size(), 2u);

  ASSERT_NE(map.find(3), nullptr);
  EXPECT_EQ(*map.find(3), "three");
  EXPECT_EQ(map.find(4), nullptr);
  EXPECT_TRUE(map.contains(5));

  EXPECT_EQ(map.erase(3), 1u);
  EXPECT_EQ(map.erase(3), 0u);
  EXPECT_EQ(map.find(3), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, TryEmplaceReportsInsertion) {
  FlatMap<int, int> map;
  auto [slot, inserted] = map.try_emplace(9);
  EXPECT_TRUE(inserted);
  *slot = 90;
  auto [again, second] = map.try_emplace(9);
  EXPECT_FALSE(second);
  EXPECT_EQ(*again, 90);
}

TEST(FlatMap, SurvivesRehashAndTombstoneChurn) {
  FlatMap<int, int> map;
  // Insert enough to force several growth rehashes, delete half (piling up
  // tombstones), then verify every survivor is still reachable.
  for (int i = 0; i < 1000; ++i) map[i] = i * 2;
  for (int i = 0; i < 1000; i += 2) EXPECT_EQ(map.erase(i), 1u);
  EXPECT_EQ(map.size(), 500u);
  for (int i = 1; i < 1000; i += 2) {
    ASSERT_NE(map.find(i), nullptr) << i;
    EXPECT_EQ(*map.find(i), i * 2);
  }
  for (int i = 0; i < 1000; i += 2) EXPECT_EQ(map.find(i), nullptr) << i;

  // Keep churning through the same keys: tombstone-heavy tables must
  // rehash in place rather than grow without bound or lose entries.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 1000; i += 2) map[i] = round;
    for (int i = 0; i < 1000; i += 2) map.erase(i);
  }
  EXPECT_EQ(map.size(), 500u);
}

// The determinism contract behind the byte-identical-records guarantee:
// whatever order keys were inserted or erased in — and whatever capacity
// history the table went through — sorted_keys() is the same sequence.
// Record emission and event ordering route through this view only.
TEST(FlatMap, SortedKeysIndependentOfInsertionHistory) {
  std::vector<int> keys(257);
  for (int i = 0; i < 257; ++i) keys[i] = i * 13 + 1;

  FlatMap<int, int> forward;
  for (const int k : keys) forward[k] = k;

  // Same keys, shuffled order, via a table with a very different capacity
  // history (pre-churn inserts + erases before the real content lands).
  FlatMap<int, int> churned;
  for (int i = 0; i < 2000; ++i) churned[-i - 1] = i;
  for (int i = 0; i < 2000; ++i) churned.erase(-i - 1);
  std::vector<int> shuffled = keys;
  std::mt19937 rng(1234);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const int k : shuffled) churned[k] = k;

  const std::vector<int> a = forward.sorted_keys();
  const std::vector<int> b = churned.sorted_keys();
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a.size(), keys.size());
}

TEST(FlatSet, InsertContainsEraseSorted) {
  FlatSet<int> set;
  EXPECT_TRUE(set.insert(4));
  EXPECT_FALSE(set.insert(4));
  EXPECT_TRUE(set.insert(2));
  EXPECT_TRUE(set.contains(2));
  EXPECT_EQ(set.size(), 2u);

  const std::vector<int> sorted = set.sorted_keys();
  EXPECT_EQ(sorted, (std::vector<int>{2, 4}));

  EXPECT_EQ(set.erase(4), 1u);
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FlatMap, ForEachVisitsEveryLiveEntry) {
  FlatMap<int, int> map;
  for (int i = 0; i < 64; ++i) map[i] = i;
  map.erase(10);
  std::size_t count = 0;
  long long sum = 0;
  map.for_each([&](const int key, const int value) {
    EXPECT_EQ(key, value);
    ++count;
    sum += value;
  });
  EXPECT_EQ(count, 63u);
  EXPECT_EQ(sum, 64LL * 63 / 2 - 10);
}

TEST(FlatMap, ReserveSizesForAtMostHalfLoadAndNeverShrinks) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 1014u, 1024u, 4014u}) {
    FlatMap<int, int> map;
    map.reserve(n);
    const std::size_t capacity = map.capacity();
    EXPECT_GE(capacity, 2 * n) << n;
    EXPECT_EQ(capacity & (capacity - 1), 0u) << "power of two";
    // Filling to the reserved size performs no rehash.
    for (std::size_t i = 0; i < n; ++i) map[static_cast<int>(i)] = 1;
    EXPECT_EQ(map.capacity(), capacity) << n;
    EXPECT_LE(map.size() * 2, map.capacity()) << n;
  }
  FlatMap<int, int> map;
  map.reserve(1000);
  const std::size_t big = map.capacity();
  map.reserve(10);
  EXPECT_EQ(map.capacity(), big) << "reserve never shrinks";
  // The BGP RIB case: 1014 prefixes fit 2048 slots, not 4096.
  FlatMap<int, int> rib;
  rib.reserve(1014);
  EXPECT_EQ(rib.capacity(), 2048u);
}

TEST(FlatMap, ReservedTableChurnRehashesInPlace) {
  // Erase/insert churn of distinct keys piles up tombstones in a reserved
  // table; the clean-up rehash must keep its capacity, not grow it.
  FlatMap<int, int> map;
  map.reserve(1000);
  const std::size_t capacity = map.capacity();
  for (int i = 0; i < 1000; ++i) map[i] = i;
  for (int round = 1; round <= 20; ++round) {
    for (int i = 0; i < 1000; i += 2) map.erase(i + (round - 1) * 1000);
    for (int i = 0; i < 1000; i += 2) map[i + round * 1000] = i;
  }
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_EQ(map.capacity(), capacity);
}

TEST(FlatMap, ClearKeepsARightSizedTableAndReleasesEveryValue) {
  FlatMap<int, std::shared_ptr<int>> map;
  auto value = std::make_shared<int>(5);
  for (int i = 0; i < 10; ++i) map[i] = value;
  map.erase(3);  // a tombstone, too
  EXPECT_EQ(value.use_count(), 10);
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_EQ(value.use_count(), 1) << "clear() releases every value";
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), capacity) << "a right-sized table is kept";
  // Refilling the same amount needs no rehash and finds fresh state.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(map.find(i), nullptr);
  for (int i = 100; i < 110; ++i) map[i] = value;
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.size(), 10u);
  for (int i = 100; i < 110; ++i) ASSERT_NE(map.find(i), nullptr);
  EXPECT_EQ(value.use_count(), 11);
}

TEST(FlatMap, ClearFreesAnOversizedTable) {
  // A storm-sized table that now holds little shrinks on clear(): the next
  // use starts from the minimum capacity instead of scanning the old one.
  FlatMap<int, int> map;
  for (int i = 0; i < 4000; ++i) map[i] = i;
  for (int i = 2; i < 4000; ++i) map.erase(i);
  ASSERT_GE(map.capacity(), 8192u);
  map.clear();
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_TRUE(map.empty());
  map[7] = 70;
  EXPECT_EQ(map.capacity(), 16u);
  EXPECT_EQ(*map.find(7), 70);
  // A reserved table cleared while empty is oversized for what it held.
  FlatSet<int> set;
  set.reserve(1000);
  set.clear();
  EXPECT_FALSE(set.contains(1));
  EXPECT_TRUE(set.insert(1));
}

TEST(FlatMap, SortedKeysIntoMatchesSortedKeysAfterChurn) {
  FlatMap<int, int> map;
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> key(0, 5000);
  for (int i = 0; i < 20000; ++i) {
    const int k = key(rng);
    if (i % 3 == 0) {
      map.erase(k);
    } else {
      map[k] = i;
    }
  }
  std::vector<int> into{-1, -2, -3};  // stale contents are replaced
  map.sorted_keys_into(into);
  EXPECT_EQ(into, map.sorted_keys());
  EXPECT_EQ(into.size(), map.size());
  EXPECT_TRUE(std::is_sorted(into.begin(), into.end()));
  map.clear();
  map.sorted_keys_into(into);
  EXPECT_TRUE(into.empty());
}

}  // namespace
}  // namespace lispcp::core
