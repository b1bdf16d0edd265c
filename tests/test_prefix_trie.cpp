#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>
#include <vector>

#include "net/prefix_trie.hpp"

namespace lispcp::net {
namespace {

TEST(PrefixTrie, EmptyLookupIsNull) {
  PrefixTrie<int> trie;
  EXPECT_EQ(trie.lookup(Ipv4Address(1, 2, 3, 4)), nullptr);
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, ExactAndCoveringLookup) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 1));
  ASSERT_NE(trie.lookup(Ipv4Address(10, 200, 3, 4)), nullptr);
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 200, 3, 4)), 1);
  EXPECT_EQ(trie.lookup(Ipv4Address(11, 0, 0, 1)), nullptr);
}

TEST(PrefixTrie, LongestPrefixWins) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 8);
  trie.insert(Ipv4Prefix::from_string("10.1.0.0/16"), 16);
  trie.insert(Ipv4Prefix::from_string("10.1.2.0/24"), 24);
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 1, 2, 3)), 24);
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 1, 9, 9)), 16);
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 9, 9, 9)), 8);
}

TEST(PrefixTrie, DefaultRouteMatchesWhenNothingElseDoes) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix(), 0);
  trie.insert(Ipv4Prefix::from_string("192.168.0.0/16"), 1);
  EXPECT_EQ(*trie.lookup(Ipv4Address(8, 8, 8, 8)), 0);
  EXPECT_EQ(*trie.lookup(Ipv4Address(192, 168, 1, 1)), 1);
}

TEST(PrefixTrie, InsertReplacesValue) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 2));
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 0, 0, 1)), 2);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixTrie, EraseExactOnly) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 8);
  trie.insert(Ipv4Prefix::from_string("10.1.0.0/16"), 16);
  EXPECT_FALSE(trie.erase(Ipv4Prefix::from_string("10.2.0.0/16")));
  EXPECT_TRUE(trie.erase(Ipv4Prefix::from_string("10.1.0.0/16")));
  EXPECT_EQ(trie.size(), 1u);
  // The /8 still covers what the /16 used to.
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 1, 0, 1)), 8);
  EXPECT_FALSE(trie.erase(Ipv4Prefix::from_string("10.1.0.0/16")));
}

TEST(PrefixTrie, FindExactDistinguishesLengths) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 8);
  EXPECT_NE(trie.find_exact(Ipv4Prefix::from_string("10.0.0.0/8")), nullptr);
  EXPECT_EQ(trie.find_exact(Ipv4Prefix::from_string("10.0.0.0/16")), nullptr);
}

TEST(PrefixTrie, HostRoutes) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::host(Ipv4Address(1, 2, 3, 4)), 1);
  EXPECT_NE(trie.lookup(Ipv4Address(1, 2, 3, 4)), nullptr);
  EXPECT_EQ(trie.lookup(Ipv4Address(1, 2, 3, 5)), nullptr);
}

TEST(PrefixTrie, LookupWithPrefixReportsMatch) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 8);
  trie.insert(Ipv4Prefix::from_string("10.1.0.0/16"), 16);
  auto match = trie.lookup_with_prefix(Ipv4Address(10, 1, 2, 3));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->first, Ipv4Prefix::from_string("10.1.0.0/16"));
  EXPECT_EQ(*match->second, 16);
}

TEST(PrefixTrie, ForEachVisitsAllInOrder) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 1);
  trie.insert(Ipv4Prefix::from_string("9.0.0.0/8"), 2);
  trie.insert(Ipv4Prefix::from_string("10.1.0.0/16"), 3);
  std::vector<Ipv4Prefix> seen;
  trie.for_each([&](const Ipv4Prefix& p, const int&) { seen.push_back(p); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], Ipv4Prefix::from_string("9.0.0.0/8"));
  EXPECT_EQ(seen[1], Ipv4Prefix::from_string("10.0.0.0/8"));
  EXPECT_EQ(seen[2], Ipv4Prefix::from_string("10.1.0.0/16"));
}

TEST(PrefixTrie, Clear) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 1);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.lookup(Ipv4Address(10, 0, 0, 1)), nullptr);
}

TEST(PrefixTrie, MoveSemantics) {
  PrefixTrie<int> a;
  a.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 1);
  a.insert(Ipv4Prefix::host(Ipv4Address(10, 0, 0, 9)), 32);
  PrefixTrie<int> b = std::move(a);
  EXPECT_EQ(*b.lookup(Ipv4Address(10, 0, 0, 1)), 1);
  EXPECT_EQ(*b.lookup(Ipv4Address(10, 0, 0, 9)), 32);
  EXPECT_EQ(b.size(), 2u);
}

TEST(PrefixTrie, MovedFromTableIsAValidEmptyTable) {
  PrefixTrie<int> a;
  a.insert(Ipv4Prefix::from_string("10.0.0.0/8"), 1);
  a.insert(Ipv4Prefix::host(Ipv4Address(10, 0, 0, 9)), 32);
  PrefixTrie<int> b(std::move(a));
  PrefixTrie<int> c;
  c.insert(Ipv4Prefix(), 0);
  c = std::move(b);
  EXPECT_EQ(*c.lookup(Ipv4Address(10, 0, 0, 9)), 32);
  EXPECT_EQ(c.lookup(Ipv4Address(11, 0, 0, 1)), nullptr) << "c's /0 was replaced";
  for (PrefixTrie<int>* moved : {&a, &b}) {
    EXPECT_TRUE(moved->empty());
    EXPECT_EQ(moved->size(), 0u);
    EXPECT_EQ(moved->lookup(Ipv4Address(10, 0, 0, 1)), nullptr);
    EXPECT_EQ(moved->lookup(Ipv4Address(10, 0, 0, 9)), nullptr);
    EXPECT_FALSE(moved->lookup_with_prefix(Ipv4Address(10, 0, 0, 1)));
    EXPECT_EQ(moved->find_exact(Ipv4Prefix::from_string("10.0.0.0/8")), nullptr);
    EXPECT_FALSE(moved->erase(Ipv4Prefix::from_string("10.0.0.0/8")));
    int visits = 0;
    moved->for_each([&](const Ipv4Prefix&, const int&) { ++visits; });
    EXPECT_EQ(visits, 0);
    // ...and usable again.
    EXPECT_TRUE(moved->insert(Ipv4Prefix::from_string("10.0.0.0/8"), 8));
    EXPECT_TRUE(moved->insert(Ipv4Prefix::host(Ipv4Address(10, 0, 0, 9)), 9));
    EXPECT_EQ(*moved->lookup(Ipv4Address(10, 0, 0, 1)), 8);
    EXPECT_EQ(*moved->lookup(Ipv4Address(10, 0, 0, 9)), 9);
    EXPECT_EQ(moved->size(), 2u);
  }
}

TEST(PrefixTrie, HostRouteBeatsEveryShorterMatchAndErasesCleanly) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix(), 0);
  trie.insert(Ipv4Prefix::from_string("10.1.2.0/31"), 31);
  trie.insert(Ipv4Prefix::host(Ipv4Address(10, 1, 2, 1)), 32);
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 1, 2, 1)), 32);
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 1, 2, 0)), 31);
  auto match = trie.lookup_with_prefix(Ipv4Address(10, 1, 2, 1));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->first, Ipv4Prefix::host(Ipv4Address(10, 1, 2, 1)));
  EXPECT_TRUE(trie.erase(Ipv4Prefix::host(Ipv4Address(10, 1, 2, 1))));
  EXPECT_FALSE(trie.erase(Ipv4Prefix::host(Ipv4Address(10, 1, 2, 1))));
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 1, 2, 1)), 31);
  EXPECT_EQ(trie.size(), 2u);
}

TEST(PrefixTrie, FindExactPointerSurvivesLaterInserts) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::from_string("10.1.0.0/16"), 16);
  trie.insert(Ipv4Prefix::host(Ipv4Address(10, 1, 0, 1)), 32);
  const int* interior = trie.find_exact(Ipv4Prefix::from_string("10.1.0.0/16"));
  const int* host = trie.find_exact(Ipv4Prefix::host(Ipv4Address(10, 1, 0, 1)));
  const int* routed = trie.lookup(Ipv4Address(10, 1, 7, 7));
  ASSERT_NE(interior, nullptr);
  ASSERT_NE(host, nullptr);
  ASSERT_EQ(routed, interior);
  // Enough inserts of both kinds to add many node slabs and rehash the
  // host table many times over.
  std::mt19937_64 rng(42);
  for (int i = 0; i < 10'000; ++i) {
    const auto addr = Ipv4Address(static_cast<std::uint32_t>(rng()));
    trie.insert(Ipv4Prefix(addr, i % 2 == 0 ? 32 : 1 + static_cast<int>(rng() % 31)), i);
  }
  trie.insert(Ipv4Prefix::from_string("10.1.0.0/16"), 1600);  // overwrite in place
  EXPECT_EQ(trie.find_exact(Ipv4Prefix::from_string("10.1.0.0/16")), interior);
  EXPECT_EQ(trie.find_exact(Ipv4Prefix::host(Ipv4Address(10, 1, 0, 1))), host);
  EXPECT_EQ(*interior, 1600);
  EXPECT_EQ(*host, 32);
}

/// Property sweep: the trie must agree with a brute-force linear scan on
/// random prefix tables across densities.
class PrefixTrieProperty : public ::testing::TestWithParam<int> {};

TEST_P(PrefixTrieProperty, MatchesLinearScan) {
  const int prefix_count = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(prefix_count) * 7919);
  PrefixTrie<int> trie;
  std::vector<std::pair<Ipv4Prefix, int>> table;

  for (int i = 0; i < prefix_count; ++i) {
    const auto addr = Ipv4Address(static_cast<std::uint32_t>(rng()));
    const int length = static_cast<int>(rng() % 33);
    const Ipv4Prefix prefix(addr, length);
    // Mirror trie replace semantics in the reference table.
    auto existing = std::find_if(table.begin(), table.end(),
                                 [&](const auto& e) { return e.first == prefix; });
    if (existing != table.end()) {
      existing->second = i;
    } else {
      table.emplace_back(prefix, i);
    }
    trie.insert(prefix, i);
  }
  EXPECT_EQ(trie.size(), table.size());

  for (int probe = 0; probe < 500; ++probe) {
    const auto addr = Ipv4Address(static_cast<std::uint32_t>(rng()));
    const int* got = trie.lookup(addr);
    // Brute force: most specific containing prefix, ties impossible.
    const std::pair<Ipv4Prefix, int>* expected = nullptr;
    for (const auto& entry : table) {
      if (entry.first.contains(addr) &&
          (expected == nullptr ||
           entry.first.length() > expected->first.length())) {
        expected = &entry;
      }
    }
    if (expected == nullptr) {
      EXPECT_EQ(got, nullptr) << addr.to_string();
    } else {
      ASSERT_NE(got, nullptr) << addr.to_string();
      EXPECT_EQ(*got, expected->second) << addr.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, PrefixTrieProperty,
                         ::testing::Values(1, 4, 16, 64, 256, 1024));

/// Seeded interleavings of insert, overwrite and erase (with /0 and /32
/// over-represented, the two lengths with special handling) checked after
/// every step batch against a brute-force table: lookup, lookup_with_prefix
/// and find_exact agree, and for_each visits exactly the table in
/// ascending (address, length) order.
class PrefixTrieInterleaving : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixTrieInterleaving, MatchesBruteForceThroughChurn) {
  std::mt19937_64 rng(GetParam());
  PrefixTrie<int> trie;
  std::map<Ipv4Prefix, int> table;  // ordered by (address, length)
  // A small address pool (two /16 neighbourhoods) so prefixes nest, collide
  // and get erased again.
  const auto random_address = [&rng] {
    const std::uint32_t base = rng() % 2 == 0 ? 0x0A010000u : 0xC0A80000u;
    return Ipv4Address(base | static_cast<std::uint32_t>(rng() % 4096));
  };
  const auto random_prefix = [&] {
    const std::uint64_t pick = rng() % 10;
    const int length = pick == 0   ? 0
                       : pick <= 3 ? 32
                                   : 12 + static_cast<int>(rng() % 20);
    return Ipv4Prefix(random_address(), length);
  };
  const auto brute_lookup = [&table](Ipv4Address addr) {
    const std::pair<const Ipv4Prefix, int>* best = nullptr;
    for (const auto& entry : table) {
      if (entry.first.contains(addr) &&
          (best == nullptr || entry.first.length() > best->first.length())) {
        best = &entry;
      }
    }
    return best;
  };

  for (int step = 0; step < 3000; ++step) {
    const Ipv4Prefix prefix = random_prefix();
    if (rng() % 3 == 0) {
      EXPECT_EQ(trie.erase(prefix), table.erase(prefix) == 1) << prefix;
    } else {
      const bool fresh = !table.contains(prefix);
      table[prefix] = step;
      EXPECT_EQ(trie.insert(prefix, step), fresh) << prefix;
    }
    ASSERT_EQ(trie.size(), table.size());
    if (step % 100 != 99) continue;

    for (int probe = 0; probe < 200; ++probe) {
      const Ipv4Address addr = random_address();
      const auto* expected = brute_lookup(addr);
      const int* got = trie.lookup(addr);
      const auto with_prefix = trie.lookup_with_prefix(addr);
      if (expected == nullptr) {
        EXPECT_EQ(got, nullptr) << addr;
        EXPECT_FALSE(with_prefix.has_value()) << addr;
        continue;
      }
      ASSERT_NE(got, nullptr) << addr;
      EXPECT_EQ(*got, expected->second) << addr;
      ASSERT_TRUE(with_prefix.has_value()) << addr;
      EXPECT_EQ(with_prefix->first, expected->first) << addr;
      EXPECT_EQ(with_prefix->second, got) << addr;
    }
    for (int probe = 0; probe < 200; ++probe) {
      const Ipv4Prefix exact = random_prefix();
      const auto it = table.find(exact);
      const int* got = trie.find_exact(exact);
      if (it == table.end()) {
        EXPECT_EQ(got, nullptr) << exact;
      } else {
        ASSERT_NE(got, nullptr) << exact;
        EXPECT_EQ(*got, it->second) << exact;
      }
    }
    std::vector<std::pair<Ipv4Prefix, int>> visited;
    trie.for_each([&visited](const Ipv4Prefix& p, const int& v) {
      visited.emplace_back(p, v);
    });
    const std::vector<std::pair<Ipv4Prefix, int>> expected(table.begin(),
                                                           table.end());
    EXPECT_EQ(visited, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTrieInterleaving,
                         ::testing::Values(1u, 2u, 3u, 0xC0FFEEu));

}  // namespace
}  // namespace lispcp::net
