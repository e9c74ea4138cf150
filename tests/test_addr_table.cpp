// Property sweep for ds::AddrTable and ds::WaitPool against standard-
// library oracles: a long, seeded random op mix (create / find / erase,
// with enough churn to force table growth and exercise backward-shift
// deletion) must keep the table's observable contents identical to a
// std::unordered_map, and pooled FIFO queues identical to std::queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <unordered_map>
#include <vector>

#include "ds/addr_table.hpp"
#include "ds/ring_queue.hpp"

namespace amo::ds {
namespace {

struct Rec {
  std::uint64_t payload = 0;
  std::uint32_t next_free = kNilIndex;
};

/// Runs `ops` random create / find / erase operations on line-aligned
/// keys drawn from a window of `window` lines, checking the table against
/// `oracle` after every step. The table and oracle carry over between
/// calls, so a caller can hold a table small with a narrow window before
/// widening it.
void oracle_sweep(AddrTable<Rec>& table,
                  std::unordered_map<std::uint64_t, std::uint64_t>& oracle,
                  std::mt19937_64& rng, std::uint64_t window, int ops) {
  auto random_key = [&] { return (rng() % window) * 128; };

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t key = random_key();
    switch (rng() % 4) {
      case 0: {  // create-or-touch
        const bool existed = oracle.count(key) != 0;
        Rec& r = table.get_or_create(key);
        if (existed) {
          EXPECT_EQ(r.payload, oracle[key]);
        } else {
          EXPECT_EQ(r.payload, 0u) << "fresh entry must be default-state";
          r.payload = rng() | 1;  // nonzero
          oracle[key] = r.payload;
        }
        break;
      }
      case 1: {  // lookup
        Rec* r = table.find(key);
        auto it = oracle.find(key);
        ASSERT_EQ(r != nullptr, it != oracle.end());
        if (r != nullptr) {
          EXPECT_EQ(r->payload, it->second);
        }
        break;
      }
      case 2: {  // erase (entry reset first, per the contract)
        if (Rec* r = table.find(key)) r->payload = 0;
        table.erase(key);
        oracle.erase(key);
        break;
      }
      case 3: {  // const lookup through a second key
        const std::uint64_t k2 = random_key();
        const AddrTable<Rec>& ct = table;
        const Rec* r = ct.find(k2);
        auto it = oracle.find(k2);
        ASSERT_EQ(r != nullptr, it != oracle.end());
        if (r != nullptr) {
          EXPECT_EQ(r->payload, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  // Final full sweep: every oracle key resolves with the right payload.
  for (const auto& [key, payload] : oracle) {
    Rec* r = table.find(key);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->payload, payload);
  }
}

TEST(AddrTable, MatchesUnorderedMapOracle) {
  AddrTable<Rec> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  std::mt19937_64 rng(0xA110CA7ABl);
  // A window small enough to guarantee frequent re-creation of
  // previously erased keys (free-list reuse) and large enough to push
  // the table through several growth doublings.
  oracle_sweep(table, oracle, rng, 4096, 200000);
}

// Tables start tiny and grow on demand. Hold each one at a handful of
// live keys first, so probes wrap and backward-shift deletion runs at
// 2-, 4- and 8-slot masks, then widen the window to force every growth
// step from there.
class AddrTableSmallStart : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AddrTableSmallStart, MatchesUnorderedMapOracle) {
  AddrTable<Rec> table(GetParam());
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  std::mt19937_64 rng(0x5EED0000 + GetParam());
  for (const std::uint64_t window : {1, 2, 3, 5}) {
    oracle_sweep(table, oracle, rng, window, 5000);
    if (::testing::Test::HasFatalFailure()) return;
  }
  oracle_sweep(table, oracle, rng, 4096, 100000);
}

INSTANTIATE_TEST_SUITE_P(InitialSlots, AddrTableSmallStart,
                         ::testing::Values(1, 2, 16));

TEST(AddrTable, EraseOfAbsentKeyIsNoop) {
  AddrTable<Rec> table;
  table.get_or_create(128).payload = 7;
  table.erase(256);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(128)->payload, 7u);
}

// Entry slabs grow 4, 8, 16, 32, then 64 entries, so fresh indices cross
// slab boundaries at 4, 12, 28, 60, 124 and 188. A reference handed out
// before a boundary must survive every later slab, and entries carved
// from one slab sit side by side.
TEST(AddrTable, EntriesStayPutAcrossSlabBoundaries) {
  AddrTable<Rec> table;
  constexpr std::uint32_t kEntries = 256;
  std::vector<Rec*> refs;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    Rec& r = table.get_or_create(std::uint64_t{i} * 128);
    r.payload = 1000 + i;
    refs.push_back(&r);
  }
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    ASSERT_EQ(table.find(std::uint64_t{i} * 128), refs[i]) << "entry " << i;
    EXPECT_EQ(refs[i]->payload, 1000u + i);
  }
  const std::uint32_t boundaries[] = {0, 4, 12, 28, 60, 124, 188, 252};
  for (std::size_t k = 0; k + 1 < std::size(boundaries); ++k) {
    for (std::uint32_t i = boundaries[k]; i + 1 < boundaries[k + 1]; ++i) {
      EXPECT_EQ(refs[i + 1], refs[i] + 1) << "entries " << i << ", " << i + 1
                                          << " share a slab";
    }
  }
}

// Erased entries go back on the free list and are handed out again,
// most recently erased first, before any new slab is carved.
TEST(AddrTable, EraseThenCreateReusesFreedEntries) {
  AddrTable<Rec> table;
  std::vector<Rec*> refs;
  for (std::uint64_t k = 0; k < 4; ++k) {  // exactly the first slab
    refs.push_back(&table.get_or_create(k * 128));
  }
  table.erase(1 * 128);
  table.erase(2 * 128);
  EXPECT_EQ(table.find(1 * 128), nullptr);
  Rec& c = table.get_or_create(10 * 128);
  Rec& d = table.get_or_create(11 * 128);
  EXPECT_EQ(&c, refs[2]);
  EXPECT_EQ(&d, refs[1]);
  EXPECT_EQ(c.next_free, kNilIndex);
  EXPECT_EQ(table.size(), 4u);
  // The pool is empty again: the next entry comes from a new slab.
  Rec& e = table.get_or_create(12 * 128);
  for (Rec* r : refs) EXPECT_NE(&e, r);
  EXPECT_EQ(table.find(0), refs[0]);
  EXPECT_EQ(table.find(3 * 128), refs[3]);
}

TEST(WaitPool, ManyInterleavedQueuesStayFifo) {
  WaitPool<std::uint64_t> pool;
  constexpr int kQueues = 8;
  WaitPool<std::uint64_t>::Queue queues[kQueues];
  std::queue<std::uint64_t> oracle[kQueues];
  std::mt19937_64 rng(42);

  for (int op = 0; op < 100000; ++op) {
    const int q = static_cast<int>(rng() % kQueues);
    if (rng() % 2 == 0) {
      const std::uint64_t v = rng();
      pool.push(queues[q], v);
      oracle[q].push(v);
    } else if (!oracle[q].empty()) {
      EXPECT_EQ(pool.pop(queues[q]), oracle[q].front());
      oracle[q].pop();
    }
    ASSERT_EQ(pool.empty(queues[q]), oracle[q].empty());
  }
  for (int q = 0; q < kQueues; ++q) {
    while (!oracle[q].empty()) {
      ASSERT_FALSE(pool.empty(queues[q]));
      EXPECT_EQ(pool.pop(queues[q]), oracle[q].front());
      oracle[q].pop();
    }
    EXPECT_TRUE(pool.empty(queues[q]));
  }
}

TEST(RingQueue, MatchesDequeOracleAcrossGrowth) {
  RingQueue<std::uint64_t> ring(4);
  std::queue<std::uint64_t> oracle;
  std::mt19937_64 rng(7);
  for (int op = 0; op < 100000; ++op) {
    // Bias toward push so the ring grows through several doublings, then
    // drain in bursts so head wraps across the boundary repeatedly.
    if (rng() % 3 != 0) {
      const std::uint64_t v = rng();
      ring.push_back(v);
      oracle.push(v);
    } else {
      for (int i = 0; i < 5 && !oracle.empty(); ++i) {
        EXPECT_EQ(ring.pop_front(), oracle.front());
        oracle.pop();
      }
    }
    ASSERT_EQ(ring.size(), oracle.size());
    ASSERT_EQ(ring.empty(), oracle.empty());
  }
  while (!oracle.empty()) {
    EXPECT_EQ(ring.pop_front(), oracle.front());
    oracle.pop();
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace amo::ds
