// Unit tests for the memory substrate: backing store, DRAM timing, the
// set-associative cache, and the L1 tag filter.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <new>
#include <vector>

#include "mem/backing.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/engine.hpp"

namespace amo::mem {
namespace {

TEST(Backing, FirstTouchReadsZero) {
  Backing b(128);
  EXPECT_EQ(b.read_word(0x1000), 0u);
  const auto& line = b.read_line(0x2000);
  for (std::uint64_t w : line) EXPECT_EQ(w, 0u);
  EXPECT_EQ(line.size(), 16u);  // 128B / 8
}

TEST(Backing, WordReadWriteRoundTrip) {
  Backing b(128);
  b.write_word(0x1008, 77);
  EXPECT_EQ(b.read_word(0x1008), 77u);
  EXPECT_EQ(b.read_word(0x1000), 0u);  // neighbours untouched
}

TEST(Backing, LineWriteReadRoundTrip) {
  Backing b(128);
  std::vector<std::uint64_t> line(16);
  for (int i = 0; i < 16; ++i) line[i] = 100 + i;
  b.write_line(0x4000, line);
  EXPECT_EQ(b.read_word(0x4000), 100u);
  EXPECT_EQ(b.read_word(0x4078), 115u);
}

TEST(Backing, AddressHelpers) {
  Backing b(128);
  EXPECT_EQ(b.line_base(0x1234), 0x1200u);
  EXPECT_EQ(b.word_index(0x1238), 7u);
  EXPECT_EQ(b.words_per_line(), 16u);
}

TEST(Dram, LatencyAndOccupancy) {
  sim::Engine e;
  Dram d(e, DramConfig{60, 8});
  // Two back-to-back accesses: the second queues behind the first's
  // channel occupancy.
  EXPECT_EQ(d.access(), 60u);
  EXPECT_EQ(d.access(), 8u + 60u);
  EXPECT_EQ(d.accesses(), 2u);
}

TEST(Dram, OccupancyDrains) {
  sim::Engine e;
  Dram d(e, DramConfig{60, 8});
  (void)d.access();
  e.schedule(1000, [] {});
  e.run();
  EXPECT_EQ(d.access(), e.now() + 60u);
}

CacheGeometry tiny_cache() {
  // 4 sets x 2 ways x 128B lines.
  return CacheGeometry{4 * 2 * 128, 2, 128};
}

std::vector<std::uint64_t> words(std::uint64_t v) {
  return std::vector<std::uint64_t>(16, v);
}

TEST(Cache, GeometryDerivesSets) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.geometry().num_sets(), 4u);
  EXPECT_EQ(c.line_base(0x1281), 0x1280u);
}

TEST(Cache, MissThenHit) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.find(0x1000), nullptr);
  EXPECT_EQ(c.stats().misses, 1u);
  c.insert(0x1000, LineState::kShared, words(5));
  Cache::Line* line = c.find(0x1008);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.read_word(*line, 0x1008), 5u);
}

TEST(Cache, InsertEvictsLru) {
  Cache c(tiny_cache());  // 2 ways per set
  // Three blocks mapping to set 0: 0x0000, 0x0800 (4 sets*128=512... use
  // stride sets*line = 512).
  c.insert(0x0000, LineState::kShared, words(1));
  c.insert(0x0200, LineState::kShared, words(2));
  (void)c.find(0x0000);  // touch: 0x0200 becomes LRU
  auto victim = c.insert(0x0400, LineState::kShared, words(3));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->block, 0x0200u);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_NE(c.find(0x0000), nullptr);
  EXPECT_NE(c.find(0x0400), nullptr);
  EXPECT_EQ(c.find(0x0200), nullptr);
}

TEST(Cache, PinnedLinesSurviveVictimSelection) {
  Cache c(tiny_cache());
  c.insert(0x0000, LineState::kShared, words(1));
  c.insert(0x0200, LineState::kShared, words(2));
  c.find(0x0000, /*touch=*/false)->pinned = true;
  (void)c.find(0x0200);  // make 0x0000 the LRU — but it is pinned
  auto victim = c.insert(0x0400, LineState::kShared, words(3));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->block, 0x0200u);
  EXPECT_NE(c.find(0x0000, false), nullptr);
}

TEST(Cache, DirtyEvictionReturnsData) {
  Cache c(tiny_cache());
  c.insert(0x0000, LineState::kModified, words(9));
  c.insert(0x0200, LineState::kShared, words(2));
  (void)c.find(0x0200);  // 0x0000 is LRU
  auto victim = c.insert(0x0400, LineState::kShared, words(3));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->state, LineState::kModified);
  EXPECT_EQ(victim->data[0], 9u);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(tiny_cache());
  c.insert(0x1000, LineState::kExclusive, words(4));
  auto victim = c.invalidate(0x1008);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->state, LineState::kExclusive);
  EXPECT_EQ(c.find(0x1000, false), nullptr);
  EXPECT_EQ(c.stats().invals_received, 1u);
  EXPECT_FALSE(c.invalidate(0x1000).has_value());
}

TEST(Cache, WordWriteInPlace) {
  Cache c(tiny_cache());
  c.insert(0x1000, LineState::kShared, words(0));
  Cache::Line* line = c.find(0x1000);
  c.write_word(*line, 0x1010, 42);
  EXPECT_EQ(c.read_word(*line, 0x1010), 42u);
  EXPECT_EQ(c.read_word(*line, 0x1008), 0u);
}

TEST(Cache, ForEachLineVisitsValidOnly) {
  Cache c(tiny_cache());
  c.insert(0x1000, LineState::kShared, words(1));
  c.insert(0x2000, LineState::kModified, words(2));
  c.invalidate(0x1000);
  int count = 0;
  c.for_each_line([&](const Cache::Line& line) {
    ++count;
    EXPECT_EQ(line.block, 0x2000u);
  });
  EXPECT_EQ(count, 1);
}

// The metadata and payload arrays are allocated uninitialized, so a
// cache may sit on recycled heap blocks full of garbage; untouched ways
// must still be misses and must never be read. Poison blocks of exactly
// the two arrays' sizes with 0xA5 and free them right before
// construction so the allocator is likely to hand them back. (ASan
// quarantines freed blocks; there the cache gets fresh memory and the
// test still holds.)
TEST(Cache, PoisonedHeapReadsAsEmpty) {
  const CacheGeometry g = tiny_cache();
  const std::size_t lines = std::size_t{g.num_sets()} * g.ways;
  const std::size_t meta_bytes = lines * sizeof(Cache::Line);
  // In the poisoned metadata every way of set s names ghost(s), and its
  // 0xA5 state byte is not kInvalid: a lookup that read an unseated way
  // would hit.
  auto ghost = [](std::uint32_t s) {
    return 0xA5A5A5A5A5A50000ull + sim::Addr{s} * 0x80;
  };
  for (const std::size_t bytes : {meta_bytes, lines * g.line_bytes}) {
    void* block = ::operator new(bytes);
    // Volatile stores, so the compiler cannot drop the poison as dead
    // stores before the delete.
    auto* poison = static_cast<volatile unsigned char*>(block);
    for (std::size_t i = 0; i < bytes; ++i) poison[i] = 0xA5;
    if (bytes == meta_bytes) {
      for (std::size_t i = 0; i < lines; ++i) {
        *reinterpret_cast<volatile std::uint64_t*>(
            poison + i * sizeof(Cache::Line) + offsetof(Cache::Line, block)) =
            ghost(static_cast<std::uint32_t>(i / g.ways));
      }
    }
    ::operator delete(block);
  }
  Cache c(g);

  // Every lookup misses: the ghosts, and line-aligned addresses over
  // each set.
  std::uint64_t lookups = 0;
  for (std::uint32_t s = 0; s < g.num_sets(); ++s) {
    EXPECT_EQ(c.peek(ghost(s)), nullptr);
    EXPECT_EQ(c.find(ghost(s)), nullptr);
    ++lookups;
  }
  for (sim::Addr a = 0; a < 16 * 0x200; a += 0x80) {
    EXPECT_EQ(c.peek(a), nullptr);
    EXPECT_EQ(c.find(a), nullptr);
    ++lookups;
  }
  EXPECT_EQ(c.stats().misses, lookups);
  EXPECT_EQ(c.stats().hits, 0u);
  int visited = 0;
  c.for_each_line([&](const Cache::Line&) { ++visited; });
  EXPECT_EQ(visited, 0);

  // Fill every set: the first `ways` inserts per set find a free way.
  // Set s holds blocks s*0x80 (tag 0) and s*0x80 + 0x200 (tag 1).
  for (std::uint32_t s = 0; s < g.num_sets(); ++s) {
    for (sim::Addr tag = 0; tag < g.ways; ++tag) {
      const sim::Addr block = s * 0x80 + tag * 0x200;
      EXPECT_FALSE(c.insert(block, LineState::kShared, words(block))
                       .has_value());
    }
  }
  c.for_each_line([&](const Cache::Line& line) {
    ++visited;
    EXPECT_EQ(line.state, LineState::kShared);
    EXPECT_FALSE(line.pinned);
    EXPECT_EQ(c.words(line)[0], line.block);
  });
  EXPECT_EQ(visited, static_cast<int>(lines));
  EXPECT_EQ(c.stats().evictions, 0u);

  // Touch tag 0 everywhere, so tag 1 is each set's LRU victim.
  for (std::uint32_t s = 0; s < g.num_sets(); ++s) {
    ASSERT_NE(c.find(s * 0x80), nullptr);
  }
  for (std::uint32_t s = 0; s < g.num_sets(); ++s) {
    const sim::Addr block = s * 0x80 + 2 * 0x200;
    auto victim = c.insert(block, LineState::kModified, words(block));
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->block, s * 0x80 + 0x200);
    EXPECT_EQ(victim->state, LineState::kShared);
    EXPECT_EQ(victim->data[0], victim->block);
    EXPECT_NE(c.peek(s * 0x80), nullptr);
    EXPECT_NE(c.peek(block), nullptr);
  }
  EXPECT_EQ(c.stats().evictions, g.num_sets());
  EXPECT_EQ(c.stats().dirty_evictions, 0u);
  for (std::uint32_t s = 0; s < g.num_sets(); ++s) {
    EXPECT_EQ(c.peek(ghost(s)), nullptr);
  }
}

TEST(TagCache, ProbeFillInvalidate) {
  TagCache t(tiny_cache());
  EXPECT_FALSE(t.probe(0x1000));
  t.fill(0x1000);
  EXPECT_TRUE(t.probe(0x1008));  // same line
  t.invalidate(0x1000);
  EXPECT_FALSE(t.probe(0x1000));
}

TEST(TagCache, LruDisplacement) {
  TagCache t(tiny_cache());  // 2 ways
  t.fill(0x0000);
  t.fill(0x0200);
  EXPECT_TRUE(t.probe(0x0000));  // touch
  t.fill(0x0400);                // displaces 0x0200
  EXPECT_TRUE(t.probe(0x0000));
  EXPECT_TRUE(t.probe(0x0400));
  EXPECT_FALSE(t.probe(0x0200));
}

TEST(TagCache, RefillingResidentLineIsIdempotent) {
  TagCache t(tiny_cache());
  t.fill(0x0000);
  t.fill(0x0000);
  t.fill(0x0200);
  EXPECT_TRUE(t.probe(0x0000));
  EXPECT_TRUE(t.probe(0x0200));
}

}  // namespace
}  // namespace amo::mem
