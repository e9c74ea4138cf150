// Unit tests for the memory substrate: backing store, DRAM timing, the
// set-associative cache, and the L1 tag filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <span>
#include <tuple>
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

TEST(Dram, FixedLatency) {
  sim::Engine e;
  Dram d(e, DramConfig{60});
  // Two accesses in the same cycle both take the bare latency: nothing
  // queues behind the first.
  e.schedule(1000, [] {});
  e.run();
  EXPECT_EQ(d.access(), 1000u + 60u);
  EXPECT_EQ(d.access(), 1000u + 60u);
  EXPECT_EQ(d.accesses(), 2u);
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

// Dense reference models for the differential tests below: every way of
// every set exists from the start, as in a textbook cache, and the
// replacement rules are written out plainly. The caches under test keep
// storage only for sets they have seated; on any op sequence they must
// agree with these models on every observable result.
struct RefCache {
  struct Way {
    sim::Addr block = 0;
    LineState state = LineState::kInvalid;
    bool pinned = false;
    std::uint64_t lru = 0;
    std::vector<std::uint64_t> data;
  };

  explicit RefCache(const CacheGeometry& geom)
      : g(geom), ways(std::size_t{geom.num_sets()} * geom.ways) {}

  [[nodiscard]] std::span<Way> set_of(sim::Addr block) {
    const std::size_t s = (block / g.line_bytes) % g.num_sets();
    return {ways.data() + s * g.ways, g.ways};
  }
  Way* find(sim::Addr addr, bool touch) {
    const sim::Addr block = addr & ~sim::Addr{g.line_bytes - 1};
    for (Way& w : set_of(block)) {
      if (w.state != LineState::kInvalid && w.block == block) {
        if (touch) {
          w.lru = ++clock;
          ++stats.hits;
        }
        return &w;
      }
    }
    if (touch) ++stats.misses;
    return nullptr;
  }
  // First free way, else the least recently used unpinned one.
  std::optional<Cache::Victim> insert(sim::Addr block, LineState state,
                                      const std::vector<std::uint64_t>& d) {
    std::span<Way> set = set_of(block);
    Way* slot = nullptr;
    for (Way& w : set) {
      if (w.state == LineState::kInvalid) {
        slot = &w;
        break;
      }
    }
    std::optional<Cache::Victim> victim;
    if (slot == nullptr) {
      for (Way& w : set) {
        if (!w.pinned && (slot == nullptr || w.lru < slot->lru)) slot = &w;
      }
      victim.emplace(Cache::Victim{slot->block, slot->state, LineBuf(slot->data)});
      ++stats.evictions;
      if (slot->state == LineState::kModified) ++stats.dirty_evictions;
    }
    *slot = Way{block, state, false, ++clock, d};
    return victim;
  }
  std::optional<Cache::Victim> invalidate(sim::Addr addr) {
    Way* w = find(addr, /*touch=*/false);
    if (w == nullptr) return std::nullopt;
    ++stats.invals_received;
    Cache::Victim v{w->block, w->state, LineBuf(w->data)};
    w->state = LineState::kInvalid;
    w->pinned = false;
    return v;
  }

  CacheGeometry g;
  std::vector<Way> ways;
  std::uint64_t clock = 0;
  CacheStats stats;
};

struct RefTagCache {
  struct Tag {
    sim::Addr block = 0;
    bool valid = false;
    std::uint64_t lru = 0;
  };

  explicit RefTagCache(const CacheGeometry& geom)
      : g(geom), tags(std::size_t{geom.num_sets()} * geom.ways) {}

  [[nodiscard]] std::span<Tag> set_of(sim::Addr block) {
    const std::size_t s = (block / g.line_bytes) % g.num_sets();
    return {tags.data() + s * g.ways, g.ways};
  }
  [[nodiscard]] sim::Addr base(sim::Addr a) const {
    return a & ~sim::Addr{g.line_bytes - 1};
  }
  bool probe(sim::Addr addr) {
    for (Tag& t : set_of(base(addr))) {
      if (t.valid && t.block == base(addr)) {
        t.lru = ++clock;
        return true;
      }
    }
    return false;
  }
  // A resident tag is touched; else the last invalid way is taken, else
  // the least recently used one.
  void fill(sim::Addr addr) {
    if (probe(addr)) return;
    std::span<Tag> set = set_of(base(addr));
    Tag* slot = nullptr;
    for (Tag& t : set) {
      if (!t.valid) slot = &t;
    }
    if (slot == nullptr) {
      for (Tag& t : set) {
        if (slot == nullptr || t.lru < slot->lru) slot = &t;
      }
    }
    *slot = Tag{base(addr), true, ++clock};
  }
  void invalidate(sim::Addr addr) {
    for (Tag& t : set_of(base(addr))) {
      if (t.valid && t.block == base(addr)) t.valid = false;
    }
  }

  CacheGeometry g;
  std::vector<Tag> tags;
  std::uint64_t clock = 0;
};

void expect_same_victim(const std::optional<Cache::Victim>& got,
                        const std::optional<Cache::Victim>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->block, want->block);
  EXPECT_EQ(got->state, want->state);
  ASSERT_EQ(got->data.size(), want->data.size());
  for (std::uint32_t i = 0; i < got->data.size(); ++i) {
    EXPECT_EQ(got->data[i], want->data[i]) << "word " << i;
  }
}

void expect_same_stats(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.dirty_evictions, want.dirty_evictions);
  EXPECT_EQ(got.invals_received, want.invals_received);
}

// Resident lines as {block, state, pinned, payload}, sorted by block.
using LineImage =
    std::tuple<sim::Addr, LineState, bool, std::vector<std::uint64_t>>;

std::vector<LineImage> image_of(const Cache& c) {
  std::vector<LineImage> out;
  c.for_each_line([&](const Cache::Line& line) {
    const auto w = c.words(line);
    out.emplace_back(line.block, line.state, line.pinned,
                     std::vector<std::uint64_t>(w.begin(), w.end()));
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<LineImage> image_of(const RefCache& r) {
  std::vector<LineImage> out;
  for (const RefCache::Way& w : r.ways) {
    if (w.state != LineState::kInvalid) {
      out.emplace_back(w.block, w.state, w.pinned, w.data);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Geometries small enough that random blocks collide in every set: 4
// sets × 2 ways and 8 × 4 (128-byte lines), one fully associative set,
// and 64 × 2 with 64-byte lines, whose seated-set table grows three times.
const CacheGeometry kDiffGeometries[] = {
    {4 * 2 * 128, 2, 128},
    {8 * 4 * 128, 4, 128},
    {1 * 4 * 128, 4, 128},
    {64 * 2 * 64, 2, 64},
};

// Seeded random insert / find / peek / invalidate / write_word / pin /
// unpin sequences against the dense model. A pin leaves at least one
// unpinned way per set, so sets fill up to "every way but one pinned"
// and the eviction must then take the one unpinned way.
TEST(Cache, MatchesDenseReferenceOnRandomOps) {
  constexpr LineState kStates[] = {LineState::kShared, LineState::kExclusive,
                                   LineState::kModified};
  for (const CacheGeometry& g : kDiffGeometries) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "sets=" << g.num_sets()
                                        << " ways=" << g.ways
                                        << " seed=" << seed);
      Cache c(g);
      RefCache ref(g);
      std::mt19937_64 rng(seed);
      const std::uint32_t wpl = g.line_bytes / 8;
      // Three lines' worth of blocks per way: sets overflow often.
      const std::uint64_t window = std::uint64_t{g.num_sets()} * g.ways * 3;
      auto random_addr = [&] {
        return (rng() % window) * g.line_bytes + (rng() % wpl) * 8;
      };
      int evictions_past_pins = 0;
      for (int op = 0; op < 4000; ++op) {
        const sim::Addr addr = random_addr();
        const sim::Addr block = c.line_base(addr);
        switch (rng() % 8) {
          case 0:
          case 1: {  // insert (only absent lines, per the contract)
            if (ref.find(addr, false) != nullptr) break;
            std::vector<std::uint64_t> data(wpl);
            for (auto& w : data) w = rng();
            const LineState st = kStates[rng() % 3];
            std::size_t pinned = 0;
            for (const auto& w : ref.set_of(block)) pinned += w.pinned;
            auto want = ref.insert(block, st, data);
            auto got = c.insert(block, st, data);
            expect_same_victim(got, want);
            if (want && pinned == g.ways - 1) ++evictions_past_pins;
            break;
          }
          case 2: {  // find (touching)
            RefCache::Way* want = ref.find(addr, true);
            Cache::Line* got = c.find(addr);
            ASSERT_EQ(got != nullptr, want != nullptr);
            if (got != nullptr) {
              EXPECT_EQ(c.read_word(*got, addr),
                        want->data[c.word_index(addr)]);
            }
            break;
          }
          case 3: {  // peek
            const RefCache::Way* want = ref.find(addr, false);
            const Cache::Line* got = c.peek(addr);
            ASSERT_EQ(got != nullptr, want != nullptr);
            if (got != nullptr) {
              EXPECT_EQ(got->block, want->block);
              EXPECT_EQ(got->state, want->state);
            }
            break;
          }
          case 4:  // invalidate
            expect_same_victim(c.invalidate(addr), ref.invalidate(addr));
            break;
          case 5: {  // write_word
            RefCache::Way* want = ref.find(addr, false);
            Cache::Line* got = c.find(addr, false);
            ASSERT_EQ(got != nullptr, want != nullptr);
            if (got == nullptr) break;
            const std::uint64_t v = rng();
            c.write_word(*got, addr, v);
            want->data[c.word_index(addr)] = v;
            break;
          }
          case 6: {  // pin, leaving one way of the set unpinned
            RefCache::Way* want = ref.find(addr, false);
            Cache::Line* got = c.find(addr, false);
            ASSERT_EQ(got != nullptr, want != nullptr);
            if (got == nullptr) break;
            std::size_t pinned = 0;
            for (const auto& w : ref.set_of(block)) pinned += w.pinned;
            if (pinned + 1 >= g.ways) break;
            got->pinned = want->pinned = true;
            break;
          }
          case 7: {  // unpin
            RefCache::Way* want = ref.find(addr, false);
            Cache::Line* got = c.find(addr, false);
            ASSERT_EQ(got != nullptr, want != nullptr);
            if (got != nullptr) got->pinned = want->pinned = false;
            break;
          }
        }
        if (::testing::Test::HasFatalFailure()) return;
        expect_same_stats(c.stats(), ref.stats);
      }
      EXPECT_EQ(image_of(c), image_of(ref));
      EXPECT_GT(evictions_past_pins, 0);
    }
  }
}

TEST(TagCache, MatchesDenseReferenceOnRandomOps) {
  for (const CacheGeometry& g : kDiffGeometries) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "sets=" << g.num_sets()
                                        << " ways=" << g.ways
                                        << " seed=" << seed);
      TagCache t(g);
      RefTagCache ref(g);
      std::mt19937_64 rng(seed);
      const std::uint64_t window = std::uint64_t{g.num_sets()} * g.ways * 3;
      for (int op = 0; op < 4000; ++op) {
        const sim::Addr addr =
            (rng() % window) * g.line_bytes + (rng() % (g.line_bytes / 8)) * 8;
        switch (rng() % 3) {
          case 0:
            ASSERT_EQ(t.probe(addr), ref.probe(addr)) << "op " << op;
            break;
          case 1:
            t.fill(addr);
            ref.fill(addr);
            break;
          case 2:
            t.invalidate(addr);
            ref.invalidate(addr);
            break;
        }
      }
      // Every block in the window probes the same way (probe touches
      // LRU in both, identically).
      for (std::uint64_t b = 0; b < window; ++b) {
        ASSERT_EQ(t.probe(b * g.line_bytes), ref.probe(b * g.line_bytes))
            << "block " << b;
      }
    }
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
