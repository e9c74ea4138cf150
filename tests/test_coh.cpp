// Directory-protocol tests, driven through whole-machine programs: state
// transitions, invalidation/recall flows, upgrade races, eviction
// writebacks, putback-recall crossings, LL/SC semantics, and the
// fine-grained word get/put extension.
#include <gtest/gtest.h>

#include <vector>

#include "core/machine.hpp"

namespace amo {
namespace {

using coh::Directory;

core::SystemConfig cfg_with(std::uint32_t cpus) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  return cfg;
}

TEST(Protocol, FirstReaderGetsCleanExclusive) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load(a);
  });
  m.run();
  const sim::Addr block = a;  // line-aligned by construction
  EXPECT_EQ(m.dir(1).state_of(block), Directory::State::kExclusive);
  EXPECT_EQ(m.dir(1).owner_of(block), 0u);
  m.check_coherence();
}

TEST(Protocol, SecondReaderDowngradesToShared) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load(a);
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.delay(2000);  // let cpu0 become the E owner first
    (void)co_await t.load(a);
  });
  m.run();
  EXPECT_EQ(m.dir(1).state_of(a), Directory::State::kShared);
  EXPECT_TRUE(m.dir(1).is_sharer(a, 0));
  EXPECT_TRUE(m.dir(1).is_sharer(a, 2));
  EXPECT_GE(m.dir(1).stats().recalls_sent, 1u);  // E owner was recalled
  m.check_coherence();
}

TEST(Protocol, WriterInvalidatesAllSharers) {
  core::Machine m(cfg_with(8));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  // Phase 1: everyone reads. Phase 2: cpu 7 writes.
  std::uint32_t readers_done = 0;
  for (sim::CpuId c = 0; c < 7; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.load(a);
      ++readers_done;
    });
  }
  m.spawn(7, [&](core::ThreadCtx& t) -> sim::Task<void> {
    while (readers_done < 7) co_await t.delay(500);
    co_await t.store(a, 99);
  });
  m.run();
  EXPECT_EQ(m.dir(0).state_of(a), Directory::State::kExclusive);
  EXPECT_EQ(m.dir(0).owner_of(a), 7u);
  EXPECT_GE(m.dir(0).stats().invals_sent, 6u);
  EXPECT_EQ(m.peek_word(a), 99u);
  m.check_coherence();
}

TEST(Protocol, StoreToOwnSharedLineUsesUpgrade) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  std::uint32_t phase = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load(a);
    ++phase;
    while (phase < 2) co_await t.delay(200);
    co_await t.store(a, 5);  // S -> M: should be an upgrade
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    while (phase < 1) co_await t.delay(200);
    (void)co_await t.load(a);  // make the block genuinely Shared
    ++phase;
  });
  m.run();
  EXPECT_GE(m.core(0).cache().stats().miss_upgrade, 1u);
  EXPECT_EQ(m.peek_word(a), 5u);
  m.check_coherence();
}

TEST(Protocol, ConcurrentWritersSerializeCorrectly) {
  // Two writers in S state both try to upgrade: one degenerates to GetX.
  constexpr int kRounds = 20;
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  const sim::Addr b = m.galloc().alloc_word_line(0);
  for (sim::CpuId c : {0u, 2u}) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        (void)co_await t.load(a);  // join the sharer set
        co_await t.delay(t.rng().below(300));
        co_await t.store(a, c * 1000 + i);      // race the upgrade
        (void)co_await t.atomic_fetch_add(b, 1);  // progress proof
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(b), 2u * kRounds);
  m.check_coherence();
}

TEST(Protocol, EvictionWritebackPreservesData) {
  core::Machine m(cfg_with(2));
  core::SystemConfig cfg = m.config();
  // Write more same-set blocks than the L2 has ways, then read back.
  const std::uint32_t ways = cfg.cache.l2.ways;
  const std::uint64_t set_stride =
      static_cast<std::uint64_t>(cfg.cache.l2.num_sets()) *
      cfg.cache.l2.line_bytes;
  std::vector<sim::Addr> addrs;
  const sim::Addr base = m.galloc().alloc(0, (ways + 4) * set_stride,
                                          cfg.cache.l2.line_bytes);
  for (std::uint32_t i = 0; i < ways + 4; ++i) {
    addrs.push_back(base + i * set_stride);
  }
  bool ok = true;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      co_await t.store(addrs[i], 1000 + i);
    }
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      if (co_await t.load(addrs[i]) != 1000 + i) ok = false;
    }
  });
  m.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(m.core(0).cache().stats().writebacks, 1u);
  m.check_coherence();
}

TEST(Protocol, PutbackRecallCrossingKeepsData) {
  // cpu0 dirties lines and keeps evicting them (conflict misses) while
  // cpu2 reads the same lines: putbacks and recalls cross repeatedly.
  core::Machine m(cfg_with(4));
  core::SystemConfig cfg = m.config();
  const std::uint64_t set_stride =
      static_cast<std::uint64_t>(cfg.cache.l2.num_sets()) *
      cfg.cache.l2.line_bytes;
  const std::uint32_t n = cfg.cache.l2.ways + 3;
  const sim::Addr base =
      m.galloc().alloc(0, n * set_stride, cfg.cache.l2.line_bytes);
  bool ok = true;
  std::uint32_t round = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int rep = 0; rep < 10; ++rep) {
      for (std::uint32_t i = 0; i < n; ++i) {
        co_await t.store(base + i * set_stride, rep * 100 + i);
      }
      ++round;
      co_await t.delay(500);
    }
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    std::uint32_t seen = 0;
    while (seen < 10) {
      if (round > seen) {
        // Read every line; values must be from a consistent past write.
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::uint64_t v = co_await t.load(base + i * set_stride);
          if (v % 100 != i) ok = false;
        }
        ++seen;
      } else {
        co_await t.delay(300);
      }
    }
  });
  m.run();
  EXPECT_TRUE(ok);
  m.check_coherence();
}

// ------------------------------------------------------------------ LL/SC

TEST(LlSc, SucceedsWhenUncontended) {
  core::Machine m(cfg_with(2));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  bool ok = false;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    const std::uint64_t v = co_await t.load_linked(a);
    ok = co_await t.store_conditional(a, v + 1);
  });
  m.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(m.peek_word(a), 1u);
}

TEST(LlSc, FailsAfterRemoteWrite) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  bool sc_result = true;
  std::uint32_t phase = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load_linked(a);
    phase = 1;
    while (phase < 2) co_await t.delay(100);
    sc_result = co_await t.store_conditional(a, 111);
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    while (phase < 1) co_await t.delay(100);
    co_await t.store(a, 222);
    co_await t.delay(3000);  // let the invalidation land before the SC
    phase = 2;
  });
  m.run();
  EXPECT_FALSE(sc_result);
  EXPECT_EQ(m.peek_word(a), 222u);
}

TEST(LlSc, FailsAfterConflictEviction) {
  core::Machine m(cfg_with(2));
  core::SystemConfig cfg = m.config();
  const std::uint64_t set_stride =
      static_cast<std::uint64_t>(cfg.cache.l2.num_sets()) *
      cfg.cache.l2.line_bytes;
  const sim::Addr base = m.galloc().alloc(
      0, (cfg.cache.l2.ways + 2) * set_stride, cfg.cache.l2.line_bytes);
  bool sc_result = true;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load_linked(base);
    // Touch enough same-set lines to evict the linked one.
    for (std::uint32_t i = 1; i <= cfg.cache.l2.ways + 1; ++i) {
      (void)co_await t.load(base + i * set_stride);
    }
    sc_result = co_await t.store_conditional(base, 7);
  });
  m.run();
  EXPECT_FALSE(sc_result);
  EXPECT_EQ(m.peek_word(base), 0u);
}

TEST(LlSc, FailsAfterAmuWordUpdate) {
  core::Machine m(cfg_with(2));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  bool sc_result = true;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load_linked(a);
    // An AMO with an eager put patches our cached word: the link breaks.
    (void)co_await t.amo_fetch_add(a, 5);
    co_await t.delay(2000);
    sc_result = co_await t.store_conditional(a, 0);
  });
  m.run();
  EXPECT_FALSE(sc_result);
  EXPECT_EQ(m.peek_word(a), 5u);
}

TEST(LlSc, LocalStoreBreaksOwnLink) {
  core::Machine m(cfg_with(2));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  bool sc_result = true;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load_linked(a);
    co_await t.store(a, 3);  // ordinary store between LL and SC
    sc_result = co_await t.store_conditional(a, 4);
  });
  m.run();
  EXPECT_FALSE(sc_result);
  EXPECT_EQ(m.peek_word(a), 3u);
}

// ----------------------------------------------------- fine-grained get/put

TEST(WordOps, DelayedPutFiresOnlyAtTestValue) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::vector<std::uint64_t> loads;
  std::uint32_t incs_done = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load(a);  // cache a copy (stale during increments)
    for (int i = 0; i < 3; ++i) {
      (void)co_await t.amo(amu::AmoOpcode::kInc, a, 0, /*test=*/3);
      ++incs_done;
      co_await t.delay(2000);
      loads.push_back(co_await t.load(a));
    }
  });
  m.run();
  ASSERT_EQ(loads.size(), 3u);
  // After inc #1 and #2 the cached copy is still the pre-AMO value (0):
  // the delayed put has not fired. After inc #3 (== test) the word update
  // patched the copy to 3.
  EXPECT_EQ(loads[0], 0u);
  EXPECT_EQ(loads[1], 0u);
  EXPECT_EQ(loads[2], 3u);
  EXPECT_EQ(m.peek_word(a), 3u);
  m.check_coherence();
}

TEST(WordOps, EagerPutPatchesSharersWithoutInvalidation) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  std::uint64_t seen = 0;
  std::uint32_t phase = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load(a);
    phase = 1;
    while (phase < 2) co_await t.delay(100);
    co_await t.delay(3000);
    seen = co_await t.load(a);  // must hit and see the updated word
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    while (phase < 1) co_await t.delay(100);
    (void)co_await t.amo_fetch_add(a, 41);  // eager put
    phase = 2;
  });
  m.run();
  EXPECT_EQ(seen, 41u);
  // The update patched the copy in place: no invalidations were needed.
  EXPECT_EQ(m.core(0).cache().stats().invals, 0u);
  m.check_coherence();
}

TEST(WordOps, GetSMergesAmuValue) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  std::uint64_t seen = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    // Two increments with an unreachable test value: no put happens, the
    // only current copy lives in the AMU cache.
    (void)co_await t.amo(amu::AmoOpcode::kInc, a, 0, /*test=*/100);
    (void)co_await t.amo(amu::AmoOpcode::kInc, a, 0, /*test=*/100);
    // A fresh coherent load must observe the AMU-merged value.
    seen = co_await t.load(a);
  });
  m.run();
  EXPECT_EQ(seen, 2u);
  EXPECT_TRUE(m.dir(1).amu_sharer(a));
  m.check_coherence();
}

TEST(WordOps, GetXFlushesAmuAndStaysCoherent) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  std::uint64_t final_amo = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.amo(amu::AmoOpcode::kInc, a, 0, 100);  // AMU value: 1
    co_await t.store(a, 10);  // GetX forces merge + AMU drop
    // The next AMO must re-get the word (recalling our M copy) and see 10.
    final_amo = co_await t.amo_fetch_add(a, 1);
  });
  m.run();
  EXPECT_EQ(final_amo, 10u);
  EXPECT_EQ(m.peek_word(a), 11u);
  m.check_coherence();
}

TEST(WordOps, WordGetRecallsExclusiveOwner) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  std::uint64_t old = 0;
  std::uint32_t phase = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.store(a, 70);  // exclusive dirty owner
    phase = 1;
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    while (phase < 1) co_await t.delay(100);
    old = co_await t.amo_fetch_add(a, 1);  // AMU word-get must recall cpu0
  });
  m.run();
  EXPECT_EQ(old, 70u);
  EXPECT_EQ(m.peek_word(a), 71u);
  EXPECT_GE(m.dir(1).stats().recalls_sent, 1u);
  m.check_coherence();
}

TEST(WordOps, UncachedAccessesSeeAmuValues) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  std::uint64_t v1 = 0;
  std::uint64_t v2 = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.mao_fetch_add(a, 7);   // value enters the AMU cache
    v1 = co_await t.uncached_load(a);       // must read through the AMU
    v2 = co_await t.mao_fetch_add(a, 1);    // the AMU still holds the word
  });
  m.run();
  EXPECT_EQ(v1, 7u);
  EXPECT_EQ(v2, 7u);
  m.check_coherence();
}

// Sibling contexts on one core that miss on the same line join one MSHR:
// a single GetS leaves the core and both loads return the fill.
TEST(Mshr, SiblingContextsShareOneRequest) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.backing().write_word(a, 41);
  std::uint64_t got[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    m.spawn(0, [&, i](core::ThreadCtx& t) -> sim::Task<void> {
      got[i] = co_await t.load(a);
    });
  }
  m.run();
  EXPECT_EQ(m.core(0).cache().stats().miss_gets, 1u);
  EXPECT_EQ(got[0], 41u);
  EXPECT_EQ(got[1], 41u);
  m.check_coherence();
}

// Four contexts on one core miss on four lines homed at different
// distances, so their MSHRs complete out of creation order and each
// completion erases a record from the middle of the controller's list.
TEST(Mshr, DistinctLinesCompleteOutOfOrder) {
  core::Machine m(cfg_with(256));
  const auto& topo = m.network().topology();
  // Creation order: near, far, local, mid.
  const sim::NodeId homes[4] = {1, 127, 0, 8};
  ASSERT_LT(topo.hop_count(0, 1), topo.hop_count(0, 8));
  ASSERT_LT(topo.hop_count(0, 8), topo.hop_count(0, 127));
  sim::Addr lines[4];
  for (int i = 0; i < 4; ++i) {
    lines[i] = m.galloc().alloc_word_line(homes[i]);
    m.backing().write_word(lines[i], 100 + i);
  }
  std::uint64_t got[4] = {0, 0, 0, 0};
  std::vector<int> finish_order;
  for (int i = 0; i < 4; ++i) {
    m.spawn(0, [&, i](core::ThreadCtx& t) -> sim::Task<void> {
      got[i] = co_await t.load(lines[i]);
      finish_order.push_back(i);
    });
  }
  m.run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], 100u + i) << "line " << i;
  EXPECT_EQ(finish_order, (std::vector<int>{2, 0, 3, 1}));
  EXPECT_EQ(m.core(0).cache().stats().miss_gets, 4u);
  EXPECT_EQ(m.core(0).cache().parked_entries(), 0u);
  m.check_coherence();
}

}  // namespace
}  // namespace amo
