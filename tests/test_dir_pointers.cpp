// Directory sharer tracking: the SharerSet representation, exact
// word-update waves and invalidation rounds at 1024 CPUs, and the
// limited-pointer directory (DIR-i-B style) — correctness under coarse
// overflow (broadcast invalidations / put waves) and its behavioural costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "coh/directory.hpp"
#include "coh/sharer_set.hpp"
#include "core/machine.hpp"
#include "sync/barrier.hpp"
#include "sync/mechanism.hpp"

namespace amo {
namespace {

// ----------------------------------------------------------- SharerSet

std::vector<sim::CpuId> members(const coh::SharerSet& s) {
  std::vector<sim::CpuId> out;
  s.for_each([&](sim::CpuId c) { out.push_back(c); });
  return out;
}

TEST(SharerSet, WordBoundaryBitsAndHighWater) {
  coh::SharerSet s;
  EXPECT_TRUE(s.none());
  EXPECT_TRUE(s.words().empty());
  s.set(0);
  EXPECT_EQ(s.words().size(), 1u);
  s.set(63);
  EXPECT_EQ(s.words().size(), 1u);
  s.set(64);
  EXPECT_EQ(s.words().size(), 2u);
  s.set(4095);
  EXPECT_EQ(s.words().size(), coh::SharerSet::kWords);
  for (sim::CpuId c : {0u, 63u, 64u, 4095u}) EXPECT_TRUE(s.test(c)) << c;
  for (sim::CpuId c : {1u, 62u, 65u, 4094u}) EXPECT_FALSE(s.test(c)) << c;
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.words()[0], (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(s.words()[1], 1u);
  EXPECT_EQ(s.words()[63], std::uint64_t{1} << 63);
}

TEST(SharerSet, ForEachVisitsMembersInAscendingOrder) {
  coh::SharerSet s;
  for (sim::CpuId c : {4095u, 64u, 1000u, 0u, 63u, 65u}) s.set(c);
  s.set(64);  // idempotent
  EXPECT_EQ(members(s),
            (std::vector<sim::CpuId>{0, 63, 64, 65, 1000, 4095}));
}

TEST(SharerSet, AnyExcept) {
  coh::SharerSet s;
  EXPECT_FALSE(s.any_except(0));
  EXPECT_FALSE(s.any_except(64));
  s.set(64);  // one member
  EXPECT_FALSE(s.any_except(64));
  EXPECT_TRUE(s.any_except(0));
  EXPECT_TRUE(s.any_except(65));
  s.set(3);  // two members, in different words
  EXPECT_TRUE(s.any_except(64));
  EXPECT_TRUE(s.any_except(3));
  coh::SharerSet same_word;
  same_word.set(1);
  same_word.set(2);
  EXPECT_TRUE(same_word.any_except(1));
  EXPECT_TRUE(same_word.any_except(2));
}

TEST(SharerSet, ClearResetsHighWaterAndLeavesNoStaleBits) {
  coh::SharerSet s;
  for (sim::CpuId c : {5u, 70u, 4095u}) s.set(c);
  s.clear();
  EXPECT_TRUE(s.none());
  EXPECT_TRUE(s.words().empty());
  EXPECT_EQ(s.count(), 0u);
  s.set(3);
  ASSERT_EQ(s.words().size(), 1u);
  EXPECT_EQ(s.words()[0], std::uint64_t{1} << 3);
  s.set(70);
  ASSERT_EQ(s.words().size(), 2u);
  EXPECT_EQ(s.words()[1], std::uint64_t{1} << 6);
  EXPECT_FALSE(s.test(5));
  EXPECT_FALSE(s.test(4095));
  EXPECT_EQ(members(s), (std::vector<sim::CpuId>{3, 70}));
}

TEST(SharerSnapshot, CopiesSingletonsAndBroadcasts) {
  coh::SharerSet s;
  for (sim::CpuId c : {2u, 64u, 1023u}) s.set(c);
  coh::SharerSnapshot copy(s.words());
  s.clear();  // the snapshot owns its words
  EXPECT_TRUE(std::ranges::equal(copy.words(),
                                 std::vector<std::uint64_t>{
                                     4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                     0, 0, std::uint64_t{1} << 63}));
  EXPECT_TRUE(copy.test(1023));
  EXPECT_FALSE(copy.test(1024));  // past the copied words

  const coh::SharerSnapshot one = coh::SharerSnapshot::single(130);
  EXPECT_EQ(one.words().size(), 3u);
  EXPECT_TRUE(one.test(130));
  EXPECT_FALSE(one.test(2));

  const coh::SharerSnapshot all = coh::SharerSnapshot::all(130);
  std::uint32_t n = 0;
  coh::SharerSet::for_each_in(all.words(), [&](sim::CpuId c) {
    EXPECT_EQ(c, n);
    ++n;
  });
  EXPECT_EQ(n, 130u);

  coh::SharerSnapshot moved(std::move(copy));
  EXPECT_TRUE(moved.test(64));
  EXPECT_TRUE(copy.words().empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(coh::SharerSnapshot(s.words()).words().empty());
}

// ------------------------------------------- a 1024-CPU directory alone

// Cache stand-in: counts the word updates and invalidations it receives
// and acknowledges each invalidation straight back to the home.
class StubCache final : public coh::CacheIface {
 public:
  void on_data(sim::Addr, bool, std::span<const std::uint64_t>) override {}
  void on_upgrade_ack(sim::Addr) override {}
  void on_inval(sim::Addr block) override {
    ++invals;
    dir->on_inv_ack(cpu, block);
  }
  void on_recall(sim::Addr, bool, sim::CpuId) override {}
  void on_word_update(sim::Addr, std::uint64_t) override { ++updates; }

  coh::Directory* dir = nullptr;
  sim::CpuId cpu = 0;
  int updates = 0;
  int invals = 0;
};

// AMU stand-in that holds every word, so word_put always fans out.
class StubAmu final : public coh::AmuIface {
 public:
  [[nodiscard]] bool holds_word(sim::Addr) const override { return true; }
  [[nodiscard]] std::uint64_t peek_word(sim::Addr) const override {
    return 0;
  }
  void store_word(sim::Addr, std::uint64_t) override {}
  void drop_block(sim::Addr) override {}
};

// Node 0's directory on a 1024-CPU, 512-node machine whose caches are
// stubs: the sharer walks are observed directly, per CPU.
struct WideDir {
  static constexpr std::uint32_t kCpus = 1024;
  static constexpr std::uint32_t kCpusPerNode = 2;
  static constexpr sim::Addr kBlock = 0;

  static net::NetConfig net_config() {
    net::NetConfig c;
    c.num_nodes = kCpus / kCpusPerNode;
    return c;
  }
  static coh::DirConfig dir_config(std::uint32_t pointer_limit) {
    coh::DirConfig c;
    c.grant_exclusive_clean = false;  // every reader joins as a sharer
    c.sharer_pointer_limit = pointer_limit;
    return c;
  }

  explicit WideDir(std::uint32_t pointer_limit = 0)
      : net(engine, net_config()),
        wiring(engine, net, kCpusPerNode, /*local_cycles=*/32),
        dram(engine, mem::DramConfig{}),
        caches(kCpus),
        dir(engine, wiring, agents, /*node=*/0, backing, dram,
            dir_config(pointer_limit)) {
    agents.dirs.assign(net_config().num_nodes, nullptr);
    agents.amus.assign(net_config().num_nodes, nullptr);
    agents.dirs[0] = &dir;
    agents.amus[0] = &amu;
    for (sim::CpuId c = 0; c < kCpus; ++c) {
      caches[c].dir = &dir;
      caches[c].cpu = c;
      agents.caches.push_back(&caches[c]);
    }
  }

  void share(std::initializer_list<sim::CpuId> cpus) {
    for (sim::CpuId c : cpus) dir.on_gets(c, kBlock);
    engine.run();
  }

  sim::Engine engine;
  net::Network net;
  coh::Wiring wiring;
  mem::Backing backing{128};
  mem::Dram dram;
  StubAmu amu;
  std::vector<StubCache> caches;
  coh::Agents agents;
  coh::Directory dir;
};

TEST(PutWave1024, ReachesExactlyTheSharers) {
  WideDir w;
  w.share({0, 63, 64, 1023});
  for (sim::CpuId c : {0u, 63u, 64u, 1023u}) {
    ASSERT_TRUE(w.dir.is_sharer(WideDir::kBlock, c)) << c;
  }
  w.dir.word_put(WideDir::kBlock, 7);
  w.engine.run();
  for (sim::CpuId c : {0u, 63u, 64u, 1023u}) {
    EXPECT_EQ(w.caches[c].updates, 1) << c;
  }
  // Node-mates of sharers that hold no copy: 1 (node 0), 1022 (node 511).
  EXPECT_EQ(w.caches[1].updates, 0);
  EXPECT_EQ(w.caches[1022].updates, 0);
  int total = 0;
  for (const StubCache& c : w.caches) total += c.updates;
  EXPECT_EQ(total, 4);
  // Distinct target nodes: 0, 31, 32 and 511.
  EXPECT_EQ(w.dir.stats().word_updates_sent, 4u);
}

TEST(PutWave1024, CoarseEntryStillReachesEveryCpu) {
  WideDir w(/*pointer_limit=*/2);
  w.share({0, 63, 64, 1023});
  ASSERT_TRUE(w.dir.coarse(WideDir::kBlock));
  w.dir.word_put(WideDir::kBlock, 7);
  w.engine.run();
  for (sim::CpuId c = 0; c < WideDir::kCpus; ++c) {
    EXPECT_EQ(w.caches[c].updates, 1) << c;
  }
  EXPECT_EQ(w.dir.stats().word_updates_sent, WideDir::kCpus / 2);
}

TEST(Invalidation1024, ReachesExactlyTheOtherSharers) {
  WideDir w;
  w.share({0, 63, 64, 1023});
  w.dir.on_getx(64, WideDir::kBlock);
  w.engine.run();
  for (sim::CpuId c : {0u, 63u, 1023u}) EXPECT_EQ(w.caches[c].invals, 1) << c;
  EXPECT_EQ(w.caches[64].invals, 0);  // the requestor keeps its copy
  EXPECT_EQ(w.dir.stats().invals_sent, 3u);
  EXPECT_EQ(w.dir.stats().broadcast_invals, 0u);
  EXPECT_EQ(w.dir.owner_of(WideDir::kBlock), 64u);
}

TEST(Invalidation1024, CoarseEntryBroadcastsToEveryOtherCpu) {
  WideDir w(/*pointer_limit=*/2);
  w.share({0, 63, 64, 1023});
  w.dir.on_getx(5, WideDir::kBlock);
  w.engine.run();
  for (sim::CpuId c = 0; c < WideDir::kCpus; ++c) {
    EXPECT_EQ(w.caches[c].invals, c == 5 ? 0 : 1) << c;
  }
  EXPECT_EQ(w.dir.stats().invals_sent, WideDir::kCpus - 1);
  EXPECT_EQ(w.dir.stats().broadcast_invals, WideDir::kCpus - 1 - 4);
  EXPECT_EQ(w.dir.owner_of(WideDir::kBlock), 5u);
}

// ------------------------------------------- limited-pointer directory

core::SystemConfig limited_cfg(std::uint32_t cpus, std::uint32_t pointers) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  cfg.dir.sharer_pointer_limit = pointers;
  return cfg;
}

TEST(DirPointers, OverflowTriggersOnWideSharing) {
  core::Machine m(limited_cfg(8, 2));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::uint32_t readers = 0;
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.load(a);
      ++readers;
      while (readers < 8) co_await t.delay(200);
    });
  }
  m.run();
  EXPECT_TRUE(m.dir(0).coarse(a));
  EXPECT_GE(m.dir(0).stats().overflows, 1u);
  m.check_coherence();
}

TEST(DirPointers, NoOverflowBelowLimit) {
  core::Machine m(limited_cfg(8, 4));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  for (sim::CpuId c = 0; c < 3; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.load(a);
      co_await t.delay(3000);  // overlap the sharers
    });
  }
  m.run();
  EXPECT_FALSE(m.dir(0).coarse(a));
  EXPECT_EQ(m.dir(0).stats().overflows, 0u);
}

TEST(DirPointers, BroadcastInvalidationStillCorrect) {
  // Only 3 of 8 cpus actually share; a coarse entry must invalidate all
  // of them anyway (and the stray invals to non-sharers are counted).
  core::Machine m(limited_cfg(8, 1));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::uint32_t readers = 0;
  std::vector<std::uint64_t> reread(8, 0);
  for (sim::CpuId c = 0; c < 3; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.load(a);
      ++readers;
      // Wait for the writer, then re-read: must see the new value.
      while (co_await t.load(a) != 99) co_await t.delay(300);
      reread[c] = 99;
    });
  }
  m.spawn(7, [&](core::ThreadCtx& t) -> sim::Task<void> {
    while (readers < 3) co_await t.delay(300);
    co_await t.store(a, 99);  // invalidation must broadcast
  });
  m.run();
  for (sim::CpuId c = 0; c < 3; ++c) EXPECT_EQ(reread[c], 99u);
  EXPECT_GE(m.dir(0).stats().broadcast_invals, 1u);
  m.check_coherence();
}

TEST(DirPointers, AmoBarrierSurvivesCoarseMode) {
  core::Machine m(limited_cfg(16, 2));
  auto barrier = sync::make_central_barrier(m, sync::Mechanism::kAmo, 16);
  std::vector<int> arrived(16, 0);
  int violations = 0;
  for (sim::CpuId c = 0; c < 16; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 1; ep <= 4; ++ep) {
        co_await t.compute(t.rng().below(400));
        arrived[c] = ep;
        co_await barrier->wait(t);
        for (int o = 0; o < 16; ++o) {
          if (arrived[o] < ep) ++violations;
        }
      }
    });
  }
  m.run();
  EXPECT_EQ(violations, 0);
  m.check_coherence();
}

TEST(DirPointers, CoarsePutWaveCostsMoreTrafficWhenSharingIsSparse) {
  // Put waves only cost more in coarse mode when the true sharer set is
  // small relative to the machine (for a barrier, everyone shares, so
  // broadcast == exact — an interesting negative result). Here a flag is
  // shared by 3 cpus on a 16-cpu machine; overflowing a 1-pointer
  // directory must blow the per-put fan-out up to every node.
  auto updates_for = [](std::uint32_t pointers) {
    core::Machine m(limited_cfg(16, pointers));
    const sim::Addr flag = m.galloc().alloc_word_line(0);
    std::uint32_t spinners_ready = 0;
    for (sim::CpuId c : {2u, 5u, 9u}) {
      m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
        (void)co_await t.load(flag);  // cache a copy
        ++spinners_ready;
        while (co_await t.load(flag) < 8) co_await t.delay(500);
      });
    }
    m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
      while (spinners_ready < 3) co_await t.delay(300);
      for (int i = 0; i < 8; ++i) {
        (void)co_await t.amo_fetch_add(flag, 1);  // eager put each time
        co_await t.compute(200);
      }
    });
    m.run();
    std::uint64_t updates = 0;
    for (sim::NodeId n = 0; n < m.num_nodes(); ++n) {
      updates += m.dir(n).stats().word_updates_sent;
    }
    return updates;
  };
  const std::uint64_t exact = updates_for(0);
  const std::uint64_t coarse = updates_for(1);
  EXPECT_GT(coarse, 2 * exact);
}

TEST(DirPointers, ExclusiveTransitionClearsCoarse) {
  core::Machine m(limited_cfg(8, 1));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::uint32_t readers = 0;
  bool wrote = false;
  for (sim::CpuId c = 0; c < 4; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.load(a);
      ++readers;
      while (!wrote) co_await t.delay(300);
    });
  }
  m.spawn(5, [&](core::ThreadCtx& t) -> sim::Task<void> {
    while (readers < 4) co_await t.delay(300);
    co_await t.store(a, 1);
    wrote = true;
  });
  m.run();
  EXPECT_FALSE(m.dir(0).coarse(a));  // Exclusive reset the coarse flag
  m.check_coherence();
}

}  // namespace
}  // namespace amo
