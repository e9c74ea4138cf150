// Machine/public-API tests: configuration, the global allocator, debug
// peeks, deadlock detection, stats aggregation, and determinism.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine.hpp"

// Footprint tests read resident size from /proc/self/statm, so they need
// Linux, and they skip under ASan and TSan, whose shadow memory shows up
// in that reading.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AMO_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AMO_TEST_SANITIZED 1
#endif
#endif
#if defined(__linux__) && !defined(AMO_TEST_SANITIZED)
#define AMO_TEST_READS_RSS 1
#include <unistd.h>
#endif

namespace amo {
namespace {

TEST(SystemConfig, DerivesNodeCount) {
  core::SystemConfig cfg;
  cfg.num_cpus = 7;
  cfg.cpus_per_node = 2;
  EXPECT_EQ(cfg.num_nodes(), 4u);
  cfg.num_cpus = 8;
  EXPECT_EQ(cfg.num_nodes(), 4u);
  cfg.cpus_per_node = 4;
  EXPECT_EQ(cfg.num_nodes(), 2u);
}

TEST(GAlloc, PlacementEncodesHomeNode) {
  core::GAlloc g(8, 128);
  for (sim::NodeId n = 0; n < 8; ++n) {
    const sim::Addr a = g.alloc(n, 64);
    EXPECT_EQ(core::GAlloc::home_of(a), n);
  }
}

TEST(GAlloc, RespectsAlignment) {
  core::GAlloc g(2, 128);
  (void)g.alloc(0, 3);  // misalign the bump pointer
  const sim::Addr a = g.alloc(0, 8, 64);
  EXPECT_EQ(a % 64, 0u);
  const sim::Addr line = g.alloc_word_line(0);
  EXPECT_EQ(line % 128, 0u);
}

TEST(GAlloc, DistinctAddresses) {
  core::GAlloc g(2, 128);
  const sim::Addr a = g.alloc(0, 8);
  const sim::Addr b = g.alloc(0, 8);
  EXPECT_NE(a, b);
}

TEST(GAlloc, RoundRobinCyclesNodes) {
  core::GAlloc g(4, 128);
  std::set<sim::NodeId> homes;
  for (int i = 0; i < 4; ++i) {
    homes.insert(core::GAlloc::home_of(g.alloc_word_line_rr()));
  }
  EXPECT_EQ(homes.size(), 4u);
}

TEST(Machine, SpawnRejectsBadCpu) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  core::Machine m(cfg);
  EXPECT_THROW(
      m.spawn(5, [](core::ThreadCtx&) -> sim::Task<void> { co_return; }),
      std::out_of_range);
}

TEST(Machine, DetectsDeadlock) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  core::Machine m(cfg);
  m.spawn(0, [](core::ThreadCtx&) -> sim::Task<void> {
    co_await std::suspend_always{};  // an awaiter no one resumes
  });
  EXPECT_THROW(m.run(), std::runtime_error);
}

TEST(Machine, PendingThreadsTracksLifecycle) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  core::Machine m(cfg);
  m.spawn(0, [](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(10);
  });
  m.spawn(1, [](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(20);
  });
  EXPECT_EQ(m.pending_threads(), 2u);
  m.run();
  EXPECT_EQ(m.pending_threads(), 0u);
}

TEST(Machine, PeekWordFindsOwnerCopy) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.store(a, 55);  // stays dirty in cpu0's cache
  });
  m.run();
  EXPECT_EQ(m.backing().read_word(a), 0u);  // memory is stale
  EXPECT_EQ(m.peek_word(a), 55u);           // peek follows the owner
}

TEST(Machine, PeekWordFindsAmuCopy) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    // No put (unreachable test): the value lives only in the AMU.
    (void)co_await t.amo(amu::AmoOpcode::kInc, a, 0, 1000);
  });
  m.run();
  EXPECT_EQ(m.peek_word(a), 1u);
}

TEST(Machine, StatsAggregateAcrossNodes) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(0);
  const sim::Addr b = m.galloc().alloc_word_line(3);
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.amo_fetch_add(a, 1);
      (void)co_await t.amo_fetch_add(b, 1);
    });
  }
  m.run();
  const sim::StatsRegistry& reg = m.registry();
  std::uint64_t amo_ops = 0;
  for (sim::NodeId n = 0; n < m.num_nodes(); ++n) {
    amo_ops += reg.value("node" + std::to_string(n) + ".amu.amo_ops").as_uint();
  }
  EXPECT_EQ(amo_ops, 16u);  // both AMUs summed
  EXPECT_GT(reg.value("net.packets").as_uint(), 0u);
  EXPECT_GT(reg.value("engine.events_executed").as_uint(), 0u);
  EXPECT_EQ(reg.value("engine.now").as_uint(), m.engine().now());
}

TEST(Machine, DeterministicCycleCounts) {
  auto run = [](std::uint64_t seed) {
    core::SystemConfig cfg;
    cfg.num_cpus = 8;
    cfg.seed = seed;
    core::Machine m(cfg);
    const sim::Addr a = m.galloc().alloc_word_line(0);
    for (sim::CpuId c = 0; c < 8; ++c) {
      m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
        for (int i = 0; i < 3; ++i) {
          co_await t.compute(t.rng().below(100));
          (void)co_await t.amo_fetch_add(a, 1);
        }
      });
    }
    m.run();
    return m.engine().now();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // different seeds shift the interleaving
}

TEST(Machine, SingleNodeMachineWorks) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;  // one node: no network at all
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(0);
  for (sim::CpuId c = 0; c < 2; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 4; ++i) (void)co_await t.amo_fetch_add(a, 1);
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(a), 8u);
  // Everything stayed on-hub.
  EXPECT_EQ(m.registry().value("net.packets").as_uint(), 0u);
  EXPECT_GT(m.registry().value("local.messages").as_uint(), 0u);
}

TEST(Machine, RegistryIndexesEverySubsystem) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;  // two nodes
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(1);
  for (sim::CpuId c = 0; c < 4; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.amo_fetch_add(a, 1);
    });
  }
  m.run();

  // The registry's machine-wide totals must agree with sums over the
  // per-subsystem stats structs.
  const sim::Json snap = m.stats_json();
  EXPECT_EQ(snap.find_path("net.packets")->as_uint(),
            m.network().stats().packets);
  EXPECT_EQ(snap.find_path("net.bytes")->as_uint(),
            m.network().stats().bytes);
  const std::uint64_t local_messages = m.wiring().local_stats().messages;
  const std::uint64_t local_bytes = m.wiring().local_stats().bytes;
  EXPECT_EQ(snap.find_path("local.messages")->as_uint(), local_messages);
  EXPECT_EQ(snap.find_path("local.bytes")->as_uint(), local_bytes);
  EXPECT_GT(local_messages, 0u);
  EXPECT_LT(local_messages, local_bytes);
  EXPECT_EQ(snap.find_path("engine.events_executed")->as_uint(),
            m.engine().events_executed());
  EXPECT_EQ(snap.find_path("engine.now")->as_uint(), m.engine().now());

  std::uint64_t amu_ops = 0;
  std::uint64_t dir_word_gets = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t subsystem_amu_ops = 0;
  std::uint64_t subsystem_word_gets = 0;
  std::uint64_t subsystem_l2_hits = 0;
  for (std::uint32_t n = 0; n < m.num_nodes(); ++n) {
    const std::string p = "node" + std::to_string(n);
    amu_ops += snap.find_path(p + ".amu.ops")->as_uint();
    dir_word_gets += snap.find_path(p + ".dir.word_gets")->as_uint();
    subsystem_amu_ops += m.amu(n).stats().ops;
    subsystem_word_gets += m.dir(n).stats().word_gets;
  }
  for (std::uint32_t c = 0; c < m.num_cpus(); ++c) {
    const std::string p = "cpu" + std::to_string(c) + ".cache.l2.hits";
    l2_hits += snap.find_path(p)->as_uint();
    subsystem_l2_hits += m.core(c).cache().l2().stats().hits;
  }
  EXPECT_EQ(amu_ops, subsystem_amu_ops);
  EXPECT_GT(amu_ops, 0u);
  EXPECT_EQ(dir_word_gets, subsystem_word_gets);
  EXPECT_EQ(l2_hits, subsystem_l2_hits);

  // Per-entry lookup works through the registry, too.
  EXPECT_EQ(m.registry().value("node0.amu.ops").as_uint() +
                m.registry().value("node1.amu.ops").as_uint(),
            subsystem_amu_ops);
}

#if defined(AMO_TEST_READS_RSS)
/// Resident set size of this process in bytes, from /proc/self/statm.
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Checks that constructing a default machine of `cpus` CPUs adds less
/// than `limit_mb` MB of resident memory.
void expect_construction_below(std::uint32_t cpus, std::uint64_t limit_mb) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  const std::uint64_t before = resident_bytes();
  core::Machine m(cfg);
  const std::uint64_t after = resident_bytes();
  const std::uint64_t grown = after > before ? after - before : 0;
  ASSERT_EQ(m.num_cpus(), cpus);
  EXPECT_LT(grown, limit_mb << 20) << "grew " << (grown >> 20) << " MB";
}
#endif

// Construction pays only for state a run touches: caches hold storage
// only for sets a line has been installed in, protocol tables and entry
// slabs start small, and subsystem histograms exist only when
// stats.histograms is on. Checks a footprint, not a wall time, so the
// host's speed does not matter. A default 1024-CPU machine adds about
// 11 MB, a 4096-CPU one about 44 MB (Linux, Release).
TEST(Machine, ConstructionFootprintScalesWithTouchedState) {
#if !defined(AMO_TEST_READS_RSS)
  GTEST_SKIP() << "needs /proc/self/statm without sanitizer shadow memory";
#else
  expect_construction_below(1024, 24);
#endif
}

TEST(Machine, ConstructionFootprintAt4096Cpus) {
#if !defined(AMO_TEST_READS_RSS)
  GTEST_SKIP() << "needs /proc/self/statm without sanitizer shadow memory";
#else
  expect_construction_below(4096, 96);
#endif
}

}  // namespace
}  // namespace amo
