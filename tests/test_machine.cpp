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
#include "sync/barrier.hpp"

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

// Runs a short fixed program on a 4-CPU, two-node machine: every CPU
// makes two AMO fetch-adds, a MAO fetch-add, an active-message fetch-add
// and a processor-side atomic fetch-add on words homed at node 1, an
// LL/SC increment of a word homed at node 0, and two central-barrier
// episodes. The run
// leaves counters, Accums and (with stats.histograms on) histograms
// non-zero across the engine, the network, directories, AMUs, AM
// servers, cache controllers and L2s.
std::string stats_dump_after_short_run(bool histograms) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  cfg.stats.histograms = histograms;
  core::Machine m(cfg);
  const sim::Addr amo_word = m.galloc().alloc_word_line(1);
  const sim::Addr mao_word = m.galloc().alloc_word_line(1);
  const sim::Addr am_word = m.galloc().alloc_word_line(1);
  const sim::Addr atomic_word = m.galloc().alloc_word_line(1);
  const sim::Addr llsc_word = m.galloc().alloc_word_line(0);
  auto barrier = sync::make_central_barrier(m, sync::Mechanism::kAmo, 4);
  for (sim::CpuId c = 0; c < 4; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 2; ++i) (void)co_await t.amo_fetch_add(amo_word, 1);
      (void)co_await t.mao_fetch_add(mao_word, 1);
      (void)co_await t.am_fetch_add(am_word, 1);
      (void)co_await t.atomic_fetch_add(atomic_word, 1);
      while (true) {
        const std::uint64_t v = co_await t.load_linked(llsc_word);
        if (co_await t.store_conditional(llsc_word, v + 1)) break;
      }
      for (int ep = 0; ep < 2; ++ep) {
        co_await t.compute(t.rng().below(100));
        co_await barrier->wait(t);
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(amo_word), 8u);
  EXPECT_EQ(m.peek_word(mao_word), 4u);
  EXPECT_EQ(m.peek_word(am_word), 4u);
  EXPECT_EQ(m.peek_word(atomic_word), 4u);
  EXPECT_EQ(m.peek_word(llsc_word), 4u);
  return m.stats_json().dump();
}

// The whole registry dump, byte for byte, with histograms off and on:
// names, key order and values. Recorded before the stats structs
// registered as groups (37f82d3).
TEST(Machine, StatsDumpIsPinned) {
  EXPECT_EQ(stats_dump_after_short_run(false),
      R"json({"engine":{"events_executed":322,"now":22004,)json"
      R"json("queue":{"pushed":322,"pending":0}},"net":{"packets":50,)json"
      R"json("bytes":2880,"hops":100,"latency":{"count":50,"sum":11962,)json"
      R"json("min":220,"max":300,"mean":239.24000000000004,)json"
      R"json("stddev":29.349998296422431},)json"
      R"json("packets_by_class":{"request":17,"response":17,)json"
      R"json("intervention":3,"inval":2,"ack":2,"writeback":3,)json"
      R"json("update":2,"uncached":0,"active_msg":4},)json"
      R"json("bytes_by_class":{"request":544,"response":1392,)json"
      R"json("intervention":96,"inval":64,"ack":64,"writeback":480,)json"
      R"json("update":80,"uncached":0,"active_msg":160}},)json"
      R"json("local":{"messages":52,"bytes":3072},)json"
      R"json("node0":{"dir":{"gets":8,"getx":0,"upgrades":3,)json"
      R"json("putbacks":0,"invals_sent":3,"recalls_sent":3,)json"
      R"json("overflows":0,"broadcast_invals":0,"word_gets":1,)json"
      R"json("word_puts":2,"word_updates_sent":4,"uncached_reads":0,)json"
      R"json("deferred":1},"amu":{"ops":8,"amo_ops":8,"mao_ops":0,)json"
      R"json("cache_hits":7,"cache_misses":1,"evictions":0,"puts":2,)json"
      R"json("puts_suppressed":0,"queue_depth":{"count":8,"sum":8,)json"
      R"json("min":1,"max":1,"mean":1.0,"stddev":0.0}},)json"
      R"json("am":{"requests":0,"duplicates":0,"replays":0,)json"
      R"json("handled":0}},"node1":{"dir":{"gets":0,"getx":5,)json"
      R"json("upgrades":0,"putbacks":0,"invals_sent":0,)json"
      R"json("recalls_sent":3,"overflows":0,"broadcast_invals":0,)json"
      R"json("word_gets":1,"word_puts":8,"word_updates_sent":0,)json"
      R"json("uncached_reads":0,"deferred":0},"amu":{"ops":12,)json"
      R"json("amo_ops":8,"mao_ops":4,"cache_hits":10,"cache_misses":2,)json"
      R"json("evictions":0,"puts":8,"puts_suppressed":0,)json"
      R"json("queue_depth":{"count":12,"sum":12,"min":1,"max":1,)json"
      R"json("mean":1.0,"stddev":0.0}},"am":{"requests":4,)json"
      R"json("duplicates":0,"replays":0,"handled":4}},)json"
      R"json("cpu0":{"cache":{"loads":5,"stores":0,"ll":1,)json"
      R"json("sc_success":1,"sc_fail":0,"atomics":1,"miss_gets":2,)json"
      R"json("miss_getx":1,"miss_upgrade":1,"recalls":2,"invals":1,)json"
      R"json("word_updates":2,"writebacks":0,"l2":{"hits":5,"misses":3,)json"
      R"json("evictions":0,"dirty_evictions":0,"invals_received":2,)json"
      R"json("word_updates":2}}},"cpu1":{"cache":{"loads":4,"stores":0,)json"
      R"json("ll":1,"sc_success":1,"sc_fail":0,"atomics":1,)json"
      R"json("miss_gets":2,"miss_getx":1,"miss_upgrade":1,"recalls":0,)json"
      R"json("invals":0,"word_updates":1,"writebacks":0,"l2":{"hits":5,)json"
      R"json("misses":3,"evictions":0,"dirty_evictions":0,)json"
      R"json("invals_received":0,"word_updates":1}}},)json"
      R"json("cpu2":{"cache":{"loads":5,"stores":0,"ll":1,)json"
      R"json("sc_success":1,"sc_fail":0,"atomics":5,"miss_gets":2,)json"
      R"json("miss_getx":2,"miss_upgrade":0,"recalls":2,"invals":1,)json"
      R"json("word_updates":2,"writebacks":0,"l2":{"hits":8,"misses":4,)json"
      R"json("evictions":0,"dirty_evictions":0,"invals_received":2,)json"
      R"json("word_updates":2}}},"cpu3":{"cache":{"loads":5,"stores":0,)json"
      R"json("ll":1,"sc_success":1,"sc_fail":0,"atomics":1,)json"
      R"json("miss_gets":2,"miss_getx":1,"miss_upgrade":1,"recalls":2,)json"
      R"json("invals":1,"word_updates":2,"writebacks":0,"l2":{"hits":5,)json"
      R"json("misses":3,"evictions":0,"dirty_evictions":0,)json"
      R"json("invals_received":2,"word_updates":2}}}})json");
}

TEST(Machine, StatsDumpWithHistogramsIsPinned) {
  EXPECT_EQ(stats_dump_after_short_run(true),
      R"json({"engine":{"events_executed":322,"now":22004,)json"
      R"json("queue":{"pushed":322,"pending":0},)json"
      R"json("dispatch_delay_hist":{"count":322,"sum":120490,"min":0,)json"
      R"json("max":20000,"mean":374.19254658385091,"p50":24,"p90":415,)json"
      R"json("p99":20000,"p999":20000}},"net":{"packets":50,)json"
      R"json("bytes":2880,"hops":100,"latency":{"count":50,"sum":11962,)json"
      R"json("min":220,"max":300,"mean":239.24000000000004,)json"
      R"json("stddev":29.349998296422431},)json"
      R"json("packets_by_class":{"request":17,"response":17,)json"
      R"json("intervention":3,"inval":2,"ack":2,"writeback":3,)json"
      R"json("update":2,"uncached":0,"active_msg":4},)json"
      R"json("bytes_by_class":{"request":544,"response":1392,)json"
      R"json("intervention":96,"inval":64,"ack":64,"writeback":480,)json"
      R"json("update":80,"uncached":0,"active_msg":160},)json"
      R"json("link_latency_hist":{"l0":{"count":100,"sum":10082,)json"
      R"json("min":100,"max":124,"mean":100.81999999999999,"p50":103,)json"
      R"json("p90":103,"p99":123,"p999":124}}},"local":{"messages":52,)json"
      R"json("bytes":3072},"node0":{"dir":{"gets":8,"getx":0,)json"
      R"json("upgrades":3,"putbacks":0,"invals_sent":3,)json"
      R"json("recalls_sent":3,"overflows":0,"broadcast_invals":0,)json"
      R"json("word_gets":1,"word_puts":2,"word_updates_sent":4,)json"
      R"json("uncached_reads":0,"deferred":1,)json"
      R"json("occupancy_wait_hist":{"count":21,"sum":4,"min":0,"max":4,)json"
      R"json("mean":0.19047619047619047,"p50":0,"p90":0,"p99":4,)json"
      R"json("p999":4}},"amu":{"ops":8,"amo_ops":8,"mao_ops":0,)json"
      R"json("cache_hits":7,"cache_misses":1,"evictions":0,"puts":2,)json"
      R"json("puts_suppressed":0,"queue_depth":{"count":8,"sum":8,)json"
      R"json("min":1,"max":1,"mean":1.0,"stddev":0.0},)json"
      R"json("queue_wait_hist":{"count":8,"sum":0,"min":0,"max":0,)json"
      R"json("mean":0.0,"p50":0,"p90":0,"p99":0,"p999":0}},)json"
      R"json("am":{"requests":0,"duplicates":0,"replays":0,)json"
      R"json("handled":0}},"node1":{"dir":{"gets":0,"getx":5,)json"
      R"json("upgrades":0,"putbacks":0,"invals_sent":0,)json"
      R"json("recalls_sent":3,"overflows":0,"broadcast_invals":0,)json"
      R"json("word_gets":1,"word_puts":8,"word_updates_sent":0,)json"
      R"json("uncached_reads":0,"deferred":0,)json"
      R"json("occupancy_wait_hist":{"count":17,"sum":16,"min":0,)json"
      R"json("max":8,"mean":0.94117647058823528,"p50":0,"p90":8,)json"
      R"json("p99":8,"p999":8}},"amu":{"ops":12,"amo_ops":8,)json"
      R"json("mao_ops":4,"cache_hits":10,"cache_misses":2,)json"
      R"json("evictions":0,"puts":8,"puts_suppressed":0,)json"
      R"json("queue_depth":{"count":12,"sum":12,"min":1,"max":1,)json"
      R"json("mean":1.0,"stddev":0.0},"queue_wait_hist":{"count":12,)json"
      R"json("sum":144,"min":0,"max":84,"mean":12.0,"p50":0,"p90":61,)json"
      R"json("p99":84,"p999":84}},"am":{"requests":4,"duplicates":0,)json"
      R"json("replays":0,"handled":4}},"cpu0":{"cache":{"loads":5,)json"
      R"json("stores":0,"ll":1,"sc_success":1,"sc_fail":0,"atomics":1,)json"
      R"json("miss_gets":2,"miss_getx":1,"miss_upgrade":1,"recalls":2,)json"
      R"json("invals":1,"word_updates":2,"writebacks":0,"l2":{"hits":5,)json"
      R"json("misses":3,"evictions":0,"dirty_evictions":0,)json"
      R"json("invals_received":2,"word_updates":2},)json"
      R"json("mshr_residency_hist":{"count":4,"sum":2684,"min":124,)json"
      R"json("max":900,"mean":671.0,"p50":767,"p90":900,"p99":900,)json"
      R"json("p999":900}}},"cpu1":{"cache":{"loads":4,"stores":0,)json"
      R"json("ll":1,"sc_success":1,"sc_fail":0,"atomics":1,)json"
      R"json("miss_gets":2,"miss_getx":1,"miss_upgrade":1,"recalls":0,)json"
      R"json("invals":0,"word_updates":1,"writebacks":0,"l2":{"hits":5,)json"
      R"json("misses":3,"evictions":0,"dirty_evictions":0,)json"
      R"json("invals_received":0,"word_updates":1},)json"
      R"json("mshr_residency_hist":{"count":4,"sum":2384,"min":124,)json"
      R"json("max":1572,"mean":596.0,"p50":175,"p90":1572,"p99":1572,)json"
      R"json("p999":1572}}},"cpu2":{"cache":{"loads":5,"stores":0,)json"
      R"json("ll":1,"sc_success":1,"sc_fail":0,"atomics":5,)json"
      R"json("miss_gets":2,"miss_getx":2,"miss_upgrade":0,"recalls":2,)json"
      R"json("invals":1,"word_updates":2,"writebacks":0,"l2":{"hits":8,)json"
      R"json("misses":4,"evictions":0,"dirty_evictions":0,)json"
      R"json("invals_received":2,"word_updates":2},)json"
      R"json("mshr_residency_hist":{"count":4,"sum":1840,"min":124,)json"
      R"json("max":796,"mean":460.0,"p50":127,"p90":796,"p99":796,)json"
      R"json("p999":796}}},"cpu3":{"cache":{"loads":5,"stores":0,)json"
      R"json("ll":1,"sc_success":1,"sc_fail":0,"atomics":1,)json"
      R"json("miss_gets":2,"miss_getx":1,"miss_upgrade":1,"recalls":2,)json"
      R"json("invals":1,"word_updates":2,"writebacks":0,"l2":{"hits":5,)json"
      R"json("misses":3,"evictions":0,"dirty_evictions":0,)json"
      R"json("invals_received":2,"word_updates":2},)json"
      R"json("mshr_residency_hist":{"count":4,"sum":3952,"min":228,)json"
      R"json("max":1572,"mean":988.0,"p50":831,"p90":1572,"p99":1572,)json"
      R"json("p999":1572}}},"sync":{"lock_acquire_hist":{"count":0,)json"
      R"json("sum":0,"min":0,"max":0,"mean":0.0,"p50":0,"p90":0,)json"
      R"json("p99":0,"p999":0},"barrier_episode_hist":{"count":8,)json"
      R"json("sum":27321,"min":2192,"max":7422,"mean":3415.125,)json"
      R"json("p50":2815,"p90":7422,"p99":7422,"p999":7422}}})json");
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
// 4 MB, a 4096-CPU one about 15 MB (Linux, Release); the stats registry
// holds one entry per subsystem stats struct, not one per counter.
TEST(Machine, ConstructionFootprintScalesWithTouchedState) {
#if !defined(AMO_TEST_READS_RSS)
  GTEST_SKIP() << "needs /proc/self/statm without sanitizer shadow memory";
#else
  expect_construction_below(1024, 8);
#endif
}

TEST(Machine, ConstructionFootprintAt4096Cpus) {
#if !defined(AMO_TEST_READS_RSS)
  GTEST_SKIP() << "needs /proc/self/statm without sanitizer shadow memory";
#else
  expect_construction_below(4096, 32);
#endif
}

}  // namespace
}  // namespace amo
