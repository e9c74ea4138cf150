// The frameless leaf ops: CacheCtrl::LoadAwaiter, Core::AmoAwaiter and
// sync::WordWrite.
//
// Two kinds of test. The pins run small fixed programs, with histograms
// off and on, and compare the engine's executed-event count and final
// cycle with recorded values: a change that adds, drops or moves one
// event anywhere on the barrier, lock or leaf-op path fails here, in
// seconds, instead of only in a regenerated results table. The edge
// cases drive each path of the load and AMO awaiters: an L1 hit, an L1
// miss that hits L2, a miss joining a sibling context's MSHR, an
// invalidation landing inside the L1 window, LL/SC on top of the load,
// and AMO/MAO with and without a test value.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"

namespace amo {
namespace {

using sync::Mechanism;

struct Pin {
  std::uint64_t events;
  sim::Cycle now;
};

void expect_pin(core::Machine& m, const Pin& pin) {
  EXPECT_EQ(m.engine().events_executed(), pin.events);
  EXPECT_EQ(m.engine().now(), pin.now);
}

// Cpus 0..participants-1 (all of them by default) run `episodes`
// barrier episodes, each after a random compute phase (the per-cpu RNG
// is seeded, so the run is fixed).
void run_barrier(core::Machine& m, sync::Barrier& barrier, int episodes,
                 std::uint32_t participants = 0) {
  if (participants == 0) participants = m.num_cpus();
  for (sim::CpuId c = 0; c < participants; ++c) {
    m.spawn(c, [&, episodes](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 0; ep < episodes; ++ep) {
        co_await t.compute(t.rng().below(400));
        co_await barrier.wait(t);
      }
    });
  }
  m.run();
  m.check_coherence();
}

// Every cpu makes `passages` lock passages around a short critical
// section that bumps a plain coherent word.
void run_lock(core::Machine& m, sync::Lock& lock, int passages) {
  const sim::Addr shared = m.galloc().alloc_word_line(0);
  for (sim::CpuId c = 0; c < m.num_cpus(); ++c) {
    m.spawn(c, [&, passages](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < passages; ++i) {
        co_await t.compute(t.rng().below(200));
        co_await lock.acquire(t);
        const std::uint64_t v = co_await t.load(shared);
        co_await t.store(shared, v + 1);
        co_await lock.release(t);
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(shared),
            static_cast<std::uint64_t>(m.num_cpus()) * passages);
  m.check_coherence();
}

core::SystemConfig cfg_with(std::uint32_t cpus, std::uint32_t per_node = 2) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  cfg.cpus_per_node = per_node;
  return cfg;
}

// Runs `body` on a fresh machine built from `cfg` twice, with histograms
// off and on, and checks the pin after each run: recording the lock and
// barrier latencies must add, drop or move no event.
template <typename Body>
void pin(core::SystemConfig cfg, const Pin& expected, Body body) {
  for (const bool histograms : {false, true}) {
    SCOPED_TRACE(histograms ? "histograms on" : "histograms off");
    cfg.stats.histograms = histograms;
    core::Machine m(cfg);
    body(m);
    expect_pin(m, expected);
  }
}

// ------------------------------------------------------------- pins
//
// {events executed, final cycle}, recorded at the parent of the
// frameless-awaiter change (a017e6a); the central, ragged-tree and
// partial-cluster pins at the parent of the combining-barrier merge
// (bda9ce9); the ActMsg pins while replies still went through
// promises and a timeout watcher (83ce3f5); the TAS, CNA, HMCS, naive,
// dissemination, MCS-tree and zero-overhead pins while each algorithm
// still paid its own software overhead (adce483).

TEST(EventPin, AmoTreeBarrier) {
  pin(cfg_with(32), {2099, 25421}, [](core::Machine& m) {
    auto barrier = sync::make_tree_barrier(m, Mechanism::kAmo, 32, 4);
    run_barrier(m, *barrier, 4);
  });
}

TEST(EventPin, AmoClusterBarrierWithAmuAggregation) {
  pin(cfg_with(64, 4), {3607, 17786}, [](core::Machine& m) {
    auto barrier = sync::make_cluster_barrier(m, Mechanism::kAmo, 64, 2,
                                              /*amu_aggregation=*/true);
    run_barrier(m, *barrier, 4);
  });
}

TEST(EventPin, AmoClusterBarrierSoftwareCombining) {
  pin(cfg_with(64, 4), {4379, 34456}, [](core::Machine& m) {
    auto barrier = sync::make_cluster_barrier(m, Mechanism::kAmo, 64, 2,
                                              /*amu_aggregation=*/false);
    run_barrier(m, *barrier, 4);
  });
}

TEST(EventPin, LlScClusterBarrierSoftwareCombining) {
  pin(cfg_with(64, 4), {9729, 81903}, [](core::Machine& m) {
    auto barrier = sync::make_cluster_barrier(m, Mechanism::kLlSc, 64, 2,
                                              /*amu_aggregation=*/false);
    run_barrier(m, *barrier, 3);
  });
}

TEST(EventPin, LlScCentralBarrier) {
  pin(cfg_with(16), {2073, 66517}, [](core::Machine& m) {
    auto barrier = sync::make_central_barrier(m, Mechanism::kLlSc, 16);
    run_barrier(m, *barrier, 3);
  });
}

TEST(EventPin, AmoCentralBarrier) {
  pin(cfg_with(16), {768, 14288}, [](core::Machine& m) {
    auto barrier = sync::make_central_barrier(m, Mechanism::kAmo, 16);
    run_barrier(m, *barrier, 4);
  });
}

// 12 cpus in groups of 5: the last leaf group holds only 2.
TEST(EventPin, AtomicTreeBarrierRaggedGroup) {
  pin(cfg_with(12), {1266, 36300}, [](core::Machine& m) {
    auto barrier = sync::make_tree_barrier(m, Mechanism::kAtomic, 12, 5);
    run_barrier(m, *barrier, 3);
  });
}

// 40 of 64 cpus take part: 10 of the 16 nodes, so the upper tiers' last
// groups are partial.
TEST(EventPin, AmoClusterBarrierWithAmuAggregationPartial) {
  pin(cfg_with(64, 4), {2270, 16845}, [](core::Machine& m) {
    auto barrier = sync::make_cluster_barrier(m, Mechanism::kAmo, 40, 2,
                                              /*amu_aggregation=*/true);
    run_barrier(m, *barrier, 4, 40);
  });
}

// Fig. 3(a) under LL/SC: every arrival fights the spinners for the line.
TEST(EventPin, LlScNaiveBarrier) {
  pin(cfg_with(16), {2045, 64264}, [](core::Machine& m) {
    auto barrier = sync::make_naive_barrier(m, Mechanism::kLlSc, 16);
    run_barrier(m, *barrier, 3);
  });
}

// 12 cpus: four rounds, the last one wrapping past the end.
TEST(EventPin, AtomicDisseminationBarrier) {
  pin(cfg_with(12), {2945, 26525}, [](core::Machine& m) {
    auto barrier = sync::make_dissemination_barrier(m, Mechanism::kAtomic, 12);
    run_barrier(m, *barrier, 3);
  });
}

TEST(EventPin, AmoMcsTreeBarrier) {
  pin(cfg_with(16), {1305, 19715}, [](core::Machine& m) {
    auto barrier = sync::make_mcs_tree_barrier(m, Mechanism::kAmo, 16);
    run_barrier(m, *barrier, 3);
  });
}

TEST(EventPin, MaoTicketLock) {
  pin(cfg_with(8), {5833, 208018}, [](core::Machine& m) {
    auto lock = sync::make_ticket_lock(m, Mechanism::kMao);
    run_lock(m, *lock, 4);
  });
}

// With no software overhead a passage computes nothing around the lock:
// the zero-cycle half is skipped, not scheduled as an empty delay.
TEST(EventPin, AmoTicketLockWithoutSoftwareOverhead) {
  core::SystemConfig cfg = cfg_with(8);
  cfg.lock_sw_overhead = 0;
  pin(cfg, {1580, 91479}, [](core::Machine& m) {
    auto lock = sync::make_ticket_lock(m, Mechanism::kAmo);
    run_lock(m, *lock, 4);
  });
}

TEST(EventPin, ActMsgCentralBarrier) {
  pin(cfg_with(16), {1350, 54272}, [](core::Machine& m) {
    auto barrier = sync::make_central_barrier(m, Mechanism::kActMsg, 16);
    run_barrier(m, *barrier, 3);
  });
}

// A timeout below the handler's service time under contention: clients
// retransmit, the server sees duplicates while a request is in flight
// and replays cached replies after it completed.
TEST(EventPin, ActMsgTicketLockWithRetransmits) {
  core::SystemConfig cfg = cfg_with(8);
  cfg.am_timeout_cycles = 1000;
  pin(cfg, {4671, 168297}, [](core::Machine& m) {
    auto lock = sync::make_ticket_lock(m, Mechanism::kActMsg);
    run_lock(m, *lock, 4);
    std::uint64_t retransmits = 0, duplicates = 0, replays = 0;
    for (sim::CpuId c = 0; c < m.num_cpus(); ++c) {
      retransmits += m.core(c).stats().am_retransmits;
    }
    for (sim::NodeId n = 0; n < m.num_nodes(); ++n) {
      duplicates += m.am_server(n).stats().duplicates;
      replays += m.am_server(n).stats().replays;
    }
    EXPECT_GT(retransmits, 0u);
    EXPECT_GT(duplicates, 0u);
    EXPECT_GT(replays, 0u);
  });
}

TEST(EventPin, AmoArrayLock) {
  pin(cfg_with(8), {1544, 123216}, [](core::Machine& m) {
    auto lock = sync::make_array_lock(m, Mechanism::kAmo, 8);
    run_lock(m, *lock, 4);
  });
}

TEST(EventPin, AtomicMcsLock) {
  pin(cfg_with(8), {3007, 143500}, [](core::Machine& m) {
    auto lock = sync::make_mcs_lock(m, Mechanism::kAtomic);
    run_lock(m, *lock, 4);
  });
}

TEST(EventPin, LlScTasLock) {
  pin(cfg_with(8), {3511, 169307}, [](core::Machine& m) {
    auto lock = sync::make_tas_lock(m, Mechanism::kLlSc);
    run_lock(m, *lock, 4);
  });
}

// 16 cpus on four nodes of four, each node a cluster (level 0); a
// threshold of 2 makes the releaser park remote waiters and splice them
// back within the run.
TEST(EventPin, AmoCnaLock) {
  pin(cfg_with(16, 4), {7567, 573246}, [](core::Machine& m) {
    auto lock = sync::make_cna_lock(m, Mechanism::kAmo, 0, 2);
    run_lock(m, *lock, 4);
  });
}

// 16 cpus on four nodes of four; a threshold of 2 ends tier-0 streaks
// within the run, so the parent tiers change hands too.
TEST(EventPin, AmoHmcsLock) {
  pin(cfg_with(16, 4), {6696, 234090}, [](core::Machine& m) {
    auto lock = sync::make_hmcs_lock(m, Mechanism::kAmo, 1, 2);
    run_lock(m, *lock, 4);
  });
}

// Cold misses to lines homed near and far, L1 hits on the same lines, a
// conflict that pushes a line out of L1 but not L2, and a re-read after
// another cpu's store invalidated the copy.
TEST(EventPin, LoadSequenceWithL1Misses) {
  const core::SystemConfig cfg = cfg_with(16);
  pin(cfg, {68, 45664}, [&cfg](core::Machine& m) {
    const std::uint32_t l1_period =
        cfg.cache.l1.num_sets() * cfg.cache.l1.line_bytes;
    const sim::Addr conflict = m.galloc().alloc(1, 3 * l1_period, l1_period);
    const sim::Addr far = m.galloc().alloc_word_line(7);
    const sim::Addr shared = m.galloc().alloc_word_line(3);
    std::uint64_t sum = 0;
    m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 3; ++i) {
          const std::uint64_t v = co_await t.load(conflict + i * l1_period);
          sum += v;
        }
        const std::uint64_t v_far = co_await t.load(far);
        const std::uint64_t v_shared = co_await t.load(shared);
        sum += v_far + v_shared;
      }
      co_await t.delay(40000);
      const std::uint64_t v = co_await t.load(shared);
      sum += v;
    });
    m.spawn(5, [&](core::ThreadCtx& t) -> sim::Task<void> {
      co_await t.delay(20000);
      co_await t.store(shared, 7);
    });
    m.run();
    EXPECT_EQ(sum, 7u);
    m.check_coherence();
  });
}

// ------------------------------------------------------- edge cases

// An awaiter issues its op when awaited, not when created.
TEST(LeafAwaiter, IssuesWhenAwaited) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  const cpu::CoreStats& core = m.core(0).stats();
  const coh::CacheCtrlStats& cache = m.core(0).cache().stats();
  std::uint64_t amo_before = 1;
  std::uint64_t loads_before = 1;
  std::uint64_t old = 9;
  std::uint64_t word = 9;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    auto op = t.amo_fetch_add(a, 5);
    auto load = t.load(a);
    amo_before = core.amo_ops;
    loads_before = cache.loads;
    old = co_await op;
    word = co_await load;
  });
  m.run();
  EXPECT_EQ(amo_before, 0u);
  EXPECT_EQ(loads_before, 0u);
  EXPECT_EQ(old, 0u);
  EXPECT_EQ(word, 5u);
  EXPECT_EQ(core.amo_ops, 1u);
  EXPECT_EQ(cache.loads, 1u);
}

// A hit resumes the caller l1_cycles after the load; a line pushed out of
// L1 by two conflicting fills, but still in L2, costs l1 + l2 cycles and
// sends no request.
TEST(LoadAwaiter, L1HitAndL1MissThatHitsL2) {
  core::SystemConfig cfg = cfg_with(4);
  core::Machine m(cfg);
  const std::uint32_t l1_period =
      cfg.cache.l1.num_sets() * cfg.cache.l1.line_bytes;
  ASSERT_EQ(cfg.cache.l1.ways, 2u);
  const sim::Addr base = m.galloc().alloc(1, 3 * l1_period, l1_period);
  for (int i = 0; i < 3; ++i) {
    m.backing().write_word(base + i * l1_period, 10 + i);
  }
  const coh::CacheCtrlStats& st = m.core(0).cache().stats();
  sim::Cycle hit = 0;
  sim::Cycle l2_hit = 0;
  std::uint64_t got_hit = 0;
  std::uint64_t got_l2 = 0;
  std::uint64_t gets_before = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load(base);
    sim::Cycle t0 = t.now();
    got_hit = co_await t.load(base);
    hit = t.now() - t0;
    // Two more lines in the same two-way L1 set evict `base` from L1
    // only: the L2 set index differs.
    (void)co_await t.load(base + l1_period);
    (void)co_await t.load(base + 2 * l1_period);
    gets_before = st.miss_gets;
    t0 = t.now();
    got_l2 = co_await t.load(base);
    l2_hit = t.now() - t0;
  });
  m.run();
  EXPECT_EQ(got_hit, 10u);
  EXPECT_EQ(got_l2, 10u);
  EXPECT_EQ(hit, cfg.cache.l1_cycles);
  EXPECT_EQ(l2_hit, cfg.cache.l1_cycles + cfg.cache.l2_cycles);
  EXPECT_EQ(st.miss_gets, gets_before);
  EXPECT_EQ(st.miss_gets, 3u);
  EXPECT_EQ(st.loads, 5u);
  m.check_coherence();
}

// Two contexts on one core miss on two words of one cold line: the
// second joins the first's MSHR, one GetS leaves, and both resume in the
// same cycle with their own word.
TEST(LoadAwaiter, MissJoinsSiblingMshr) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.backing().write_word(a, 21);
  m.backing().write_word(a + 8, 22);
  std::uint64_t got[2] = {0, 0};
  sim::Cycle done[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    m.spawn(0, [&, i](core::ThreadCtx& t) -> sim::Task<void> {
      got[i] = co_await t.load(a + 8 * i);
      done[i] = t.now();
    });
  }
  m.run();
  EXPECT_EQ(got[0], 21u);
  EXPECT_EQ(got[1], 22u);
  EXPECT_EQ(done[0], done[1]);
  EXPECT_EQ(m.core(0).cache().stats().miss_gets, 1u);
  EXPECT_EQ(m.core(0).cache().stats().loads, 2u);
  m.check_coherence();
}

// cpu0 and cpu1 share a line; cpu1's store sends cpu0 an invalidation.
// Returns the cycle it lands, run on a machine that does nothing else.
sim::Cycle inval_arrival(std::uint64_t& start) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  for (sim::CpuId c : {0u, 2u}) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.load(a);
    });
  }
  m.run();
  start = m.engine().now();
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.store(a, 99);
  });
  const coh::CacheCtrlStats& st = m.core(0).cache().stats();
  while (st.invals == 0 && m.engine().step()) {
  }
  EXPECT_EQ(st.invals, 1u);
  return m.engine().now();
}

// The same run, plus a load on cpu0 issued `lead` cycles before the
// invalidation lands. Returns {value, latency, new GetS sent}.
struct RacedLoad {
  std::uint64_t value;
  sim::Cycle latency;
  std::uint64_t new_gets;
};
RacedLoad load_raced_with_inval(sim::Cycle lead) {
  std::uint64_t start = 0;
  const sim::Cycle inval = inval_arrival(start);
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.backing().write_word(a, 5);
  for (sim::CpuId c : {0u, 2u}) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.load(a);
    });
  }
  m.run();
  EXPECT_EQ(m.engine().now(), start);
  const std::uint64_t gets = m.core(0).cache().stats().miss_gets;
  RacedLoad r{0, 0, 0};
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.store(a, 99);
  });
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.delay(inval - lead - t.now());
    const sim::Cycle t0 = t.now();
    r.value = co_await t.load(a);
    r.latency = t.now() - t0;
  });
  m.run();
  r.new_gets = m.core(0).cache().stats().miss_gets - gets;
  m.check_coherence();
  return r;
}

// An invalidation that lands between a load's issue and its L1 probe
// sends the load down the miss path, which fetches the new value; one
// that lands after the probe leaves the load an L1 hit on the old value.
TEST(LoadAwaiter, InvalidationInsideL1Window) {
  const sim::Cycle l1 = core::SystemConfig{}.cache.l1_cycles;
  ASSERT_EQ(l1, 2u);
  const RacedLoad inside = load_raced_with_inval(1);
  EXPECT_EQ(inside.value, 99u);
  EXPECT_GT(inside.latency, l1 + core::SystemConfig{}.cache.l2_cycles);
  EXPECT_EQ(inside.new_gets, 1u);

  const RacedLoad before = load_raced_with_inval(l1 + 1);
  EXPECT_EQ(before.value, 5u);
  EXPECT_EQ(before.latency, l1);
  EXPECT_EQ(before.new_gets, 0u);
}

// LL takes the load awaiter's miss path on a cold line and its hit path
// on a warm one; the link it arms lets the SC commit either way.
TEST(LoadAwaiter, LoadLinkedStoreConditionalColdAndWarm) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.backing().write_word(a, 3);
  const coh::CacheCtrlStats& st = m.core(0).cache().stats();
  bool sc[2] = {false, false};
  std::uint64_t ll[2] = {0, 0};
  std::uint64_t gets_after_cold = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      ll[i] = co_await t.load_linked(a);
      if (i == 0) gets_after_cold = st.miss_gets;
      sc[i] = co_await t.store_conditional(a, ll[i] + 1);
    }
  });
  m.run();
  EXPECT_EQ(ll[0], 3u);
  EXPECT_EQ(ll[1], 4u);
  EXPECT_TRUE(sc[0]);
  EXPECT_TRUE(sc[1]);
  EXPECT_EQ(gets_after_cold, 1u);
  EXPECT_EQ(st.ll, 2u);
  EXPECT_EQ(st.sc_success, 2u);
  EXPECT_EQ(st.sc_fail, 0u);
  EXPECT_EQ(m.peek_word(a), 5u);
  m.check_coherence();
}

// AMOs with a test value put only when the result reaches it; without
// one every op puts. A sharer's cached copy sees the put in place.
TEST(AmoAwaiter, WithAndWithoutTestValue) {
  core::Machine m(cfg_with(4));
  const sim::Addr tested = m.galloc().alloc_word_line(1);
  const sim::Addr eager = m.galloc().alloc_word_line(1);
  const amu::AmuStats& amu = m.amu(1).stats();
  std::vector<std::uint64_t> olds;
  std::uint64_t puts_tested = 0;
  std::uint64_t seen = 0;
  std::uint64_t gets_before = 0;
  std::uint64_t gets_after = 0;
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load(tested);  // a sharer to receive the put
    co_await t.delay(4000);
    gets_before = t.core().cache().stats().miss_gets;
    seen = co_await t.load(tested);
    gets_after = t.core().cache().stats().miss_gets;
  });
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.delay(500);
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t old = co_await t.amo_inc(tested, 3);
      olds.push_back(old);
    }
    puts_tested = amu.puts;
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t old = co_await t.amo_fetch_add(eager, 10);
      olds.push_back(old);
    }
    const std::uint64_t cas_old =
        co_await t.amo(amu::AmoOpcode::kCas, eager, 20, {}, 7);
    olds.push_back(cas_old);
  });
  m.run();
  EXPECT_EQ(olds, (std::vector<std::uint64_t>{0, 1, 2, 0, 10, 20}));
  EXPECT_EQ(puts_tested, 1u);
  EXPECT_EQ(amu.puts, 4u);
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(gets_after, gets_before);  // patched in place, no re-fetch
  EXPECT_EQ(m.core(0).stats().amo_ops, 6u);
  EXPECT_EQ(amu.amo_ops, 6u);
  EXPECT_EQ(m.peek_word(eager), 7u);
  m.check_coherence();
}

// MAOs run on the same datapath outside coherence: no puts, and the
// result is visible to uncached reads. A MAO takes no test value.
TEST(AmoAwaiter, MaoOutsideCoherence) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  const amu::AmuStats& amu = m.amu(1).stats();
  std::vector<std::uint64_t> olds;
  std::uint64_t read = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t old = co_await t.mao_inc(a);
      olds.push_back(old);
    }
    const std::uint64_t fa = co_await t.mao_fetch_add(a, 5);
    olds.push_back(fa);
    const std::uint64_t cas =
        co_await t.core().mao(amu::AmoOpcode::kCas, a, 7, 1);
    olds.push_back(cas);
    read = co_await t.uncached_load(a);
  });
  m.run();
  EXPECT_EQ(olds, (std::vector<std::uint64_t>{0, 1, 2, 7}));
  EXPECT_EQ(read, 1u);
  EXPECT_EQ(amu.mao_ops, 4u);
  EXPECT_EQ(amu.amo_ops, 0u);
  EXPECT_EQ(amu.puts, 0u);
  EXPECT_EQ(m.core(0).stats().mao_ops, 4u);
  EXPECT_EQ(m.core(0).stats().amo_ops, 0u);
}

}  // namespace
}  // namespace amo
