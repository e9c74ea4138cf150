// Three-hop forwarding mode: the same safety battery as the home-centric
// protocol — conservation, coherence invariants, barrier/lock safety —
// plus checks that forwarding actually happens and helps.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/machine.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"
#include "sync/mechanism.hpp"

namespace amo {
namespace {

using sync::Mechanism;

core::SystemConfig three_hop_cfg(std::uint32_t cpus) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  cfg.dir.three_hop = true;
  return cfg;
}

TEST(ThreeHop, OwnershipMigrationKeepsData) {
  core::Machine m(three_hop_cfg(8));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 8; ++i) {
        (void)co_await t.atomic_fetch_add(a, 1);
        co_await t.compute(t.rng().below(100));
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(a), 64u);
  m.check_coherence();
}

TEST(ThreeHop, ReadSharingAfterDirtyWrite) {
  core::Machine m(three_hop_cfg(8));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  std::uint32_t phase = 0;
  std::vector<std::uint64_t> seen;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.store(a, 42);  // dirty exclusive owner on a remote node
    phase = 1;
  });
  for (sim::CpuId c = 2; c < 8; c += 2) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      while (phase < 1) co_await t.delay(100);
      seen.push_back(co_await t.load(a));  // forwarded from the owner
    });
  }
  m.run();
  for (std::uint64_t v : seen) EXPECT_EQ(v, 42u);
  // The dirty data also reached memory via the revision message.
  EXPECT_EQ(m.backing().read_word(a), 42u);
  m.check_coherence();
}

TEST(ThreeHop, LlScStillAtomic) {
  core::Machine m(three_hop_cfg(8));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 6; ++i) {
        for (;;) {
          const std::uint64_t v = co_await t.load_linked(a);
          if (co_await t.store_conditional(a, v + 1)) break;
        }
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(a), 48u);
  m.check_coherence();
}

class ThreeHopConservation
    : public ::testing::TestWithParam<std::tuple<Mechanism, int>> {};

std::string th_name(
    const ::testing::TestParamInfo<std::tuple<Mechanism, int>>& info) {
  const char* names[] = {"LlSc", "Atomic", "ActMsg", "Mao", "Amo"};
  return std::string(
             names[static_cast<int>(std::get<0>(info.param))]) +
         "_p" + std::to_string(std::get<1>(info.param));
}

TEST_P(ThreeHopConservation, NoLostUpdates) {
  const auto [mech, cpus] = GetParam();
  core::Machine m(three_hop_cfg(static_cast<std::uint32_t>(cpus)));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  const sim::Addr b =
      m.galloc().alloc_word_line(m.num_nodes() - 1);
  std::uint64_t expect = 0;
  for (sim::CpuId c = 0; c < m.num_cpus(); ++c) {
    m.spawn(c, [&, mech = mech](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 10; ++i) {
        const sim::Addr target = t.rng().below(2) != 0u ? a : b;
        (void)co_await sync::rmw(mech, t, amu::AmoOpcode::kFetchAdd, target,
                                 1);
        ++expect;  // host-side total across both counters
        co_await t.compute(t.rng().below(120));
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(a) + m.peek_word(b), expect);
  m.check_coherence();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreeHopConservation,
    ::testing::Combine(::testing::Values(Mechanism::kLlSc, Mechanism::kAtomic,
                                         Mechanism::kActMsg, Mechanism::kMao,
                                         Mechanism::kAmo),
                       ::testing::Values(4, 8, 16)),
    th_name);

TEST(ThreeHop, BarrierAndLockSafety) {
  core::Machine m(three_hop_cfg(16));
  auto barrier = sync::make_central_barrier(m, Mechanism::kLlSc, 16);
  auto lock = sync::make_ticket_lock(m, Mechanism::kAtomic);
  const sim::Addr shared = m.galloc().alloc_word_line(3);
  std::vector<int> arrived(16, 0);
  int violations = 0;
  for (sim::CpuId c = 0; c < 16; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 1; ep <= 4; ++ep) {
        co_await lock->acquire(t);
        const std::uint64_t v = co_await t.load(shared);
        co_await t.compute(30);
        co_await t.store(shared, v + 1);
        co_await lock->release(t);
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
  EXPECT_EQ(m.peek_word(shared), 16u * 4u);
  m.check_coherence();
}

TEST(ThreeHop, CutsOwnershipMigrationLatency) {
  // A pure ownership ping-pong between two far-apart cpus: three-hop must
  // be measurably faster than home-centric.
  auto run = [](bool three_hop) {
    core::SystemConfig cfg;
    cfg.num_cpus = 16;  // variable homed on node 0; cpus 14,15 ping-pong
    cfg.dir.three_hop = three_hop;
    core::Machine m(cfg);
    const sim::Addr a = m.galloc().alloc_word_line(0);
    for (sim::CpuId c : {14u, 15u}) {
      m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
        for (int i = 0; i < 20; ++i) {
          (void)co_await t.atomic_fetch_add(a, 1);
        }
      });
    }
    m.run();
    return m.engine().now();
  };
  const sim::Cycle four_hop = run(false);
  const sim::Cycle three_hop = run(true);
  EXPECT_LT(three_hop, four_hop);
}

}  // namespace
}  // namespace amo
