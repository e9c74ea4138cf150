// Correctness of the extension algorithms: MCS and TAS locks, naive and
// dissemination barriers — same safety properties as the core suite.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/machine.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"

namespace amo {
namespace {

using sync::Mechanism;

std::string mech_name(Mechanism m) {
  switch (m) {
    case Mechanism::kLlSc: return "LlSc";
    case Mechanism::kAtomic: return "Atomic";
    case Mechanism::kActMsg: return "ActMsg";
    case Mechanism::kMao: return "Mao";
    case Mechanism::kAmo: return "Amo";
  }
  return "?";
}

enum class LockKind { kMcs, kTas };
enum class BarKind { kNaive, kDissemination, kMcsTree };

// ------------------------------------------------------- extension locks

class ExtraLockCorrectness
    : public ::testing::TestWithParam<std::tuple<Mechanism, int, LockKind>> {
};

std::string extra_lock_name(
    const ::testing::TestParamInfo<std::tuple<Mechanism, int, LockKind>>&
        info) {
  return mech_name(std::get<0>(info.param)) + "_p" +
         std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) == LockKind::kMcs ? "_mcs" : "_tas");
}

TEST_P(ExtraLockCorrectness, MutualExclusionNoLostUpdates) {
  const auto [mech, cpus, kind] = GetParam();
  constexpr int kIters = 5;

  core::SystemConfig cfg;
  cfg.num_cpus = static_cast<std::uint32_t>(cpus);
  core::Machine m(cfg);
  std::unique_ptr<sync::Lock> lock = kind == LockKind::kMcs
                                         ? sync::make_mcs_lock(m, mech)
                                         : sync::make_tas_lock(m, mech);

  const sim::Addr shared = m.galloc().alloc_word_line(m.num_nodes() - 1);
  bool in_cs = false;
  int overlap = 0;
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < kIters; ++i) {
        co_await t.compute(t.rng().below(400));
        co_await lock->acquire(t);
        if (in_cs) ++overlap;
        in_cs = true;
        const std::uint64_t v = co_await t.load(shared);
        co_await t.compute(40);
        co_await t.store(shared, v + 1);
        in_cs = false;
        co_await lock->release(t);
      }
    });
  }
  m.run();
  EXPECT_EQ(overlap, 0);
  EXPECT_EQ(m.peek_word(shared),
            static_cast<std::uint64_t>(cpus) * kIters);
  m.check_coherence();
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, ExtraLockCorrectness,
    ::testing::Combine(::testing::Values(Mechanism::kLlSc, Mechanism::kAtomic,
                                         Mechanism::kActMsg, Mechanism::kMao,
                                         Mechanism::kAmo),
                       ::testing::Values(2, 4, 8, 16),
                       ::testing::Values(LockKind::kMcs, LockKind::kTas)),
    extra_lock_name);

TEST(McsLock, HandoffIsFifoUnderStagger) {
  // Staggered arrivals: MCS grants must follow queue (arrival) order.
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  core::Machine m(cfg);
  auto lock = sync::make_mcs_lock(m, Mechanism::kAtomic);
  std::vector<sim::CpuId> grants;
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      co_await t.compute(5000ull * c);  // well-separated arrivals
      co_await lock->acquire(t);
      grants.push_back(c);
      co_await t.compute(20000);  // hold long enough that all queue up
      co_await lock->release(t);
    });
  }
  m.run();
  ASSERT_EQ(grants.size(), 8u);
  for (sim::CpuId c = 0; c < 8; ++c) EXPECT_EQ(grants[c], c);
}

// ----------------------------------------------------- extension barriers

class ExtraBarrierCorrectness
    : public ::testing::TestWithParam<std::tuple<Mechanism, int, BarKind>> {};

std::string extra_barrier_name(
    const ::testing::TestParamInfo<std::tuple<Mechanism, int, BarKind>>&
        info) {
  const char* kind = "";
  switch (std::get<2>(info.param)) {
    case BarKind::kNaive: kind = "_naive"; break;
    case BarKind::kDissemination: kind = "_dissem"; break;
    case BarKind::kMcsTree: kind = "_mcstree"; break;
  }
  return mech_name(std::get<0>(info.param)) + "_p" +
         std::to_string(std::get<1>(info.param)) + kind;
}

TEST_P(ExtraBarrierCorrectness, NoEarlyPassage) {
  const auto [mech, cpus, kind] = GetParam();
  constexpr int kEpisodes = 5;

  core::SystemConfig cfg;
  cfg.num_cpus = static_cast<std::uint32_t>(cpus);
  core::Machine m(cfg);
  std::unique_ptr<sync::Barrier> barrier;
  switch (kind) {
    case BarKind::kNaive:
      barrier = sync::make_naive_barrier(m, mech, cfg.num_cpus);
      break;
    case BarKind::kDissemination:
      barrier = sync::make_dissemination_barrier(m, mech, cfg.num_cpus);
      break;
    case BarKind::kMcsTree:
      barrier = sync::make_mcs_tree_barrier(m, mech, cfg.num_cpus);
      break;
  }

  std::vector<int> arrived(cfg.num_cpus, 0);
  int violations = 0;
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 1; ep <= kEpisodes; ++ep) {
        co_await t.compute(t.rng().below(600));
        arrived[c] = ep;
        co_await barrier->wait(t);
        for (sim::CpuId o = 0; o < cfg.num_cpus; ++o) {
          if (arrived[o] < ep) ++violations;
        }
      }
    });
  }
  m.run();
  EXPECT_EQ(violations, 0);
  m.check_coherence();
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, ExtraBarrierCorrectness,
    ::testing::Combine(::testing::Values(Mechanism::kLlSc, Mechanism::kAtomic,
                                         Mechanism::kActMsg, Mechanism::kMao,
                                         Mechanism::kAmo),
                       ::testing::Values(2, 3, 8, 16),  // 3: non-power-of-2
                       ::testing::Values(BarKind::kNaive,
                                         BarKind::kDissemination,
                                         BarKind::kMcsTree)),
    extra_barrier_name);

TEST(SwapCas, AllMechanismsRoundTrip) {
  for (Mechanism mech : sync::kAllMechanisms) {
    core::SystemConfig cfg;
    cfg.num_cpus = 4;
    core::Machine m(cfg);
    const sim::Addr a = m.galloc().alloc_word_line(1);
    std::vector<std::uint64_t> got;
    m.spawn(0, [&, mech](core::ThreadCtx& t) -> sim::Task<void> {
      using amu::AmoOpcode;
      got.push_back(co_await sync::rmw(mech, t, AmoOpcode::kSwap, a, 10));
      got.push_back(co_await sync::rmw(mech, t, AmoOpcode::kCas, a, 10, 20));
      got.push_back(co_await sync::rmw(mech, t, AmoOpcode::kCas, a, 10, 99));
      got.push_back(co_await sync::rmw(mech, t, AmoOpcode::kSwap, a, 0));
    });
    m.run();
    ASSERT_EQ(got.size(), 4u) << mech_name(mech);
    EXPECT_EQ(got[0], 0u) << mech_name(mech);
    EXPECT_EQ(got[1], 10u) << mech_name(mech);
    EXPECT_EQ(got[2], 20u) << mech_name(mech);  // CAS failed: unchanged
    EXPECT_EQ(got[3], 20u) << mech_name(mech);
    EXPECT_EQ(m.peek_word(a), 0u) << mech_name(mech);
  }
}

}  // namespace
}  // namespace amo
