// Stress tests under artificial cache pressure: a tiny L2 forces constant
// conflict evictions, so putback/recall crossings, stale-putback drops,
// AMU merges and word-update drops all happen continuously. Swept over
// both protocol modes and several seeds.
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

core::SystemConfig tiny_cache_cfg(std::uint32_t cpus, bool three_hop,
                                  std::uint64_t seed) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  cfg.seed = seed;
  cfg.dir.three_hop = three_hop;
  // 2 sets x 2 ways x 128B: almost everything conflicts.
  cfg.cache.l2 = mem::CacheGeometry{2 * 2 * 128, 2, 128};
  cfg.cache.l1 = mem::CacheGeometry{2 * 128, 1, 128};
  return cfg;
}

class EvictionStress
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

std::string stress_name(
    const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
  return std::string(std::get<0>(info.param) ? "threehop" : "homecentric") +
         "_seed" + std::to_string(std::get<1>(info.param));
}

TEST_P(EvictionStress, AtomicsSurviveConstantEvictions) {
  const auto [three_hop, seed] = GetParam();
  constexpr std::uint32_t kCpus = 8;
  constexpr int kVars = 12;  // far more blocks than the cache holds
  core::Machine m(tiny_cache_cfg(kCpus, three_hop, seed));

  std::vector<sim::Addr> vars;
  for (int v = 0; v < kVars; ++v) {
    vars.push_back(m.galloc().alloc_word_line(
        static_cast<sim::NodeId>(v % m.num_nodes())));
  }
  std::vector<std::uint64_t> oracle(kVars, 0);

  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 25; ++i) {
        const std::size_t v = t.rng().below(kVars);
        switch (t.rng().below(4)) {
          case 0: {
            oracle[v] += 1;
            for (;;) {
              const std::uint64_t x = co_await t.load_linked(vars[v]);
              if (co_await t.store_conditional(vars[v], x + 1)) break;
            }
            break;
          }
          case 1:
            oracle[v] += 2;
            (void)co_await t.atomic_fetch_add(vars[v], 2);
            break;
          case 2:
            oracle[v] += 3;
            (void)co_await t.amo_fetch_add(vars[v], 3);
            break;
          default:
            // Pure reads churn the sharer lists and evict other lines.
            (void)co_await t.load(vars[t.rng().below(kVars)]);
        }
      }
    });
  }
  m.run();
  for (int v = 0; v < kVars; ++v) {
    EXPECT_EQ(m.peek_word(vars[v]), oracle[v]) << "var " << v;
  }
  m.check_coherence();
  // The point of the tiny cache: conflict evictions (and thus putback /
  // recall crossings) really happened. Most lines die to invalidations
  // first, so the absolute counts stay modest.
  std::uint64_t evictions = 0;
  for (sim::CpuId c = 0; c < m.num_cpus(); ++c) {
    evictions += m.core(c).cache().l2().stats().evictions;
  }
  std::uint64_t putbacks = 0;
  for (sim::NodeId n = 0; n < m.num_nodes(); ++n) {
    putbacks += m.dir(n).stats().putbacks;
  }
  EXPECT_GT(evictions, 5u);
  EXPECT_GE(putbacks, 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EvictionStress,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(1, 2, 3, 4)),
                         stress_name);

TEST(EvictionStress, BarrierSafeUnderPressure) {
  constexpr std::uint32_t kCpus = 8;
  core::Machine m(tiny_cache_cfg(kCpus, false, 7));
  auto barrier = sync::make_central_barrier(m, Mechanism::kAmo, kCpus);
  // Extra traffic: each thread cycles through conflicting blocks.
  std::vector<sim::Addr> noise;
  for (int i = 0; i < 10; ++i) noise.push_back(m.galloc().alloc_word_line(0));

  std::vector<int> arrived(kCpus, 0);
  int violations = 0;
  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 1; ep <= 5; ++ep) {
        for (int k = 0; k < 4; ++k) {
          co_await t.store(noise[t.rng().below(noise.size())], ep);
        }
        arrived[c] = ep;
        co_await barrier->wait(t);
        for (sim::CpuId o = 0; o < kCpus; ++o) {
          if (arrived[o] < ep) ++violations;
        }
      }
    });
  }
  m.run();
  EXPECT_EQ(violations, 0);
  m.check_coherence();
}

TEST(EvictionStress, LockSafeUnderPressure) {
  constexpr std::uint32_t kCpus = 8;
  core::Machine m(tiny_cache_cfg(kCpus, true, 9));
  auto lock = sync::make_mcs_lock(m, Mechanism::kAtomic);
  const sim::Addr shared = m.galloc().alloc_word_line(1);
  std::vector<sim::Addr> noise;
  for (int i = 0; i < 8; ++i) noise.push_back(m.galloc().alloc_word_line(2));

  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 6; ++i) {
        co_await t.store(noise[t.rng().below(noise.size())], i);
        co_await lock->acquire(t);
        const std::uint64_t v = co_await t.load(shared);
        co_await t.compute(25);
        co_await t.store(shared, v + 1);
        co_await lock->release(t);
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(shared), kCpus * 6u);
  m.check_coherence();
}

}  // namespace
}  // namespace amo
