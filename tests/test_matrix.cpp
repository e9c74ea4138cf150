// Cross-feature interaction matrix: every protocol variant (three-hop
// forwarding, MSI mode, coarse limited-pointer directory, tiny caches,
// and all of them together) x every mechanism, against the core safety
// properties. Feature *combinations* are where protocol bugs hide.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/machine.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"
#include "sync/mechanism.hpp"

namespace amo {
namespace {

using sync::Mechanism;

enum class Variant : int {
  kBaseline = 0,
  kThreeHop,
  kMsi,
  kCoarseDir,
  kTinyCache,
  kEverything,  // all of the above at once
};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kBaseline: return "baseline";
    case Variant::kThreeHop: return "threehop";
    case Variant::kMsi: return "msi";
    case Variant::kCoarseDir: return "coarsedir";
    case Variant::kTinyCache: return "tinycache";
    case Variant::kEverything: return "everything";
  }
  return "?";
}

core::SystemConfig configure(Variant v, std::uint32_t cpus) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  const bool all = v == Variant::kEverything;
  if (all || v == Variant::kThreeHop) cfg.dir.three_hop = true;
  if (all || v == Variant::kMsi) cfg.dir.grant_exclusive_clean = false;
  if (all || v == Variant::kCoarseDir) cfg.dir.sharer_pointer_limit = 2;
  if (all || v == Variant::kTinyCache) {
    cfg.cache.l2 = mem::CacheGeometry{2 * 2 * 128, 2, 128};
    cfg.cache.l1 = mem::CacheGeometry{2 * 128, 1, 128};
  }
  return cfg;
}

class FeatureMatrix
    : public ::testing::TestWithParam<std::tuple<Mechanism, Variant>> {};

std::string matrix_name(
    const ::testing::TestParamInfo<std::tuple<Mechanism, Variant>>& info) {
  const char* mechs[] = {"LlSc", "Atomic", "ActMsg", "Mao", "Amo"};
  return std::string(mechs[static_cast<int>(std::get<0>(info.param))]) +
         "_" + variant_name(std::get<1>(info.param));
}

TEST_P(FeatureMatrix, BarrierSafetyAndConservation) {
  const auto [mech, variant] = GetParam();
  constexpr std::uint32_t kCpus = 8;
  core::Machine m(configure(variant, kCpus));
  auto barrier = sync::make_central_barrier(m, mech, kCpus);
  const sim::Addr counter = m.galloc().alloc_word_line(1);

  std::vector<int> arrived(kCpus, 0);
  int violations = 0;
  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&, c, mech = mech](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 1; ep <= 4; ++ep) {
        co_await t.compute(t.rng().below(400));
        (void)co_await sync::rmw(mech, t, amu::AmoOpcode::kFetchAdd, counter,
                                 1);
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
  EXPECT_EQ(m.peek_word(counter), kCpus * 4u);
  m.check_coherence();
}

TEST_P(FeatureMatrix, LockMutualExclusion) {
  const auto [mech, variant] = GetParam();
  constexpr std::uint32_t kCpus = 8;
  core::Machine m(configure(variant, kCpus));
  auto lock = sync::make_ticket_lock(m, mech);
  const sim::Addr shared = m.galloc().alloc_word_line(2);
  bool in_cs = false;
  int overlap = 0;
  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 4; ++i) {
        co_await t.compute(t.rng().below(300));
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
  EXPECT_EQ(m.peek_word(shared), kCpus * 4u);
  m.check_coherence();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FeatureMatrix,
    ::testing::Combine(::testing::Values(Mechanism::kLlSc, Mechanism::kAtomic,
                                         Mechanism::kActMsg, Mechanism::kMao,
                                         Mechanism::kAmo),
                       ::testing::Values(Variant::kBaseline,
                                         Variant::kThreeHop, Variant::kMsi,
                                         Variant::kCoarseDir,
                                         Variant::kTinyCache,
                                         Variant::kEverything)),
    matrix_name);

}  // namespace
}  // namespace amo
