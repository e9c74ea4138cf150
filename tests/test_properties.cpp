// Property-based tests: randomized workloads checked against invariants
// rather than fixed expectations, swept over mechanisms, machine sizes,
// and seeds (TEST_P).
//
// Properties:
//   P1  atomic-increment conservation: mixing *atomic* mechanisms on a
//       counter never loses updates
//   P2  coherence invariants hold at quiescence after random sharing
//   P3  identical seeds give identical cycle counts (determinism)
//   P4  network per-(src,dst) FIFO under random traffic
//   P5  the coherent view (peek) equals a sequential oracle when every
//       write is an atomic RMW
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/machine.hpp"
#include "net/network.hpp"
#include "sync/mechanism.hpp"

namespace amo {
namespace {

using sync::Mechanism;

std::string mech_tag(Mechanism m) {
  switch (m) {
    case Mechanism::kLlSc: return "LlSc";
    case Mechanism::kAtomic: return "Atomic";
    case Mechanism::kActMsg: return "ActMsg";
    case Mechanism::kMao: return "Mao";
    case Mechanism::kAmo: return "Amo";
  }
  return "?";
}

// ----------------------------------------------------------- P1 + P2 + P5

class IncrementConservation
    : public ::testing::TestWithParam<std::tuple<Mechanism, int, int>> {};

std::string conservation_name(
    const ::testing::TestParamInfo<std::tuple<Mechanism, int, int>>& info) {
  return mech_tag(std::get<0>(info.param)) + "_p" +
         std::to_string(std::get<1>(info.param)) + "_seed" +
         std::to_string(std::get<2>(info.param));
}

TEST_P(IncrementConservation, NoLostUpdates) {
  const auto [mech, cpus, seed] = GetParam();
  constexpr int kVars = 3;
  constexpr int kOpsPerThread = 12;

  core::SystemConfig cfg;
  cfg.num_cpus = static_cast<std::uint32_t>(cpus);
  cfg.seed = static_cast<std::uint64_t>(seed);
  core::Machine m(cfg);

  std::vector<sim::Addr> vars;
  for (int v = 0; v < kVars; ++v) {
    vars.push_back(m.galloc().alloc_word_line(
        static_cast<sim::NodeId>(v % m.num_nodes())));
  }
  std::vector<std::uint64_t> oracle(kVars, 0);

  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, mech = mech](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::size_t v = t.rng().below(kVars);
        const std::uint64_t delta = 1 + t.rng().below(4);
        oracle[v] += delta;  // host-side oracle (order-independent sum)
        (void)co_await sync::rmw(mech, t, amu::AmoOpcode::kFetchAdd, vars[v],
                                 delta);
        if (t.rng().below(4) == 0) {
          // Interleave reads to shake the sharer lists. MAO variables
          // must never be cached (the mechanism's contract), so the MAO
          // sweep reads uncached.
          const sim::Addr raddr = vars[t.rng().below(kVars)];
          if (mech == Mechanism::kMao) {
            (void)co_await t.uncached_load(raddr);
          } else {
            (void)co_await t.load(raddr);
          }
        }
        co_await t.compute(t.rng().below(150));
      }
    });
  }
  m.run();
  for (int v = 0; v < kVars; ++v) {
    EXPECT_EQ(m.peek_word(vars[v]), oracle[v]) << "var " << v;  // P1, P5
  }
  m.check_coherence();  // P2
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementConservation,
    ::testing::Combine(::testing::Values(Mechanism::kLlSc, Mechanism::kAtomic,
                                         Mechanism::kActMsg, Mechanism::kMao,
                                         Mechanism::kAmo),
                       ::testing::Values(4, 8, 16),
                       ::testing::Values(1, 2, 3)),
    conservation_name);

// A mixed-mechanism stress: different threads use different *coherent*
// atomic mechanisms on the same variable. (MAO is excluded by contract:
// it does not cooperate with cached access.)
TEST(MixedMechanisms, CoherentAtomicsInteroperate) {
  constexpr std::uint32_t kCpus = 8;
  core::SystemConfig cfg;
  cfg.num_cpus = kCpus;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(0);
  const Mechanism rotation[] = {Mechanism::kLlSc, Mechanism::kAtomic,
                                Mechanism::kActMsg, Mechanism::kAmo};
  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&, mech = rotation[c % 4]](
                   core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 10; ++i) {
        (void)co_await sync::rmw(mech, t, amu::AmoOpcode::kFetchAdd, a, 1);
        co_await t.compute(t.rng().below(100));
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(a), kCpus * 10u);
  m.check_coherence();
}

// -------------------------------------------------------------------- P3

class Determinism : public ::testing::TestWithParam<Mechanism> {};

TEST_P(Determinism, SameSeedSameCycles) {
  const Mechanism mech = GetParam();
  auto run = [mech] {
    core::SystemConfig cfg;
    cfg.num_cpus = 8;
    cfg.seed = 99;
    core::Machine m(cfg);
    const sim::Addr a = m.galloc().alloc_word_line(1);
    for (sim::CpuId c = 0; c < 8; ++c) {
      m.spawn(c, [&, mech](core::ThreadCtx& t) -> sim::Task<void> {
        for (int i = 0; i < 6; ++i) {
          co_await t.compute(t.rng().below(200));
          (void)co_await sync::rmw(mech, t, amu::AmoOpcode::kFetchAdd, a, 1);
        }
      });
    }
    m.run();
    return std::make_pair(m.engine().now(), m.network().stats().packets);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, Determinism,
                         ::testing::Values(Mechanism::kLlSc,
                                           Mechanism::kAtomic,
                                           Mechanism::kActMsg,
                                           Mechanism::kMao, Mechanism::kAmo),
                         [](const ::testing::TestParamInfo<Mechanism>& i) {
                           return mech_tag(i.param);
                         });

// -------------------------------------------------------------------- P4

TEST(NetworkProperty, PerPairFifoUnderRandomTraffic) {
  sim::Engine engine;
  net::NetConfig cfg;
  cfg.num_nodes = 16;
  net::Network n(engine, cfg);
  sim::Rng rng(1234);

  // seq[s][d]: next expected sequence number at the destination.
  std::vector<std::vector<std::uint64_t>> next_expected(
      16, std::vector<std::uint64_t>(16, 0));
  std::vector<std::vector<std::uint64_t>> next_sent(
      16, std::vector<std::uint64_t>(16, 0));
  int violations = 0;

  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<sim::NodeId>(rng.below(16));
    auto d = static_cast<sim::NodeId>(rng.below(16));
    if (d == s) d = (d + 1) % 16;
    const std::uint32_t size = 32 + 8 * static_cast<std::uint32_t>(
                                        rng.below(17));
    engine.schedule(rng.below(2000), [&, s, d, size] {
      // FIFO is promised in *injection* order: stamp the sequence here.
      const std::uint64_t seq = next_sent[s][d]++;
      n.send(net::Packet{s, d, net::MsgClass::kRequest, size, [&, s, d, seq] {
                           if (next_expected[s][d] != seq) ++violations;
                           ++next_expected[s][d];
                         }});
    });
  }
  engine.run();
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(n.stats().packets, 500u);
}

}  // namespace
}  // namespace amo
