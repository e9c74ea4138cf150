// Hierarchy-aware synchronization: topology membership queries, hier.*
// config validation, CNA/HMCS lock correctness, cluster-barrier
// correctness in both software and AMU-aggregation modes, the
// aggregation-vs-flat equivalence property over randomized topology
// shapes, per-level link accounting, and rerun byte-identity for every
// new mechanism.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/config_io.hpp"
#include "core/machine.hpp"
#include "net/topology.hpp"
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

// ------------------------------------------------- topology membership

TEST(TopologyMembership, AncestorMatchesRepeatedDivision) {
  for (const auto& [nodes, radix] : std::vector<std::pair<std::uint32_t,
                                                          std::uint32_t>>{
           {16u, 4u}, {64u, 4u}, {64u, 8u}, {7u, 2u}, {13u, 3u}, {1000u, 10u}}) {
    net::Topology topo(nodes, radix);
    for (sim::NodeId n = 0; n < nodes; ++n) {
      std::uint32_t expect = n;
      for (std::uint32_t l = 0; l <= topo.levels(); ++l) {
        EXPECT_EQ(topo.ancestor_of(n, l), expect)
            << nodes << "/" << radix << " node " << n << " level " << l;
        expect /= radix;
      }
    }
    // Every node maps to the single root entity at the top level.
    EXPECT_EQ(topo.ancestor_of(nodes - 1, topo.levels()), 0u);
  }
}

TEST(TopologyMembership, SubtreeRangesTileTheMachine) {
  net::Topology topo(13, 3);  // ragged: 13 nodes, radix 3, levels 3
  ASSERT_EQ(topo.levels(), 3u);
  for (std::uint32_t l = 0; l <= topo.levels(); ++l) {
    std::uint32_t covered = 0;
    const std::uint32_t entities = topo.ancestor_of(12, l) + 1;
    for (std::uint32_t e = 0; e < entities; ++e) {
      EXPECT_EQ(topo.subtree_first_node(l, e), covered);
      const std::uint32_t sz = topo.subtree_num_nodes(l, e);
      EXPECT_GE(sz, 1u);
      // Every node in the range maps back to entity e.
      for (std::uint32_t n = covered; n < covered + sz; ++n) {
        EXPECT_EQ(topo.ancestor_of(n, l), e);
      }
      covered += sz;
    }
    EXPECT_EQ(covered, 13u) << "level " << l;
  }
}

TEST(TopologyMembership, NumChildrenHandlesRaggedEdge) {
  net::Topology topo(13, 3);
  // Level-1 entities: ceil(13/3) = 5; the last holds just node 12.
  EXPECT_EQ(topo.num_children(1, 0), 3u);
  EXPECT_EQ(topo.num_children(1, 3), 3u);
  EXPECT_EQ(topo.num_children(1, 4), 1u);
  // Level-2 entities: ceil(5/3) = 2; the second spans entities 3..4.
  EXPECT_EQ(topo.num_children(2, 0), 3u);
  EXPECT_EQ(topo.num_children(2, 1), 2u);
}

TEST(TopologyMembership, SpanSaturatesAtMachineSize) {
  net::Topology topo(16, 4);
  EXPECT_EQ(topo.subtree_span(0), 1u);
  EXPECT_EQ(topo.subtree_span(1), 4u);
  EXPECT_EQ(topo.subtree_span(2), 16u);
  EXPECT_EQ(topo.subtree_num_nodes(2, 0), 16u);
}

// ------------------------------------------------- config validation

TEST(HierConfig, RejectsZeroLevels) {
  core::SystemConfig cfg;
  cfg.num_cpus = 16;
  cfg.cpus_per_node = 4;
  cfg.hier.levels = 0;
  try {
    core::validate(cfg);
    FAIL() << "expected ConfigError";
  } catch (const core::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("hier.levels"), std::string::npos);
  }
}

TEST(HierConfig, RejectsLevelsBeyondTreeHeight) {
  core::SystemConfig cfg;
  cfg.num_cpus = 64;
  cfg.cpus_per_node = 4;  // 16 nodes, radix 4 -> height 2
  cfg.hier.levels = 3;
  try {
    core::validate(cfg);
    FAIL() << "expected ConfigError";
  } catch (const core::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("hier.levels"), std::string::npos);
  }
  cfg.hier.levels = 2;
  core::validate(cfg);  // exactly the height is fine
}

TEST(HierConfig, SingleNodeAllowsOneLevel) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  cfg.cpus_per_node = 4;  // one node: tree height 0
  cfg.hier.levels = 1;
  core::validate(cfg);
  cfg.hier.levels = 2;
  EXPECT_THROW(core::validate(cfg), core::ConfigError);
}

TEST(HierConfig, RejectsZeroThresholds) {
  for (const char* field : {"hier.cna_threshold", "hier.hmcs_threshold"}) {
    core::SystemConfig cfg;
    cfg.num_cpus = 16;
    cfg.cpus_per_node = 4;
    if (std::string(field) == "hier.cna_threshold") {
      cfg.hier.cna_threshold = 0;
    } else {
      cfg.hier.hmcs_threshold = 0;
    }
    try {
      core::validate(cfg);
      FAIL() << "expected ConfigError for " << field;
    } catch (const core::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos);
    }
  }
}

TEST(HierConfig, RejectsPerLevelStepWithoutBase) {
  core::SystemConfig cfg;
  cfg.num_cpus = 16;
  cfg.cpus_per_node = 4;
  cfg.net.hop_cycles = 0;
  cfg.net.hop_cycles_per_level = 5;
  try {
    core::validate(cfg);
    FAIL() << "expected ConfigError";
  } catch (const core::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("hop_cycles_per_level"),
              std::string::npos);
  }
}

TEST(HierConfig, KnobsRoundTripThroughJson) {
  core::SystemConfig cfg;
  cfg.num_cpus = 64;
  cfg.cpus_per_node = 4;
  cfg.hier.levels = 2;
  cfg.hier.cna_threshold = 17;
  cfg.hier.hmcs_threshold = 5;
  cfg.hier.amu_aggregation = true;
  cfg.net.hop_cycles_per_level = 3;
  const core::SystemConfig back = core::config_from_json(core::to_json(cfg));
  EXPECT_EQ(back.hier.levels, 2u);
  EXPECT_EQ(back.hier.cna_threshold, 17u);
  EXPECT_EQ(back.hier.hmcs_threshold, 5u);
  EXPECT_TRUE(back.hier.amu_aggregation);
  EXPECT_EQ(back.net.hop_cycles_per_level, 3u);
}

// ------------------------------------------------- per-level accounting

TEST(NetLevels, RootLinkTraversalsCountOnlyTopLevel) {
  core::SystemConfig cfg;
  cfg.num_cpus = 64;
  cfg.cpus_per_node = 4;  // 16 nodes, radix 4: 2 levels
  core::Machine m(cfg);
  // Node 0 -> node 1 stays inside the first level-1 cluster.
  const sim::Addr near = m.galloc().alloc_word_line(1);
  // Node 0 -> node 15 must climb through a root link.
  const sim::Addr far = m.galloc().alloc_word_line(15);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.store(near, 1);
  });
  m.run();
  EXPECT_EQ(m.network().root_link_traversals(), 0u);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.store(far, 1);
  });
  m.run();
  EXPECT_GT(m.network().root_link_traversals(), 0u);
}

TEST(NetLevels, PerLevelLatencyStepReachesTopology) {
  core::SystemConfig cfg;
  cfg.num_cpus = 64;
  cfg.cpus_per_node = 4;
  cfg.net.hop_cycles = 10;
  cfg.net.hop_cycles_per_level = 7;
  core::Machine m(cfg);
  EXPECT_EQ(m.network().topology().link_latency(0), 10u);
  EXPECT_EQ(m.network().topology().link_latency(1), 17u);
}

// ----------------------------------------------------- hierarchical locks

enum class HLockKind { kCna, kHmcs };

class HierLockCorrectness
    : public ::testing::TestWithParam<std::tuple<Mechanism, int, HLockKind>> {
};

std::string hier_lock_name(
    const ::testing::TestParamInfo<std::tuple<Mechanism, int, HLockKind>>&
        info) {
  return mech_name(std::get<0>(info.param)) + "_p" +
         std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) == HLockKind::kCna ? "_cna" : "_hmcs");
}

TEST_P(HierLockCorrectness, MutualExclusionNoLostUpdates) {
  const auto [mech, cpus, kind] = GetParam();
  constexpr int kIters = 5;

  core::SystemConfig cfg;
  cfg.num_cpus = static_cast<std::uint32_t>(cpus);
  core::Machine m(cfg);
  // Threshold 2 forces frequent secondary-queue splices / parent
  // surrenders, exercising the starvation-bound paths hard.
  std::unique_ptr<sync::Lock> lock =
      kind == HLockKind::kCna ? sync::make_cna_lock(m, mech, 1, 2)
                              : sync::make_hmcs_lock(m, mech, 1, 2);

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
    AllMechanisms, HierLockCorrectness,
    ::testing::Combine(::testing::Values(Mechanism::kLlSc, Mechanism::kAtomic,
                                         Mechanism::kActMsg, Mechanism::kMao,
                                         Mechanism::kAmo),
                       ::testing::Values(2, 4, 8, 16),
                       ::testing::Values(HLockKind::kCna, HLockKind::kHmcs)),
    hier_lock_name);

TEST(HierLocks, LargeThresholdDegradesToFifoProgress) {
  // With a huge threshold and a single cluster the CNA lock never finds a
  // remote waiter and must behave exactly like MCS: all threads complete.
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  cfg.cpus_per_node = 8;
  core::Machine m(cfg);
  auto lock = sync::make_cna_lock(m, Mechanism::kAtomic, 1, 1u << 20);
  int done = 0;
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 4; ++i) {
        co_await lock->acquire(t);
        co_await t.compute(50);
        co_await lock->release(t);
      }
      ++done;
    });
  }
  m.run();
  EXPECT_EQ(done, 8);
}

// ----------------------------------------------------- cluster barrier

class ClusterBarrierCorrectness
    : public ::testing::TestWithParam<std::tuple<Mechanism, int, bool>> {};

std::string cluster_barrier_name(
    const ::testing::TestParamInfo<std::tuple<Mechanism, int, bool>>& info) {
  return mech_name(std::get<0>(info.param)) + "_p" +
         std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_agg" : "_sw");
}

TEST_P(ClusterBarrierCorrectness, NoEarlyPassage) {
  const auto [mech, cpus, aggregate] = GetParam();
  if (aggregate && mech != Mechanism::kAmo) GTEST_SKIP();
  constexpr int kEpisodes = 5;

  core::SystemConfig cfg;
  cfg.num_cpus = static_cast<std::uint32_t>(cpus);
  cfg.cpus_per_node = 4;
  core::Machine m(cfg);
  auto barrier = sync::make_cluster_barrier(
      m, mech, cfg.num_cpus, /*levels=*/2, aggregate);

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
  EXPECT_EQ(m.pending_threads(), 0u);
  m.check_coherence();
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, ClusterBarrierCorrectness,
    ::testing::Combine(::testing::Values(Mechanism::kLlSc, Mechanism::kAtomic,
                                         Mechanism::kActMsg, Mechanism::kMao,
                                         Mechanism::kAmo),
                       ::testing::Values(4, 6, 16, 32),  // 6: ragged node
                       ::testing::Values(false, true)),
    cluster_barrier_name);

// The headline property: per-subtree AMU aggregation must be
// *semantically invisible* — across randomized topology shapes it
// releases exactly the cpus the flat AMO path releases, and the combined
// per-node arrival counts equal the flat path's single counter.
TEST(AmuAggregationProperty, MatchesFlatAmoAcrossRandomShapes) {
  std::uint64_t rng = 0x2545F4914F6CDD1Dull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  constexpr int kShapes = 50;
  constexpr int kEpisodes = 3;
  for (int s = 0; s < kShapes; ++s) {
    core::SystemConfig cfg;
    cfg.cpus_per_node = 1u << (next() % 3);        // 1, 2, 4
    const std::uint32_t nodes = 2 + next() % 15;   // 2..16 nodes
    cfg.num_cpus = nodes * cfg.cpus_per_node;
    cfg.net.radix = 2 + next() % 3;                // 2..4
    std::uint32_t height = 0;
    for (std::uint32_t e = nodes; e > 1;
         e = (e + cfg.net.radix - 1) / cfg.net.radix) {
      ++height;
    }
    cfg.hier.levels = 1 + next() % height;
    core::validate(cfg);
    const std::string what = "shape " + std::to_string(s) + ": " +
                             std::to_string(cfg.num_cpus) + "cpus/" +
                             std::to_string(cfg.cpus_per_node) + "cpn/r" +
                             std::to_string(cfg.net.radix) + "/L" +
                             std::to_string(cfg.hier.levels);

    // Flat oracle: one central AMO counter.
    std::uint64_t flat_total = 0;
    std::uint32_t flat_released = 0;
    {
      core::Machine m(cfg);
      auto barrier =
          sync::make_central_barrier(m, Mechanism::kAmo, cfg.num_cpus);
      std::vector<int> done(cfg.num_cpus, 0);
      for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
        m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
          for (int ep = 0; ep < kEpisodes; ++ep) {
            co_await t.compute(t.rng().below(300));
            co_await barrier->wait(t);
          }
          done[c] = 1;
        });
      }
      m.run();
      for (int d : done) flat_released += static_cast<std::uint32_t>(d);
      flat_total =
          static_cast<std::uint64_t>(cfg.num_cpus) * kEpisodes;
    }

    // Aggregated path over the random hierarchy.
    {
      core::Machine m(cfg);
      auto barrier = sync::make_cluster_barrier(m, Mechanism::kAmo,
                                                cfg.num_cpus, cfg.hier.levels,
                                                /*amu_aggregation=*/true);
      std::vector<int> done(cfg.num_cpus, 0);
      std::vector<sim::Addr> counters;
      for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
        m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
          for (int ep = 0; ep < kEpisodes; ++ep) {
            co_await t.compute(t.rng().below(300));
            co_await barrier->wait(t);
          }
          done[c] = 1;
        });
      }
      m.run();
      EXPECT_EQ(m.pending_threads(), 0u) << what;
      std::uint32_t released = 0;
      for (int d : done) released += static_cast<std::uint32_t>(d);
      // Same release set as the flat path: everyone.
      EXPECT_EQ(released, flat_released) << what;
      EXPECT_EQ(released, cfg.num_cpus) << what;
      // Same combined count as the flat counter's final value: every AMO
      // the AMUs executed is a cpu arrival, an aggregation forward, or a
      // release publish (one per node per episode), and each arrival or
      // forward adds exactly 1 to some tier counter.
      std::uint64_t amo_ops = 0;
      std::uint64_t forwards = 0;
      std::uint64_t releases = 0;
      for (sim::NodeId n = 0; n < m.num_nodes(); ++n) {
        amo_ops += m.amu(n).stats().amo_ops;
        forwards += m.amu(n).stats().agg_forwards;
        releases += m.amu(n).stats().agg_releases;
      }
      const std::uint64_t release_pubs =
          static_cast<std::uint64_t>(m.num_nodes()) * kEpisodes;
      EXPECT_EQ(amo_ops - forwards - release_pubs, flat_total) << what;
      // Every episode ran exactly one release wave over the whole tree:
      // waves * episodes divides evenly and covers every participant.
      EXPECT_EQ(releases % kEpisodes, 0u) << what;
      m.check_coherence();
    }
  }
}

// --------------------------------------------- rerun byte-identity

// kFlatTree is microbench_hier's baseline: the fanout-4 AMO tree barrier.
enum class HierMech { kCnaLock, kHmcsLock, kClusterSw, kClusterAgg, kFlatTree };

sim::Json run_hier_machine(HierMech kind) {
  core::SystemConfig cfg;
  cfg.num_cpus = 16;
  cfg.cpus_per_node = 4;
  cfg.hier.levels = 1;
  core::validate(cfg);
  core::Machine m(cfg);
  std::unique_ptr<sync::Lock> lock;
  std::unique_ptr<sync::Barrier> barrier;
  switch (kind) {
    case HierMech::kCnaLock:
      lock = sync::make_cna_lock(m, Mechanism::kAmo, 1, 4);
      break;
    case HierMech::kHmcsLock:
      lock = sync::make_hmcs_lock(m, Mechanism::kAmo, 1, 4);
      break;
    case HierMech::kClusterSw:
      barrier = sync::make_cluster_barrier(m, Mechanism::kAmo, cfg.num_cpus,
                                           1, false);
      break;
    case HierMech::kClusterAgg:
      barrier = sync::make_cluster_barrier(m, Mechanism::kAmo, cfg.num_cpus,
                                           1, true);
      break;
    case HierMech::kFlatTree:
      barrier = sync::make_tree_barrier(m, Mechanism::kAmo, cfg.num_cpus, 4);
      break;
  }
  const sim::Addr shared = m.galloc().alloc_word_line(3);
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 4; ++i) {
        co_await t.compute(t.rng().below(200));
        if (lock) {
          co_await lock->acquire(t);
          const std::uint64_t v = co_await t.load(shared);
          co_await t.store(shared, v + 1);
          co_await lock->release(t);
        } else {
          co_await barrier->wait(t);
        }
      }
    });
  }
  m.run();
  return m.stats_json();
}

class HierDeterminism : public ::testing::TestWithParam<HierMech> {};

std::string hier_det_name(const ::testing::TestParamInfo<HierMech>& info) {
  switch (info.param) {
    case HierMech::kCnaLock: return "cna";
    case HierMech::kHmcsLock: return "hmcs";
    case HierMech::kClusterSw: return "cluster_sw";
    case HierMech::kClusterAgg: return "cluster_agg";
    case HierMech::kFlatTree: return "flat_tree";
  }
  return "";
}

TEST_P(HierDeterminism, DoubleRunByteIdentical) {
  EXPECT_EQ(run_hier_machine(GetParam()).dump(),
            run_hier_machine(GetParam()).dump());
}

INSTANTIATE_TEST_SUITE_P(AllNewMechanisms, HierDeterminism,
                         ::testing::Values(HierMech::kCnaLock,
                                           HierMech::kHmcsLock,
                                           HierMech::kClusterSw,
                                           HierMech::kClusterAgg,
                                           HierMech::kFlatTree),
                         hier_det_name);

}  // namespace
}  // namespace amo
