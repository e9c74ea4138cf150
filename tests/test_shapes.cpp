// Shape-regression tests: the paper's qualitative results, pinned as
// assertions so a future change that silently breaks a trend (not just a
// value) fails CI. These run the real benchmark workloads at reduced
// sizes through run_cell, the one entry point every workload uses.
#include <gtest/gtest.h>

#include "bench/scenario.hpp"

namespace amo {
namespace {

using bench::CellParams;
using bench::CellResult;
using bench::Kernel;
using sync::Mechanism;

// Barrier cells report cycles per barrier as `primary` and cycles per
// processor as `secondary`; lock cells report total cycles as `primary`.
CellParams barrier_params(Mechanism mech) {
  CellParams params;
  params.kernel = Kernel::kBarrier;
  params.mech = mech;
  params.episodes = 6;
  return params;
}

CellResult barrier_at(std::uint32_t cpus, Mechanism mech) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  return bench::run_cell(cfg, barrier_params(mech));
}

TEST(Shapes, MechanismOrderingAtEverySize) {
  // AMO < MAO < Atomic and AMO < MAO < LL/SC in barrier latency (the
  // paper's Table 2 ordering), at every size we test.
  for (std::uint32_t p : {8u, 16u, 32u}) {
    const double llsc = barrier_at(p, Mechanism::kLlSc).primary;
    const double atomic =
        barrier_at(p, Mechanism::kAtomic).primary;
    const double mao = barrier_at(p, Mechanism::kMao).primary;
    const double amo = barrier_at(p, Mechanism::kAmo).primary;
    EXPECT_LT(amo, mao) << "P=" << p;
    EXPECT_LT(mao, atomic) << "P=" << p;
    EXPECT_LT(atomic, llsc) << "P=" << p;
  }
}

TEST(Shapes, AmoSpeedupGrowsWithScale) {
  const double s8 = barrier_at(8, Mechanism::kLlSc).primary /
                    barrier_at(8, Mechanism::kAmo).primary;
  const double s32 = barrier_at(32, Mechanism::kLlSc).primary /
                     barrier_at(32, Mechanism::kAmo).primary;
  const double s64 = barrier_at(64, Mechanism::kLlSc).primary /
                     barrier_at(64, Mechanism::kAmo).primary;
  EXPECT_GT(s32, s8);
  EXPECT_GT(s64, s32);
  EXPECT_GT(s64, 15.0);  // paper: 23.8 at 64; guard against collapse
}

TEST(Shapes, Figure5Signatures) {
  // LL/SC cycles-per-processor RISES with P (superlinear total);
  // AMO cycles-per-processor FALLS (t = t_o + t_p*P).
  const double llsc16 = barrier_at(16, Mechanism::kLlSc).secondary;
  const double llsc64 = barrier_at(64, Mechanism::kLlSc).secondary;
  const double amo16 = barrier_at(16, Mechanism::kAmo).secondary;
  const double amo64 = barrier_at(64, Mechanism::kAmo).secondary;
  EXPECT_GT(llsc64, llsc16);
  EXPECT_LT(amo64, amo16);
}

TEST(Shapes, TreesHelpConventionalNotAmo) {
  // Paper §4.2.2: trees speed up conventional barriers; plain AMO does
  // not need them (at moderate sizes AMO-central beats AMO+tree).
  core::SystemConfig cfg;
  cfg.num_cpus = 32;
  CellParams central = barrier_params(Mechanism::kLlSc);
  CellParams tree = central;
  tree.kind = bench::BarrierKind::kTree;
  tree.fanout = 8;

  central.mech = tree.mech = Mechanism::kLlSc;
  EXPECT_LT(bench::run_cell(cfg, tree).primary,
            bench::run_cell(cfg, central).primary);

  central.mech = tree.mech = Mechanism::kAmo;
  EXPECT_LE(bench::run_cell(cfg, central).primary,
            bench::run_cell(cfg, tree).primary);
}

TEST(Shapes, ArrayLockCrossover) {
  // Ticket beats array at small P; array beats ticket at large P
  // (paper Table 4's crossover).
  auto lock_cycles = [](std::uint32_t cpus, bool array) {
    core::SystemConfig cfg;
    cfg.num_cpus = cpus;
    CellParams params;
    params.kernel = Kernel::kLock;
    params.mech = Mechanism::kLlSc;
    params.array = array;
    params.iters = 4;
    return bench::run_cell(cfg, params).primary;
  };
  EXPECT_LT(lock_cycles(8, false), lock_cycles(8, true));    // ticket wins
  EXPECT_GT(lock_cycles(64, false), lock_cycles(64, true));  // array wins
}

TEST(Shapes, AmoLockTrafficIsLowest) {
  auto traffic = [](Mechanism mech) {
    core::SystemConfig cfg;
    cfg.num_cpus = 32;
    CellParams params;
    params.kernel = Kernel::kLock;
    params.mech = mech;
    params.iters = 4;
    return bench::run_cell(cfg, params).traffic.bytes;
  };
  const std::uint64_t llsc = traffic(Mechanism::kLlSc);
  const std::uint64_t amo = traffic(Mechanism::kAmo);
  EXPECT_LT(amo * 3, llsc);  // at least 3x less traffic (paper: ~10x)
}

TEST(Shapes, DelayedPutBeatsEagerAtScale) {
  core::SystemConfig delayed_cfg;
  delayed_cfg.num_cpus = 32;
  core::SystemConfig eager_cfg = delayed_cfg;
  eager_cfg.amu.eager_put_all = true;
  const CellParams params = barrier_params(Mechanism::kAmo);
  EXPECT_LT(bench::run_cell(delayed_cfg, params).primary,
            bench::run_cell(eager_cfg, params).primary);
}

CellResult spin_cell_at(std::uint32_t cpus, std::uint32_t active) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  CellParams p;
  p.kernel = Kernel::kSpin;
  p.mech = Mechanism::kAmo;
  p.episodes = 4;
  p.active = active;
  return bench::run_cell(cfg, p);
}

TEST(Shapes, MicrobenchSpinDoubleRunIdentity) {
  // The spin kernel is deterministic: two runs of the same cell agree in
  // every reported field (cycles, host events, traffic).
  const CellResult a = spin_cell_at(16, 4);
  const CellResult b = spin_cell_at(16, 4);
  EXPECT_EQ(a.primary, b.primary);
  EXPECT_EQ(a.secondary, b.secondary);
  EXPECT_EQ(a.aux, b.aux);
  EXPECT_EQ(a.traffic.packets, b.traffic.packets);
  EXPECT_EQ(a.traffic.bytes, b.traffic.bytes);
}

TEST(Shapes, SpinQuiesceEventsScaleWithActiveCores) {
  // The virtualization claim at shape level: host events per episode
  // grow with the number of ACTIVE cores, not with machine size — the
  // parked majority contributes (almost) nothing.
  const std::uint64_t small = spin_cell_at(64, 4).aux;
  const std::uint64_t large = spin_cell_at(64, 32).aux;
  EXPECT_LT(small * 2, large);
}

TEST(Shapes, AmoAdvantageGrowsWithHopLatency) {
  auto speedup_at_hop = [](sim::Cycle hop) {
    core::SystemConfig cfg;
    cfg.num_cpus = 32;
    cfg.net.hop_cycles = hop;
    CellParams params = barrier_params(Mechanism::kLlSc);
    const double base = bench::run_cell(cfg, params).primary;
    params.mech = Mechanism::kAmo;
    return base / bench::run_cell(cfg, params).primary;
  };
  EXPECT_GT(speedup_at_hop(400), speedup_at_hop(50));
}

}  // namespace
}  // namespace amo
