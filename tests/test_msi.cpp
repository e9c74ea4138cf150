// MSI mode (no clean-exclusive grant): behavioural differences and the
// same safety battery.
#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "sync/mechanism.hpp"

namespace amo {
namespace {

core::SystemConfig msi_cfg(std::uint32_t cpus) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  cfg.dir.grant_exclusive_clean = false;
  return cfg;
}

TEST(Msi, FirstReaderGetsSharedOnly) {
  core::Machine m(msi_cfg(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.load(a);
  });
  m.run();
  EXPECT_EQ(m.dir(1).state_of(a), coh::Directory::State::kShared);
  EXPECT_TRUE(m.dir(1).is_sharer(a, 0));
  m.check_coherence();
}

TEST(Msi, PrivateReadThenWritePaysAnUpgrade) {
  // Under MESI the read-then-write of private data is upgrade-free; MSI
  // must issue one.
  auto upgrades_for = [](bool mesi) {
    core::SystemConfig cfg;
    cfg.num_cpus = 2;
    cfg.dir.grant_exclusive_clean = mesi;
    core::Machine m(cfg);
    const sim::Addr a = m.galloc().alloc_word_line(0);
    m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.load(a);
      co_await t.store(a, 1);
    });
    m.run();
    return m.core(0).cache().stats().miss_upgrade;  // the only thread
  };
  EXPECT_EQ(upgrades_for(true), 0u);
  EXPECT_EQ(upgrades_for(false), 1u);
}

TEST(Msi, AtomicsStillConserve) {
  core::Machine m(msi_cfg(8));
  const sim::Addr a = m.galloc().alloc_word_line(0);
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

TEST(Msi, LlScStillAtomic) {
  core::Machine m(msi_cfg(8));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 5; ++i) {
        for (;;) {
          const std::uint64_t v = co_await t.load_linked(a);
          if (co_await t.store_conditional(a, v + 1)) break;
        }
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(a), 40u);
  m.check_coherence();
}

TEST(Msi, AmoMechanismsUnaffected) {
  // AMOs never take ownership, so MSI vs MESI must not change their
  // results (and barely their timing).
  core::Machine m(msi_cfg(8));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.amo(amu::AmoOpcode::kInc, a, 0, 8);
      while (co_await t.load(a) != 8) co_await t.delay(100);
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(a), 8u);
  m.check_coherence();
}

}  // namespace
}  // namespace amo
