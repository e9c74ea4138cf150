// Core and active-message tests: CPU-time occupancy, AM exactly-once
// semantics under retransmission, handler interference, and client
// timeout behaviour.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/machine.hpp"

namespace amo {
namespace {

core::SystemConfig cfg_with(std::uint32_t cpus) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  return cfg;
}

TEST(Core, ComputeAdvancesTime) {
  core::Machine m(cfg_with(2));
  sim::Cycle end = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(123);
    end = t.now();
  });
  m.run();
  EXPECT_EQ(end, 123u);
}

TEST(Core, CpuTimeIsSerialAcrossContexts) {
  // The AM server runs on core 0 of the home node; its handler occupancy
  // must push back the host thread's own compute.
  core::SystemConfig cfg = cfg_with(4);
  cfg.am_server.invoke_cycles = 5000;
  cfg.am_server.handler_cycles = 0;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(0);  // handled by cpu 0
  sim::Cycle host_end = 0;
  std::uint32_t phase = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    while (phase < 1) co_await t.delay(50);
    co_await t.delay(500);     // let the AM reach the server
    co_await t.compute(100);   // must queue behind the 5000-cycle handler
    host_end = t.now();
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    phase = 1;
    (void)co_await t.am_fetch_add(a, 1);
  });
  m.run();
  EXPECT_GT(host_end, 5000u);
}

TEST(ActMsg, ExactlyOnceUnderForcedRetransmits) {
  // A timeout far below the handler cost forces several retransmissions;
  // dedup must keep the fetch-add exactly-once.
  // Timeout below the per-request service time (forcing retransmits)
  // but above the network round trip (so replayed replies converge).
  core::SystemConfig cfg = cfg_with(4);
  cfg.am_timeout_cycles = 4000;
  cfg.am_server.invoke_cycles = 10000;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::vector<std::uint64_t> olds;
  for (sim::CpuId c = 1; c < 4; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      olds.push_back(co_await t.am_fetch_add(a, 1));
      olds.push_back(co_await t.am_fetch_add(a, 1));
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(a), 6u);
  std::set<std::uint64_t> unique(olds.begin(), olds.end());
  EXPECT_EQ(unique.size(), 6u);  // distinct tickets despite duplicates
  std::uint64_t retrans = 0;
  for (sim::CpuId c = 0; c < 4; ++c) {
    retrans += m.core(c).stats().am_retransmits;
  }
  EXPECT_GT(retrans, 0u);
  const auto& ss = m.am_server(0).stats();
  EXPECT_GT(ss.duplicates, 0u);
  EXPECT_EQ(ss.handled, 6u);  // the op ran exactly once per request
}

TEST(ActMsg, RepliesReplayedFromDedupCache) {
  core::SystemConfig cfg = cfg_with(4);
  cfg.am_timeout_cycles = 4000;
  cfg.am_server.invoke_cycles = 9000;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(0);
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.am_fetch_add(a, 1);
  });
  m.run();
  EXPECT_EQ(m.peek_word(a), 1u);
  EXPECT_EQ(m.am_server(0).stats().handled, 1u);
}

// One AM attempt races a reply against its timer; the attempt the first
// of them decides is over, and the other one lands as a no-op.
TEST(Timeout, ValueWinsWhenCompletedInTime) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::uint64_t old = 99;
  sim::Cycle done = 0;
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    old = co_await t.am_fetch_add(a, 1);
    done = t.now();
  });
  m.run();
  EXPECT_EQ(old, 0u);
  EXPECT_LT(done, m.config().am_timeout_cycles);
  EXPECT_EQ(m.engine().now(), m.config().am_timeout_cycles)
      << "the spent timer still fires, as a no-op";
  EXPECT_EQ(m.core(2).stats().am_requests, 1u);
  EXPECT_EQ(m.core(2).stats().am_retransmits, 0u);
}

// The handler outlasts two timeouts, so three attempts reach the server
// while it runs and all three are answered when it finishes. The first
// two were abandoned when their timers fired, so their replies land as
// no-ops; the third, still current, takes the one result.
TEST(Timeout, TimesOutWhenLate) {
  core::SystemConfig cfg = cfg_with(4);
  cfg.am_timeout_cycles = 4000;
  cfg.am_server.invoke_cycles = 10000;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::uint64_t old = 99;
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    old = co_await t.am_fetch_add(a, 5);
  });
  m.run();
  EXPECT_EQ(old, 0u);
  EXPECT_EQ(m.peek_word(a), 5u);
  EXPECT_EQ(m.core(2).stats().am_retransmits, 2u);
  EXPECT_EQ(m.am_server(0).stats().handled, 1u);
}

TEST(ActMsg, StoreOpWritesThroughHomeCore) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.am_store(a, 77);
  });
  m.run();
  EXPECT_EQ(m.peek_word(a), 77u);
}

TEST(ActMsg, ServerSerializesConcurrentRequests) {
  constexpr std::uint32_t kCpus = 8;
  core::SystemConfig cfg = cfg_with(kCpus);
  cfg.am_server.invoke_cycles = 1000;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(0);
  sim::Cycle end = 0;
  std::uint32_t done = 0;
  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.am_fetch_add(a, 1);
      if (++done == kCpus) end = t.now();
    });
  }
  m.run();
  // 8 handlers at >= 1000 cycles each on one core: lower bound on finish.
  EXPECT_GE(end, 8000u);
  EXPECT_EQ(m.peek_word(a), kCpus);
}

TEST(Core, StatsCountPerMechanism) {
  core::Machine m(cfg_with(4));
  const sim::Addr a = m.galloc().alloc_word_line(1);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.amo_fetch_add(a, 1);
    (void)co_await t.mao_fetch_add(a, 1);
    (void)co_await t.uncached_load(a);
    (void)co_await t.am_fetch_add(a, 1);
  });
  m.run();
  const cpu::CoreStats& s = m.core(0).stats();
  EXPECT_EQ(s.amo_ops, 1u);
  EXPECT_EQ(s.mao_ops, 1u);
  EXPECT_EQ(s.uncached_loads, 1u);
  EXPECT_GE(s.am_requests, 1u);
}

}  // namespace
}  // namespace amo
