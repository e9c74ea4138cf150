// AMU tests: the opcode set, queue serialization, AMU-cache behaviour
// (hits, capacity evictions), put policies, and MAO mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "amu/amo_ops.hpp"
#include "core/machine.hpp"

namespace amo {
namespace {

using amu::AmoOpcode;
using amu::apply;

TEST(AmoOps, ArithmeticAndBitwise) {
  EXPECT_EQ(apply(AmoOpcode::kInc, 5, 0, 0), 6u);
  EXPECT_EQ(apply(AmoOpcode::kDec, 5, 0, 0), 4u);
  EXPECT_EQ(apply(AmoOpcode::kFetchAdd, 5, 10, 0), 15u);
  EXPECT_EQ(apply(AmoOpcode::kSwap, 5, 42, 0), 42u);
  EXPECT_EQ(apply(AmoOpcode::kAnd, 0b1100, 0b1010, 0), 0b1000u);
  EXPECT_EQ(apply(AmoOpcode::kOr, 0b1100, 0b1010, 0), 0b1110u);
  EXPECT_EQ(apply(AmoOpcode::kXor, 0b1100, 0b1010, 0), 0b0110u);
  EXPECT_EQ(apply(AmoOpcode::kMin, 5, 3, 0), 3u);
  EXPECT_EQ(apply(AmoOpcode::kMin, 3, 5, 0), 3u);
  EXPECT_EQ(apply(AmoOpcode::kMax, 5, 3, 0), 5u);
  EXPECT_EQ(apply(AmoOpcode::kMax, 3, 5, 0), 5u);
}

TEST(AmoOps, CompareAndSwap) {
  EXPECT_EQ(apply(AmoOpcode::kCas, 5, 5, 9), 9u);  // match: swap in
  EXPECT_EQ(apply(AmoOpcode::kCas, 5, 4, 9), 5u);  // mismatch: unchanged
}

TEST(AmoOps, DecWrapsLikeHardware) {
  EXPECT_EQ(apply(AmoOpcode::kDec, 0, 0, 0), ~std::uint64_t{0});
}

TEST(AmoOps, Names) {
  EXPECT_STREQ(to_string(AmoOpcode::kInc), "amo.inc");
  EXPECT_STREQ(to_string(AmoOpcode::kFetchAdd), "amo.fetchadd");
  EXPECT_STREQ(to_string(AmoOpcode::kCas), "amo.cas");
}

core::SystemConfig cfg_with(std::uint32_t cpus) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  return cfg;
}

TEST(Amu, SerializedFetchAddsHandOutUniqueTickets) {
  constexpr std::uint32_t kCpus = 16;
  core::Machine m(cfg_with(kCpus));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::vector<std::uint64_t> olds;
  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      olds.push_back(co_await t.amo_fetch_add(a, 1));
    });
  }
  m.run();
  std::set<std::uint64_t> unique(olds.begin(), olds.end());
  EXPECT_EQ(unique.size(), kCpus);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), kCpus - 1);
  EXPECT_EQ(m.peek_word(a), kCpus);
}

TEST(Amu, CacheHitsAfterFirstOp) {
  core::Machine m(cfg_with(2));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) (void)co_await t.amo_fetch_add(a, 1);
  });
  m.run();
  EXPECT_EQ(m.amu(0).stats().cache_misses, 1u);
  EXPECT_EQ(m.amu(0).stats().cache_hits, 9u);
  EXPECT_EQ(m.amu(0).stats().amo_ops, 10u);
}

TEST(Amu, CapacityEvictionsStayCorrect) {
  core::SystemConfig cfg = cfg_with(2);
  cfg.amu.cache_words = 4;
  core::Machine m(cfg);
  constexpr int kVars = 10;  // > cache_words: forces eviction churn
  std::vector<sim::Addr> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(m.galloc().alloc_word_line(0));
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < kVars; ++i) {
        (void)co_await t.amo_fetch_add(vars[i], 1);
      }
    }
  });
  m.run();
  EXPECT_GE(m.amu(0).stats().evictions, 1u);
  for (int i = 0; i < kVars; ++i) EXPECT_EQ(m.peek_word(vars[i]), 3u);
  m.check_coherence();
}

TEST(Amu, DelayedPutCountsOnlyTestMatches) {
  core::Machine m(cfg_with(2));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      (void)co_await t.amo(AmoOpcode::kInc, a, 0, /*test=*/8);
    }
  });
  m.run();
  EXPECT_EQ(m.amu(0).stats().puts, 1u);  // only the 8th increment puts
  EXPECT_EQ(m.peek_word(a), 8u);
}

TEST(Amu, EagerPutOnEveryOpWithoutTest) {
  core::Machine m(cfg_with(2));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) (void)co_await t.amo_fetch_add(a, 2);
  });
  m.run();
  EXPECT_EQ(m.amu(0).stats().puts, 5u);
}

TEST(Amu, EagerPutAllAblationOverridesTest) {
  core::SystemConfig cfg = cfg_with(2);
  cfg.amu.eager_put_all = true;
  core::Machine m(cfg);
  const sim::Addr a = m.galloc().alloc_word_line(0);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      (void)co_await t.amo(AmoOpcode::kInc, a, 0, /*test=*/100);
    }
  });
  m.run();
  EXPECT_EQ(m.amu(0).stats().puts, 5u);
}

TEST(Amu, ExtensionOpcodesEndToEnd) {
  core::Machine m(cfg_with(2));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::vector<std::uint64_t> olds;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    olds.push_back(co_await t.amo(AmoOpcode::kSwap, a, 11));
    olds.push_back(co_await t.amo(AmoOpcode::kOr, a, 0x100));
    olds.push_back(co_await t.amo(AmoOpcode::kAnd, a, 0xFF));
    olds.push_back(co_await t.amo(AmoOpcode::kXor, a, 0x3));
    olds.push_back(co_await t.amo(AmoOpcode::kMax, a, 100));
    olds.push_back(co_await t.amo(AmoOpcode::kMin, a, 42));
    olds.push_back(co_await t.amo(AmoOpcode::kCas, a, 42, {}, 7));
    olds.push_back(co_await t.amo(AmoOpcode::kDec, a, 0));
  });
  m.run();
  ASSERT_EQ(olds.size(), 8u);
  EXPECT_EQ(olds[0], 0u);                 // swap: old 0 -> 11
  EXPECT_EQ(olds[1], 11u);                // or: 11 -> 0x10B
  EXPECT_EQ(olds[2], 0x10Bu);             // and 0xFF: -> 0x0B
  EXPECT_EQ(olds[3], 0x0Bu);              // xor 3: -> 0x08
  EXPECT_EQ(olds[4], 0x08u);              // max(8,100): -> 100
  EXPECT_EQ(olds[5], 100u);               // min(100,42): -> 42
  EXPECT_EQ(olds[6], 42u);                // cas(42->7): -> 7
  EXPECT_EQ(olds[7], 7u);                 // dec: -> 6
  EXPECT_EQ(m.peek_word(a), 6u);
}

TEST(Amu, MaoModeCountsSeparately) {
  core::Machine m(cfg_with(2));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await t.mao_fetch_add(a, 1);
    (void)co_await t.mao_inc(a);
    (void)co_await t.amo_fetch_add(a, 1);
  });
  m.run();
  EXPECT_EQ(m.amu(0).stats().mao_ops, 2u);
  EXPECT_EQ(m.amu(0).stats().amo_ops, 1u);
  EXPECT_EQ(m.peek_word(a), 3u);
}

TEST(Amu, QueueDepthObservedUnderBurst) {
  constexpr std::uint32_t kCpus = 32;
  core::Machine m(cfg_with(kCpus));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await t.amo_fetch_add(a, 1);
    });
  }
  m.run();
  // Arrivals are spread by link serialization, so depth stays small; the
  // accumulator must still have observed every enqueue.
  EXPECT_EQ(m.amu(0).stats().queue_depth.count(), kCpus);
  EXPECT_GE(m.amu(0).stats().queue_depth.max(), 1u);
  EXPECT_EQ(m.peek_word(a), kCpus);
}

TEST(Amu, RemoteRepliesCarryOldValueAcrossNodes) {
  core::Machine m(cfg_with(8));
  const sim::Addr a = m.galloc().alloc_word_line(3);  // homed far away
  std::uint64_t old0 = 99;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    old0 = co_await t.amo_fetch_add(a, 5);
  });
  m.run();
  EXPECT_EQ(old0, 0u);
  EXPECT_EQ(m.peek_word(a), 5u);
  EXPECT_EQ(m.amu(3).stats().amo_ops, 1u);
  EXPECT_EQ(m.amu(0).stats().amo_ops, 0u);
}

// Processor atomics on the AMU's word: each GetX merges the AMU's value
// and drops its copy, and one that lands inside an op window makes the op
// restart and re-fetch the word. Either way no increment may be lost or
// handed out twice.
TEST(Amu, OpRestartsWhenGetXDropsWordMidOp) {
  constexpr std::uint32_t kCpus = 8;
  constexpr int kIters = 24;
  core::Machine m(cfg_with(kCpus));
  const sim::Addr a = m.galloc().alloc_word_line(0);
  std::vector<std::uint64_t> tickets;
  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < kIters; ++i) {
        co_await t.compute(t.rng().below(64));
        std::uint64_t old = 0;
        if (c % 2 == 0) {
          old = co_await t.amo_fetch_add(a, 1);
        } else {
          old = co_await t.atomic_fetch_add(a, 1);
        }
        tickets.push_back(old);
      }
    });
  }
  m.run();
  constexpr std::uint64_t kTotal = std::uint64_t{kCpus} * kIters;
  EXPECT_GT(m.amu(0).stats().op_restarts, 0u)
      << "no GetX landed inside an op window";
  std::sort(tickets.begin(), tickets.end());
  ASSERT_EQ(tickets.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) ASSERT_EQ(tickets[i], i);
  EXPECT_EQ(m.peek_word(a), kTotal);
}

}  // namespace
}  // namespace amo
