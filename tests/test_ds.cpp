// AMO-native data structures (counter, MPMC ring queue) and the host-side
// ds::RingQueue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <set>
#include <vector>

#include "core/machine.hpp"
#include "ds/counter.hpp"
#include "ds/mpmc_queue.hpp"
#include "ds/ring_queue.hpp"

namespace amo {
namespace {

TEST(DsCounter, ConcurrentAddsConserve) {
  core::SystemConfig cfg;
  cfg.num_cpus = 16;
  core::Machine m(cfg);
  ds::Counter counter(m, 1);
  for (sim::CpuId c = 0; c < 16; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 10; ++i) {
        (void)co_await counter.add(t, 3);
        co_await t.compute(t.rng().below(80));
      }
    });
  }
  m.run();
  EXPECT_EQ(m.peek_word(counter.address()), 16u * 10u * 3u);
  m.check_coherence();
}

TEST(DsCounter, ReadSeesCurrentValue) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  core::Machine m(cfg);
  ds::Counter counter(m, 1);
  std::uint64_t seen = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await counter.add(t, 5);
    (void)co_await counter.add(t, 7);
    seen = co_await counter.read(t);
  });
  m.run();
  EXPECT_EQ(seen, 12u);
}

TEST(DsQueue, SingleProducerSingleConsumerFifo) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  core::Machine m(cfg);
  ds::MpmcQueue q(m, 0, 4);
  std::vector<std::uint64_t> got;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (std::uint64_t i = 1; i <= 20; ++i) {
      co_await q.enqueue(t, i * 100);
      co_await t.compute(t.rng().below(150));
    }
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      got.push_back(co_await q.dequeue(t));
      co_await t.compute(t.rng().below(150));
    }
  });
  m.run();
  ASSERT_EQ(got.size(), 20u);
  for (std::uint64_t i = 1; i <= 20; ++i) EXPECT_EQ(got[i - 1], i * 100);
  m.check_coherence();
}

TEST(DsQueue, MpmcEveryItemExactlyOnce) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kConsumers = 4;
  constexpr int kPerProducer = 12;
  core::SystemConfig cfg;
  cfg.num_cpus = kProducers + kConsumers;
  core::Machine m(cfg);
  ds::MpmcQueue q(m, 0, 8);

  // Each consumer records its own observations: a consumer's successive
  // dequeues carry increasing head tickets, and a producer's items occupy
  // increasing tickets, so within ONE consumer the items of any producer
  // must appear in order. (A global completion-order log would not be a
  // valid observation — dequeues of adjacent tickets may complete out of
  // order across consumers.)
  std::vector<std::vector<std::uint64_t>> consumed(kConsumers);
  for (sim::CpuId c = 0; c < kProducers; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < kPerProducer; ++i) {
        // Unique payloads: producer id in the high bits.
        co_await q.enqueue(t, (static_cast<std::uint64_t>(c) << 32) | i);
        co_await t.compute(t.rng().below(200));
      }
    });
  }
  for (sim::CpuId c = kProducers; c < kProducers + kConsumers; ++c) {
    m.spawn(c, [&, slot = c - kProducers](core::ThreadCtx& t)
                   -> sim::Task<void> {
      for (int i = 0; i < kPerProducer; ++i) {
        consumed[slot].push_back(co_await q.dequeue(t));
        co_await t.compute(t.rng().below(200));
      }
    });
  }
  m.run();
  std::vector<std::uint64_t> all;
  for (const auto& v : consumed) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kProducers * kPerProducer);
  std::set<std::uint64_t> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());  // exactly once
  for (std::uint32_t k = 0; k < kConsumers; ++k) {
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      std::vector<std::uint64_t> seq;
      for (std::uint64_t v : consumed[k]) {
        if ((v >> 32) == p) seq.push_back(v & 0xffffffffu);
      }
      EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end()))
          << "consumer " << k << " producer " << p;
    }
  }
  m.check_coherence();
}

TEST(DsQueue, ProducersBlockWhenFull) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  core::Machine m(cfg);
  ds::MpmcQueue q(m, 0, 2);  // tiny ring
  sim::Cycle third_enqueue_done = 0;
  sim::Cycle first_dequeue_at = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await q.enqueue(t, 1);
    co_await q.enqueue(t, 2);
    co_await q.enqueue(t, 3);  // must block until the consumer drains one
    third_enqueue_done = t.now();
  });
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.delay(50000);
    first_dequeue_at = t.now();
    (void)co_await q.dequeue(t);
    (void)co_await q.dequeue(t);
    (void)co_await q.dequeue(t);
  });
  m.run();
  EXPECT_GT(third_enqueue_done, first_dequeue_at);
  m.check_coherence();
}

TEST(DsQueue, WrapAroundManyRounds) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  core::Machine m(cfg);
  ds::MpmcQueue q(m, 1, 3);  // 3 slots, many rounds
  std::uint64_t sum = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (std::uint64_t i = 1; i <= 30; ++i) co_await q.enqueue(t, i);
  });
  m.spawn(3, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int i = 0; i < 30; ++i) sum += co_await q.dequeue(t);
  });
  m.run();
  EXPECT_EQ(sum, 30u * 31u / 2u);
}

TEST(RingQueue, MatchesDequeOracleAcrossGrowth) {
  ds::RingQueue<std::uint64_t> ring(4);
  std::queue<std::uint64_t> oracle;
  std::mt19937_64 rng(7);
  for (int op = 0; op < 100000; ++op) {
    // Bias toward push so the ring grows through several doublings, then
    // drain in bursts so head wraps across the boundary repeatedly.
    if (rng() % 3 != 0) {
      const std::uint64_t v = rng();
      ring.push_back(v);
      oracle.push(v);
    } else {
      for (int i = 0; i < 5 && !oracle.empty(); ++i) {
        EXPECT_EQ(ring.pop_front(), oracle.front());
        oracle.pop();
      }
    }
    ASSERT_EQ(ring.size(), oracle.size());
    ASSERT_EQ(ring.empty(), oracle.empty());
  }
  while (!oracle.empty()) {
    EXPECT_EQ(ring.pop_front(), oracle.front());
    oracle.pop();
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace amo
