// The typed metrics layer: LogHistogram bucket math, quantiles vs a
// sorted-sample oracle, associative merge, the registry's typed handles,
// Rng::exponential determinism, and the end-to-end histogram threading
// (stats.histograms off = byte-identical snapshots, on = the new dotted
// groups appear and fill).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/machine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/stats_registry.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"

namespace amo {
namespace {

// ------------------------------------------------------ LogHistogram

TEST(LogHistogram, EmptyIsAllZero) {
  sim::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(LogHistogram, SingleValueIsExactAtEveryQuantile) {
  sim::LogHistogram h;
  h.record(12345);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile(q), 12345u) << "q=" << q;
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 12345u);
  EXPECT_EQ(h.max(), 12345u);
}

TEST(LogHistogram, SmallValuesAreExact) {
  sim::LogHistogram h;
  for (std::uint64_t v = 0; v < sim::LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(sim::LogHistogram::bucket_index(v), v);
    EXPECT_EQ(sim::LogHistogram::bucket_upper(v), v);
  }
}

TEST(LogHistogram, BucketIndexUpperRoundTrip) {
  // Every probe value must land in a bucket whose upper bound is >= the
  // value and within the relative-error budget; bucket_upper must itself
  // map back into the same bucket.
  std::vector<std::uint64_t> probes;
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t base = std::uint64_t{1} << b;
    probes.push_back(base);
    probes.push_back(base + base / 3);
    if (base > 1) probes.push_back(base - 1);
  }
  probes.push_back(std::numeric_limits<std::uint64_t>::max());
  for (std::uint64_t v : probes) {
    const std::size_t i = sim::LogHistogram::bucket_index(v);
    ASSERT_LT(i, sim::LogHistogram::kBuckets) << v;
    const std::uint64_t up = sim::LogHistogram::bucket_upper(i);
    EXPECT_GE(up, v);
    EXPECT_EQ(sim::LogHistogram::bucket_index(up), i) << v;
    // Bucket width bounds the relative error at 1/kSubBuckets.
    EXPECT_LE(static_cast<double>(up - v),
              static_cast<double>(v) / sim::LogHistogram::kSubBuckets + 1.0)
        << v;
  }
}

// Property test: quantiles agree with a sorted-sample oracle to within
// one bucket's relative error over 100k randomized values spanning many
// magnitudes.
TEST(LogHistogram, QuantilesMatchSortedOracle) {
  sim::Rng rng(20260809);
  sim::LogHistogram h;
  std::vector<std::uint64_t> samples;
  samples.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    // Log-uniform magnitudes 0..2^40 plus a heavy cluster of small values
    // — the shape of latency data.
    const std::uint32_t mag = rng.below(41);
    const std::uint64_t v = rng.below((std::uint64_t{1} << mag) + 1);
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.min(), samples.front());
  EXPECT_EQ(h.max(), samples.back());
  for (double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(samples.size())))));
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t est = h.quantile(q);
    // The estimate is the bucket's upper bound: never below the exact
    // sample, and above it by at most one bucket width (1/16 relative).
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact) * (1.0 + 1.0 / 16.0) + 1.0)
        << "q=" << q;
  }
}

TEST(LogHistogram, MergeIsExactAndAssociative) {
  sim::Rng rng(7);
  // Four shards, as a 4-domain machine would produce.
  std::vector<sim::LogHistogram> shards(4);
  sim::LogHistogram whole;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.below(std::uint64_t{1} << rng.below(32));
    shards[rng.below(4)].record(v);
    whole.record(v);
  }
  // Ascending merge == the merge of any other grouping == direct record.
  sim::LogHistogram asc;
  for (const auto& s : shards) asc += s;
  sim::LogHistogram desc;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) desc += *it;
  sim::LogHistogram paired;  // (0+1) + (2+3)
  {
    sim::LogHistogram a = shards[0];
    a += shards[1];
    sim::LogHistogram b = shards[2];
    b += shards[3];
    paired += a;
    paired += b;
  }
  for (const sim::LogHistogram* m : {&asc, &desc, &paired}) {
    EXPECT_EQ(m->count(), whole.count());
    EXPECT_EQ(m->sum(), whole.sum());
    EXPECT_EQ(m->min(), whole.min());
    EXPECT_EQ(m->max(), whole.max());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(m->quantile(q), whole.quantile(q)) << "q=" << q;
    }
  }
  // Merging an empty histogram is a no-op.
  sim::LogHistogram before = whole;
  whole += sim::LogHistogram{};
  EXPECT_EQ(whole.quantile(0.999), before.quantile(0.999));
  EXPECT_EQ(whole.count(), before.count());
}

// --------------------------------------------------- StatsRegistry

TEST(StatsRegistry, TypedHandlesSnapshotAndThrowOnDuplicates) {
  sim::StatsRegistry reg;
  std::uint64_t counter = 41;
  sim::Accum acc;
  acc.add(10);
  acc.add(20);
  sim::LogHistogram hist;
  hist.record(100);
  hist.record(1000);
  reg.add_counter("a.counter", &counter);
  reg.add_accum("a.accum", &acc);
  reg.add_hist("a.hist", &hist);
  reg.add_fn("b.fn", [] { return std::uint64_t{7}; });
  ++counter;

  EXPECT_THROW(reg.add_counter("a.counter", &counter), std::logic_error);
  EXPECT_THROW(reg.add_hist("a.hist", &hist), std::logic_error);

  const sim::Json snap = reg.snapshot();
  EXPECT_EQ(snap.find_path("a.counter")->as_uint(), 42u);
  EXPECT_EQ(snap.find_path("a.accum.count")->as_uint(), 2u);
  EXPECT_EQ(snap.find_path("a.hist.count")->as_uint(), 2u);
  EXPECT_EQ(snap.find_path("a.hist.p50")->as_uint(), hist.quantile(0.5));
  EXPECT_NE(snap.find_path("a.hist.p90"), nullptr);
  EXPECT_NE(snap.find_path("a.hist.p99"), nullptr);
  EXPECT_NE(snap.find_path("a.hist.p999"), nullptr);
  EXPECT_EQ(snap.find_path("b.fn")->as_uint(), 7u);
}

// ------------------------------------------------- Rng::exponential

TEST(RngExponential, DeterministicAndOneDrawPerCall) {
  sim::Rng a(123);
  sim::Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    const double va = a.exponential();
    EXPECT_GE(va, 0.0);
    EXPECT_EQ(va, b.exponential()) << i;
  }
  // Exactly one next() per call: a parallel stream advanced by next()
  // stays in lockstep.
  sim::Rng c(9);
  sim::Rng d(9);
  (void)c.exponential();
  (void)d.next();
  EXPECT_EQ(c.next(), d.next());
}

TEST(RngExponential, MeanIsNearOne) {
  sim::Rng rng(42);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential();
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

// ------------------------------------- machine-level histogram wiring

TEST(MachineHistograms, OffByDefaultSnapshotsAreUnchanged) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  core::Machine m(cfg);
  auto barrier = sync::make_central_barrier(m, sync::Mechanism::kAmo, 8);
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 0; ep < 3; ++ep) co_await barrier->wait(t);
    });
  }
  m.run();
  const sim::Json snap = m.stats_json();
  EXPECT_EQ(snap.find_path("engine.dispatch_delay_hist"), nullptr);
  EXPECT_EQ(snap.find_path("sync.lock_acquire_hist"), nullptr);
  EXPECT_EQ(snap.find_path("sync.barrier_episode_hist"), nullptr);
  EXPECT_EQ(snap.find_path("node0.dram"), nullptr);
  EXPECT_EQ(snap.find_path("node0.dir.occupancy_wait_hist"), nullptr);
  EXPECT_EQ(snap.find_path("node0.amu.queue_wait_hist"), nullptr);
  EXPECT_EQ(snap.find_path("cpu0.cache.mshr_residency_hist"), nullptr);
}

TEST(MachineHistograms, EnabledGroupsAppearAndFill) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  cfg.stats.histograms = true;
  core::Machine m(cfg);
  auto lock = sync::make_ticket_lock(m, sync::Mechanism::kAmo);
  auto barrier = sync::make_central_barrier(m, sync::Mechanism::kLlSc, 8);
  for (sim::CpuId c = 0; c < 8; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < 4; ++i) {
        co_await lock->acquire(t);
        co_await t.compute(30);
        co_await lock->release(t);
        co_await barrier->wait(t);
      }
    });
  }
  m.run();
  const sim::Json snap = m.stats_json();
  // The new dotted groups exist and saw traffic.
  EXPECT_GT(snap.find_path("engine.dispatch_delay_hist.count")->as_uint(),
            0u);
  EXPECT_EQ(snap.find_path("sync.lock_acquire_hist.count")->as_uint(),
            8u * 4u);
  EXPECT_EQ(snap.find_path("sync.barrier_episode_hist.count")->as_uint(),
            8u * 4u);
  EXPECT_GT(snap.find_path("net.link_latency_hist.l0.count")->as_uint(), 0u);
  EXPECT_NE(snap.find_path("node0.dram.queue_wait_hist.count"), nullptr);
  EXPECT_GT(snap.find_path("cpu0.cache.mshr_residency_hist.count")->as_uint(),
            0u);
  EXPECT_NE(snap.find_path("node0.dir.occupancy_wait_hist.count"), nullptr);
  EXPECT_NE(snap.find_path("node0.amu.queue_wait_hist.count"), nullptr);
  // Quantile fields are emitted and ordered.
  const std::uint64_t p50 =
      snap.find_path("sync.lock_acquire_hist.p50")->as_uint();
  const std::uint64_t p999 =
      snap.find_path("sync.lock_acquire_hist.p999")->as_uint();
  EXPECT_LE(p50, p999);
}

}  // namespace
}  // namespace amo
