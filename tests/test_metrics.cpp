// The typed metrics layer: LogHistogram bucket math, quantiles vs a
// sorted-sample oracle, associative merge, the registry's typed handles,
// Rng::exponential determinism, and the end-to-end histogram threading
// (stats.histograms off = byte-identical snapshots, on = the new dotted
// groups appear and fill, one sync sample per acquire() or wait()).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
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
  sim::StatsRegistry reg(/*histograms=*/true);
  std::uint64_t counter = 41;
  sim::Accum acc;
  acc.add(10);
  acc.add(20);
  reg.add_counter("a.counter", &counter);
  reg.add_accum("a.accum", &acc);
  sim::LogHistogram* hist = reg.hist("a.hist");
  ASSERT_NE(hist, nullptr);
  hist->record(100);
  hist->record(1000);
  reg.add_fn("b.fn", [] { return std::uint64_t{7}; });
  ++counter;

  EXPECT_THROW(reg.add_counter("a.counter", &counter), std::logic_error);
  EXPECT_THROW((void)reg.hist("a.hist"), std::logic_error);

  const sim::Json snap = reg.snapshot();
  EXPECT_EQ(snap.find_path("a.counter")->as_uint(), 42u);
  EXPECT_EQ(snap.find_path("a.accum.count")->as_uint(), 2u);
  EXPECT_EQ(snap.find_path("a.hist.count")->as_uint(), 2u);
  EXPECT_EQ(snap.find_path("a.hist.p50")->as_uint(), hist->quantile(0.5));
  EXPECT_NE(snap.find_path("a.hist.p90"), nullptr);
  EXPECT_NE(snap.find_path("a.hist.p99"), nullptr);
  EXPECT_NE(snap.find_path("a.hist.p999"), nullptr);
  EXPECT_EQ(snap.find_path("b.fn")->as_uint(), 7u);
}

TEST(StatsRegistry, HistOffHandsOutNothing) {
  sim::StatsRegistry reg;
  std::uint64_t counter = 1;
  reg.add_counter("a.counter", &counter);
  EXPECT_FALSE(reg.histograms());
  EXPECT_EQ(reg.hist("a.hist"), nullptr);
  EXPECT_EQ(reg.hist("a.hist"), nullptr);  // no entry, so no duplicate
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.snapshot().dump(), R"({"a":{"counter":1}})");
}

TEST(StatsRegistry, HistOnRegistersAtTheCall) {
  sim::StatsRegistry reg(/*histograms=*/true);
  std::uint64_t first = 1;
  std::uint64_t last = 2;
  reg.add_counter("first", &first);
  sim::LogHistogram* h = reg.hist("mid_hist");
  reg.add_counter("last", &last);
  ASSERT_NE(h, nullptr);
  h->record(5);
  EXPECT_EQ(reg.size(), 3u);
  const sim::Json snap = reg.snapshot();
  std::vector<std::string> keys;
  for (const auto& [key, v] : snap.items()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"first", "mid_hist", "last"}));
  EXPECT_EQ(reg.value("mid_hist").find("count")->as_uint(), 1u);
  EXPECT_THROW((void)reg.hist("mid_hist"), std::logic_error);
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

// Every lock factory and every barrier shape, for the recording check.
struct Primitive {
  const char* name;
  std::unique_ptr<sync::Lock> (*lock)(core::Machine&, sync::Mechanism);
  std::unique_ptr<sync::Barrier> (*barrier)(core::Machine&, sync::Mechanism);
};

const Primitive kPrimitives[] = {
    {"tas", &sync::make_tas_lock, nullptr},
    {"ticket",
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_ticket_lock(m, mech);
     },
     nullptr},
    {"array",
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_array_lock(m, mech, m.num_cpus());
     },
     nullptr},
    {"mcs", &sync::make_mcs_lock, nullptr},
    {"cna",
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_cna_lock(m, mech, 0, 2);
     },
     nullptr},
    {"hmcs",
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_hmcs_lock(m, mech, 1, 2);
     },
     nullptr},
    {"central", nullptr,
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_central_barrier(m, mech, m.num_cpus());
     }},
    {"tree", nullptr,
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_tree_barrier(m, mech, m.num_cpus(), 4);
     }},
    {"cluster", nullptr,
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_cluster_barrier(m, mech, m.num_cpus(), 1,
                                         /*amu_aggregation=*/true);
     }},
    {"naive", nullptr,
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_naive_barrier(m, mech, m.num_cpus());
     }},
    {"dissemination", nullptr,
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_dissemination_barrier(m, mech, m.num_cpus());
     }},
    {"mcs_tree", nullptr,
     [](core::Machine& m, sync::Mechanism mech) {
       return sync::make_mcs_tree_barrier(m, mech, m.num_cpus());
     }},
};

// Every acquire() and every wait() adds exactly one sample, for every
// primitive under every mechanism, and a lock records no episode nor a
// barrier an acquire.
TEST(MachineHistograms, OneSamplePerAcquireOrWait) {
  constexpr std::uint32_t kCpus = 8;
  constexpr int kCalls = 3;
  for (const Primitive& p : kPrimitives) {
    for (const sync::Mechanism mech : sync::kAllMechanisms) {
      SCOPED_TRACE(std::string(p.name) + " " + sync::to_string(mech));
      core::SystemConfig cfg;
      cfg.num_cpus = kCpus;
      cfg.cpus_per_node = 4;
      cfg.stats.histograms = true;
      core::Machine m(cfg);
      std::unique_ptr<sync::Lock> lock;
      std::unique_ptr<sync::Barrier> barrier;
      if (p.lock != nullptr) lock = p.lock(m, mech);
      if (p.barrier != nullptr) barrier = p.barrier(m, mech);
      for (sim::CpuId c = 0; c < kCpus; ++c) {
        m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
          for (int i = 0; i < kCalls; ++i) {
            co_await t.compute(t.rng().below(200));
            if (lock) {
              co_await lock->acquire(t);
              co_await lock->release(t);
            } else {
              co_await barrier->wait(t);
            }
          }
        });
      }
      m.run();
      const sim::Json snap = m.stats_json();
      std::uint64_t acquires = kCpus * kCalls;
      std::uint64_t episodes = 0;
      if (barrier) std::swap(acquires, episodes);
      EXPECT_EQ(snap.find_path("sync.lock_acquire_hist.count")->as_uint(),
                acquires);
      EXPECT_EQ(snap.find_path("sync.barrier_episode_hist.count")->as_uint(),
                episodes);
    }
  }
}

// Dotted names of every histogram in a snapshot, in snapshot order. A
// histogram is the only object with a p999 field.
void collect_hists(const sim::Json& node, const std::string& prefix,
                   std::vector<std::string>& out) {
  for (const auto& [key, v] : node.items()) {
    if (!v.is_object()) continue;
    const std::string name = prefix.empty() ? key : prefix + "." + key;
    if (v.find("p999") != nullptr) {
      out.push_back(name);
    } else {
      collect_hists(v, name, out);
    }
  }
}

// Pins where each histogram sits in a histogram-on snapshot of an 8-CPU
// machine: a change to how histograms are wired must keep every one in
// place.
TEST(MachineHistograms, EnabledEntriesKeepTheirOrder) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  cfg.stats.histograms = true;
  core::Machine m(cfg);
  std::vector<std::string> names;
  collect_hists(m.stats_json(), "", names);
  const std::vector<std::string> expected = {
      "engine.dispatch_delay_hist",
      "net.link_latency_hist.l0",
      "node0.dir.occupancy_wait_hist",
      "node0.amu.queue_wait_hist",
      "node1.dir.occupancy_wait_hist",
      "node1.amu.queue_wait_hist",
      "node2.dir.occupancy_wait_hist",
      "node2.amu.queue_wait_hist",
      "node3.dir.occupancy_wait_hist",
      "node3.amu.queue_wait_hist",
      "cpu0.cache.mshr_residency_hist",
      "cpu1.cache.mshr_residency_hist",
      "cpu2.cache.mshr_residency_hist",
      "cpu3.cache.mshr_residency_hist",
      "cpu4.cache.mshr_residency_hist",
      "cpu5.cache.mshr_residency_hist",
      "cpu6.cache.mshr_residency_hist",
      "cpu7.cache.mshr_residency_hist",
      "sync.lock_acquire_hist",
      "sync.barrier_episode_hist",
  };
  EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace amo
