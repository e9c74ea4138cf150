// The cell kernels: each Kernel value dispatches to one simulation body.
// These are the hand-rolled workloads of the former fig/ablation/extension
// binaries, now driven by CellParams instead of their own main().
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "bench/scenario.hpp"
#include "core/machine.hpp"
#include "sim/stats.hpp"
#include "svc/service.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"
#include "sync/mechanism.hpp"
#include "sync/spin.hpp"

namespace amo::bench {

namespace {

CellResult run_barrier_cell(const core::SystemConfig& cfg,
                            const CellParams& p) {
  BarrierParams bp;
  bp.mech = p.mech;
  bp.kind = p.kind;
  bp.fanout = p.fanout;
  bp.warmup_episodes = p.warmup_episodes;
  bp.episodes = p.episodes;
  bp.max_skew = p.max_skew;
  const BarrierResult r = run_barrier(cfg, bp);
  return CellResult{r.cycles_per_barrier, r.cycles_per_proc, r.traffic, 0};
}

CellResult run_lock_cell(const core::SystemConfig& cfg, const CellParams& p) {
  LockParams lp;
  lp.mech = p.mech;
  lp.array = p.array;
  lp.warmup_iters = p.warmup_iters;
  lp.iters = p.iters;
  lp.cs_cycles = p.cs_cycles;
  lp.max_skew = p.max_skew;
  const LockResult r = run_lock(cfg, lp);
  return CellResult{r.total_cycles, r.cycles_per_acquire, r.traffic, 0};
}

// The paper's Figure 1 scenario: a three-processor barrier, one processor
// per node, the variable homed on a fourth node, counting every one-way
// protocol message until all three proceed.
CellResult run_fig1_cell(const core::SystemConfig& cfg, const CellParams& p) {
  const sync::Mechanism mech = p.mech;
  core::Machine m(cfg);
  const sim::Addr var = m.galloc().alloc_word_line(3);  // the home node

  sim::Cycle done = 0;
  for (sim::CpuId c = 0; c < 3; ++c) {
    m.spawn(c, [&, mech](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await sync::fetch_add(mech, t, var, 1,
                                     /*test=*/std::uint64_t{3});
      if (mech == sync::Mechanism::kMao) {
        while (co_await t.uncached_load(var) != 3) co_await t.delay(400);
      } else {
        (void)co_await sync::spin_cached_until(
            t, var, [](std::uint64_t v) { return v == 3; });
      }
      done = std::max(done, t.now());
    });
  }
  m.run();
  if (JsonReporter* rep = JsonReporter::current();
      rep != nullptr && rep->active()) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "fig1_episode";
    rec["cpus"] = 3;
    rec["mechanism"] = sync::to_string(mech);
    rec["one_way_messages"] = m.stats().net.packets;
    rec["cycles"] = done;
    rec["registry"] = m.stats_json();
    rep->add(std::move(rec));
  }
  CellResult r;
  r.primary = static_cast<double>(done);
  r.aux = m.stats().net.packets;
  return r;
}

// K independent ticket locks all homed on node 0, each contended by a
// disjoint processor group; past 2*K AMU cache words the AMU thrashes.
CellResult run_multilock_cell(const core::SystemConfig& cfg,
                              const CellParams& p) {
  core::Machine m(cfg);
  const int iters = p.iters;
  // Each lock needs TWO AMU-resident words (sequencer + now_serving).
  std::vector<std::unique_ptr<sync::Lock>> locks;
  for (std::uint32_t l = 0; l < p.locks; ++l) {
    locks.push_back(sync::make_ticket_lock(m, p.mech));
  }
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    sync::Lock& lock = *locks[c % p.locks];
    m.spawn(c, [&, iters](core::ThreadCtx& t) -> sim::Task<void> {
      for (int it = 0; it < iters; ++it) {
        co_await lock.acquire(t);
        co_await t.compute(50);
        co_await lock.release(t);
        co_await t.compute(t.rng().below(200));
      }
    });
  }
  m.run();
  CellResult r;
  r.primary = static_cast<double>(m.engine().now());
  return r;
}

CellResult run_ticket_backoff_cell(const core::SystemConfig& cfg,
                                   const CellParams& p) {
  core::Machine m(cfg);
  const int iters = p.iters;
  sync::TicketLockConfig lcfg;
  lcfg.backoff = p.backoff;
  auto lock = sync::make_ticket_lock(m, p.mech, lcfg);
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, iters](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i2 = 0; i2 < iters; ++i2) {
        co_await lock->acquire(t);
        co_await t.compute(50);
        co_await lock->release(t);
        co_await t.compute(t.rng().below(200));
      }
    });
  }
  m.run();
  CellResult r;
  r.primary = static_cast<double>(m.engine().now());
  return r;
}

// Groups of four: cpu 4k produces through an AMO flag; cpus 4k+1..4k+3
// consume. Each flag has exactly three cached sharers regardless of
// machine size, so an exact directory entry fans each put out to ~2 nodes
// while a coarse (pointer-overflowed) entry must touch every node.
CellResult run_pairwise_flags_cell(const core::SystemConfig& cfg,
                                   const CellParams& p) {
  core::Machine m(cfg);
  const int rounds = p.rounds;
  const std::uint32_t groups = cfg.num_cpus / 4;
  std::vector<sim::Addr> flags;
  for (std::uint32_t k = 0; k < groups; ++k) {
    flags.push_back(m.galloc().alloc_word_line(
        (4 * k + 1) / cfg.cpus_per_node));  // homed near the consumers
  }
  for (std::uint32_t k = 0; k < groups; ++k) {
    m.spawn(4 * k, [&, k, rounds](core::ThreadCtx& t) -> sim::Task<void> {
      for (int r = 0; r < rounds; ++r) {
        co_await t.compute(300);
        (void)co_await t.amo_fetch_add(flags[k], 1);
      }
    });
    for (std::uint32_t j = 1; j <= 3; ++j) {
      m.spawn(4 * k + j,
              [&, k, rounds](core::ThreadCtx& t) -> sim::Task<void> {
        for (int r = 1; r <= rounds; ++r) {
          while (co_await t.load(flags[k]) <
                 static_cast<std::uint64_t>(r)) {
            co_await t.delay(200);
          }
          co_await t.compute(100);
        }
      });
    }
  }
  m.run();
  CellResult res;
  res.primary = static_cast<double>(m.engine().now());
  res.aux = m.stats().dir.word_updates_sent;
  return res;
}

CellResult run_barrier_style_cell(const core::SystemConfig& cfg,
                                  const CellParams& p) {
  core::Machine m(cfg);
  const int episodes = p.episodes;
  std::unique_ptr<sync::Barrier> barrier;
  switch (p.style) {
    case BarrierStyle::kNaive:
      barrier = sync::make_naive_barrier(m, p.mech, cfg.num_cpus);
      break;
    case BarrierStyle::kOptimized:
      barrier = sync::make_central_barrier(m, p.mech, cfg.num_cpus);
      break;
    case BarrierStyle::kDissemination:
      barrier = sync::make_dissemination_barrier(m, p.mech, cfg.num_cpus);
      break;
    case BarrierStyle::kMcsTree:
      barrier = sync::make_mcs_tree_barrier(m, p.mech, cfg.num_cpus);
      break;
  }
  sim::Cycle t0 = 0;
  sim::Cycle t1 = 0;
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, c, episodes](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 0; ep < episodes + 2; ++ep) {
        co_await t.compute(t.rng().below(200));
        co_await barrier->wait(t);
        if (c == 0 && ep == 1) t0 = t.now();
        if (c == 0 && ep == episodes + 1) t1 = t.now();
      }
    });
  }
  m.run();
  CellResult r;
  r.primary = static_cast<double>(t1 - t0) / episodes;
  return r;
}

CellResult run_lock_algo_cell(const core::SystemConfig& cfg,
                              const CellParams& p) {
  core::Machine m(cfg);
  const int iters = p.iters;
  std::unique_ptr<sync::Lock> lock;
  switch (p.algo) {
    case LockAlgo::kTas: lock = sync::make_tas_lock(m, p.mech); break;
    case LockAlgo::kTicket: lock = sync::make_ticket_lock(m, p.mech); break;
    case LockAlgo::kArray:
      lock = sync::make_array_lock(m, p.mech, cfg.num_cpus);
      break;
    case LockAlgo::kMcs: lock = sync::make_mcs_lock(m, p.mech); break;
    case LockAlgo::kCna:
      lock = sync::make_cna_lock(m, p.mech, cfg.hier.levels,
                                 cfg.hier.cna_threshold);
      break;
    case LockAlgo::kHmcs:
      lock = sync::make_hmcs_lock(m, p.mech, cfg.hier.levels,
                                  cfg.hier.hmcs_threshold);
      break;
  }
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, iters](core::ThreadCtx& t) -> sim::Task<void> {
      for (int i = 0; i < iters; ++i) {
        co_await lock->acquire(t);
        co_await t.compute(50);
        co_await lock->release(t);
        co_await t.compute(t.rng().below(200));
      }
    });
  }
  m.run();
  const double total = static_cast<double>(m.engine().now());
  if (JsonReporter* rep = JsonReporter::current();
      rep != nullptr && rep->active()) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "lock_algo";
    rec["cpus"] = cfg.num_cpus;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["lock"] = to_string(p.algo);
    rec["iters"] = iters;
    rec["total_cycles"] = total;
    rec["traffic"]["packets"] = m.network().stats().packets;
    rec["traffic"]["bytes"] = m.network().stats().bytes;
    rec["registry"] = m.stats_json();
    rep->add(std::move(rec));
  }
  CellResult r;
  r.primary = total;
  return r;
}

// Spin-wait virtualization cost model: `active` cpus run central-barrier
// episodes while every other cpu busy-waits on a flag that only flips
// after the last episode. Parked waiters cost no events until the flag
// flips, so host events per episode track the ACTIVE set, not the total.
CellResult run_spin_cell(const core::SystemConfig& cfg, const CellParams& p) {
  core::Machine m(cfg);
  const std::uint32_t active =
      p.active == 0 ? cfg.num_cpus : std::min(p.active, cfg.num_cpus);
  const int episodes = p.episodes;
  auto barrier = sync::make_central_barrier(m, p.mech, active);
  const sim::Addr done_flag = m.galloc().alloc_word_line(0);

  sim::Cycle t0 = 0;
  sim::Cycle t1 = 0;
  std::uint64_t e0 = 0;
  std::uint64_t e1 = 0;
  for (sim::CpuId c = 0; c < active; ++c) {
    m.spawn(c, [&, c, episodes](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 0; ep < episodes + 2; ++ep) {
        if (p.max_skew != 0) co_await t.compute(t.rng().below(p.max_skew));
        co_await barrier->wait(t);
        if (c == 0 && ep == 1) {
          t0 = t.now();
          e0 = m.engine().events_executed();
        }
        if (c == 0 && ep == episodes + 1) {
          t1 = t.now();
          e1 = m.engine().events_executed();
        }
      }
      if (c == 0) co_await t.store(done_flag, 1);
    });
  }
  for (sim::CpuId c = active; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await sync::spin_cached_until(
          t, done_flag, [](std::uint64_t v) { return v != 0; });
    });
  }
  m.run();

  const double cycles_per_ep = static_cast<double>(t1 - t0) / episodes;
  const double events_per_ep = static_cast<double>(e1 - e0) / episodes;
  if (JsonReporter* rep = JsonReporter::current();
      rep != nullptr && rep->active()) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "microbench_spin";
    rec["cpus"] = cfg.num_cpus;
    rec["active"] = active;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["episodes"] = episodes;
    rec["cycles_per_episode"] = cycles_per_ep;
    rec["events_per_episode"] = events_per_ep;
    rec["registry"] = m.stats_json();
    rep->add(std::move(rec));
  }
  CellResult r;
  r.primary = cycles_per_ep;
  r.secondary = events_per_ep;
  r.aux = e1 - e0;
  return r;
}

// Host-parallel scaling probe: tree-barrier episodes (node-local leaf
// groups spread barrier work across the PDES domains), timed in both
// simulated cycles and host wall-clock. The simulated metrics (primary,
// total_cycles, events) are deterministic per sim_threads value; wall_ms
// and events_per_sec are host measurements and land only in the --json
// record, never in identity-checked output.
CellResult run_pdes_cell(const core::SystemConfig& cfg, const CellParams& p) {
  const int episodes = p.episodes;
  sim::Cycle t0 = 0;
  sim::Cycle t1 = 0;
  std::uint64_t events = 0;
  sim::Cycle total_cycles = 0;

  const auto wall_start = std::chrono::steady_clock::now();
  {
    core::Machine m(cfg);
    auto barrier = sync::make_tree_barrier(m, p.mech, cfg.num_cpus, p.fanout);
    for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
      m.spawn(c, [&, c, episodes](core::ThreadCtx& t) -> sim::Task<void> {
        for (int ep = 0; ep < episodes + 2; ++ep) {
          if (p.max_skew != 0) co_await t.compute(t.rng().below(p.max_skew));
          co_await barrier->wait(t);
          if (c == 0 && ep == 1) t0 = t.now();
          if (c == 0 && ep == episodes + 1) t1 = t.now();
        }
      });
    }
    m.run();
    events = m.domains().total_events_executed();
    total_cycles = m.domains().max_now();
  }
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();

  const double cycles_per_ep = static_cast<double>(t1 - t0) / episodes;
  if (JsonReporter* rep = JsonReporter::current();
      rep != nullptr && rep->active()) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "microbench_pdes";
    rec["cpus"] = cfg.num_cpus;
    rec["sim_threads"] = cfg.sim_threads;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["fanout"] = p.fanout;
    rec["episodes"] = episodes;
    rec["cycles_per_episode"] = cycles_per_ep;
    rec["total_cycles"] = total_cycles;
    rec["events"] = events;
    rec["wall_ms"] = wall_ms;
    rec["events_per_sec"] =
        wall_ms > 0 ? static_cast<double>(events) * 1000.0 / wall_ms : 0.0;
    rep->add(std::move(rec));
  }
  CellResult r;
  r.primary = cycles_per_ep;
  r.secondary = wall_ms;
  r.aux = events;
  return r;
}

// Hierarchy-aware barrier probe: the flat fixed-fanout tree barrier vs
// the cluster-hierarchical barrier (software fan-in or AMU aggregation),
// measuring cycles per episode AND the packets crossing the fat tree's
// ROOT links — the contended resource the hierarchy exists to relieve.
// Root-link counts are read once after the run (mid-run snapshots would
// race under sim_threads > 1), so the per-episode figure averages the
// warmup episodes in; both variants pay the same warmup, so the gate's
// ratio is unaffected. Wall-clock lands only in the --json record.
CellResult run_hier_cell(const core::SystemConfig& cfg, const CellParams& p) {
  const int episodes = p.episodes;
  sim::Cycle t0 = 0;
  sim::Cycle t1 = 0;
  std::uint64_t root_links = 0;
  std::uint64_t events = 0;
  TrafficSnapshot traffic;

  const auto wall_start = std::chrono::steady_clock::now();
  {
    core::Machine m(cfg);
    std::unique_ptr<sync::Barrier> barrier;
    switch (p.hier) {
      case HierBarrier::kFlatTree:
        barrier = sync::make_tree_barrier(m, p.mech, cfg.num_cpus, p.fanout);
        break;
      case HierBarrier::kCluster:
        // Software fan-in unless the config opts into AMU combining;
        // the cluster_amu variant forces it regardless of the knob.
        barrier = sync::make_cluster_barrier(m, p.mech, cfg.num_cpus,
                                             cfg.hier.levels,
                                             cfg.hier.amu_aggregation);
        break;
      case HierBarrier::kClusterAmu:
        barrier = sync::make_cluster_barrier(m, p.mech, cfg.num_cpus,
                                             cfg.hier.levels,
                                             /*amu_aggregation=*/true);
        break;
    }
    for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
      m.spawn(c, [&, c, episodes](core::ThreadCtx& t) -> sim::Task<void> {
        for (int ep = 0; ep < episodes + 2; ++ep) {
          if (p.max_skew != 0) co_await t.compute(t.rng().below(p.max_skew));
          co_await barrier->wait(t);
          if (c == 0 && ep == 1) t0 = t.now();
          if (c == 0 && ep == episodes + 1) t1 = t.now();
        }
      });
    }
    m.run();
    root_links = m.network().root_link_traversals();
    events = m.domains().total_events_executed();
    traffic.packets = m.network().stats().packets;
    traffic.bytes = m.network().stats().bytes;
  }
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();

  const double cycles_per_ep = static_cast<double>(t1 - t0) / episodes;
  const double root_per_ep =
      static_cast<double>(root_links) / (episodes + 2);
  if (JsonReporter* rep = JsonReporter::current();
      rep != nullptr && rep->active()) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "microbench_hier";
    rec["cpus"] = cfg.num_cpus;
    rec["sim_threads"] = cfg.sim_threads;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["barrier"] = to_string(p.hier);
    rec["levels"] = cfg.hier.levels;
    rec["radix"] = cfg.net.radix;
    rec["episodes"] = episodes;
    rec["cycles_per_episode"] = cycles_per_ep;
    rec["root_link_messages"] = root_links;
    rec["root_link_messages_per_episode"] = root_per_ep;
    rec["events"] = events;
    rec["wall_ms"] = wall_ms;
    rep->add(std::move(rec));
  }
  CellResult r;
  r.primary = cycles_per_ep;
  r.secondary = root_per_ep;
  r.traffic = traffic;
  r.aux = root_links;
  return r;
}

// Open-loop sharded-service scenario: every cpu runs an independent
// Poisson arrival process (mean gap = service.interarrival_cycles) and
// pushes each request through the ShardedService. Latency is measured
// from the *scheduled* arrival, so when the service can't keep up the
// backlog is charged to the requests — the heavy-traffic regime where
// LL/SC retry collapse shows as a p999 explosion. Latencies land in
// per-domain LogHistogram shards merged in ascending domain order, so
// the emitted quantiles are identical across --sim-threads.
CellResult run_service_cell(const core::SystemConfig& cfg_in,
                            const CellParams& p) {
  core::SystemConfig cfg = cfg_in;
  cfg.stats.histograms = true;  // this scenario exists to read them
  core::Machine m(cfg);
  svc::ShardedService service(m, p.mech);
  const std::uint64_t requests = p.requests;
  const sim::Cycle mean_gap = cfg.service.interarrival_cycles;
  std::vector<sim::LogHistogram> lat(m.domains().count());
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    const std::uint32_t dom = m.domains().domain_of(c / cfg.cpus_per_node);
    m.spawn(c, [&service, &lat, dom, requests,
                mean_gap](core::ThreadCtx& t) -> sim::Task<void> {
      sim::LogHistogram& h = lat[dom];
      sim::Cycle next = 0;
      for (std::uint64_t i = 0; i < requests; ++i) {
        const double gap =
            t.rng().exponential() * static_cast<double>(mean_gap);
        next += std::max<sim::Cycle>(
            1, static_cast<sim::Cycle>(std::ceil(gap)));
        if (t.now() < next) co_await t.delay(next - t.now());
        const std::uint64_t key = t.rng().next() % service.key_space();
        co_await service.handle(t, key);
        h.record(t.now() - next);
      }
    });
  }
  m.run();
  sim::LogHistogram merged;
  for (const sim::LogHistogram& h : lat) merged += h;

  const sim::Cycle total_cycles = m.domains().max_now();
  if (JsonReporter* rep = JsonReporter::current();
      rep != nullptr && rep->active()) {
    sim::Json rec = sim::Json::object();
    rec["workload"] = "service";
    rec["cpus"] = cfg.num_cpus;
    rec["sim_threads"] = cfg.sim_threads;
    rec["mechanism"] = sync::to_string(p.mech);
    rec["shards"] = service.num_shards();
    rec["interarrival"] = mean_gap;
    rec["requests"] = merged.count();
    rec["latency"]["mean"] = merged.mean();
    rec["latency"]["min"] = merged.min();
    rec["latency"]["max"] = merged.max();
    rec["latency"]["p50"] = merged.quantile(0.50);
    rec["latency"]["p90"] = merged.quantile(0.90);
    rec["latency"]["p99"] = merged.quantile(0.99);
    rec["latency"]["p999"] = merged.quantile(0.999);
    rec["cycles"] = total_cycles;
    rec["registry"] = m.stats_json();
    rep->add(std::move(rec));
  }
  CellResult r;
  r.primary = static_cast<double>(merged.quantile(0.999));
  r.secondary = merged.mean();
  r.traffic.packets = m.network().stats().packets;
  r.traffic.bytes = m.network().stats().bytes;
  r.aux = merged.count();
  return r;
}

}  // namespace

CellResult run_cell(const core::SystemConfig& cfg, const CellParams& params) {
  switch (params.kernel) {
    case Kernel::kBarrier: return run_barrier_cell(cfg, params);
    case Kernel::kLock: return run_lock_cell(cfg, params);
    case Kernel::kLockAlgo: return run_lock_algo_cell(cfg, params);
    case Kernel::kTicketBackoff: return run_ticket_backoff_cell(cfg, params);
    case Kernel::kFig1Episode: return run_fig1_cell(cfg, params);
    case Kernel::kMultiLock: return run_multilock_cell(cfg, params);
    case Kernel::kPairwiseFlags: return run_pairwise_flags_cell(cfg, params);
    case Kernel::kBarrierStyle: return run_barrier_style_cell(cfg, params);
    case Kernel::kSpin: return run_spin_cell(cfg, params);
    case Kernel::kPdes: return run_pdes_cell(cfg, params);
    case Kernel::kHier: return run_hier_cell(cfg, params);
    case Kernel::kService: return run_service_cell(cfg, params);
  }
  return {};
}

}  // namespace amo::bench
