// The cell kernels behind run_cell. Every barrier and lock kernel goes
// through one episode driver: a factory builds the sync object the cell
// asks for, one loop runs barrier episodes or lock passages over it, and
// one builder writes the --json record. The kernels differ only in what
// they report. fig1, the pairwise flags and the service keep their own
// thread programs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
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

TrafficSnapshot snap(const net::Network& n) {
  return TrafficSnapshot{n.stats().packets, n.stats().bytes};
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ------------------------------------------------------------- records

// The machine knobs ablations sweep, so --json records are
// self-describing even when a bench varies more than the CPU count.
sim::Json config_json(const core::SystemConfig& cfg) {
  sim::Json j = sim::Json::object();
  j["num_cpus"] = cfg.num_cpus;
  j["cpus_per_node"] = cfg.cpus_per_node;
  j["hop_cycles"] = cfg.net.hop_cycles;
  j["hardware_multicast"] = cfg.net.hardware_multicast;
  j["amu_cache_words"] = cfg.amu.cache_words;
  j["amu_eager_put_all"] = cfg.amu.eager_put_all;
  j["seed"] = cfg.seed;
  return j;
}

/// The fields a record shares with the others. A `head` field sits
/// between cpus and mechanism; traffic, config and the registry dump close
/// the record when given.
struct RecordShape {
  const char* workload;
  std::uint32_t cpus;
  sync::Mechanism mech;
  std::optional<std::pair<const char*, std::uint64_t>> head;
  const TrafficSnapshot* traffic = nullptr;
  const core::SystemConfig* config = nullptr;
  const core::Machine* registry = nullptr;
};

/// The record builder: writes `s` around the kernel's own fields, which
/// `body` adds. A no-op unless a --json reporter is listening.
template <typename Body>
void emit(const RecordShape& s, Body body) {
  JsonReporter* rep = JsonReporter::current();
  if (rep == nullptr || !rep->active()) return;
  sim::Json rec = sim::Json::object();
  rec["workload"] = s.workload;
  rec["cpus"] = s.cpus;
  if (s.head) rec[s.head->first] = s.head->second;
  rec["mechanism"] = sync::to_string(s.mech);
  body(rec);
  if (s.traffic != nullptr) {
    rec["traffic"]["packets"] = s.traffic->packets;
    rec["traffic"]["bytes"] = s.traffic->bytes;
  }
  if (s.config != nullptr) rec["config"] = config_json(*s.config);
  if (s.registry != nullptr) rec["registry"] = s.registry->stats_json();
  rep->add(std::move(rec));
}

// ----------------------------------------------------------- factories

/// The barrier a cell asks for, over CPUs [0, n). Flat kHier always
/// builds the tree barrier; kBarrier and kSpin follow `kind`.
std::unique_ptr<sync::Barrier> make_barrier(core::Machine& m,
                                            const CellParams& p,
                                            std::uint32_t n) {
  const core::HierConfig& hier = m.config().hier;
  if (p.kernel == Kernel::kBarrierStyle) {
    switch (p.style) {
      case BarrierStyle::kNaive:
        return sync::make_naive_barrier(m, p.mech, n);
      case BarrierStyle::kOptimized:
        return sync::make_central_barrier(m, p.mech, n);
      case BarrierStyle::kDissemination:
        return sync::make_dissemination_barrier(m, p.mech, n);
      case BarrierStyle::kMcsTree:
        return sync::make_mcs_tree_barrier(m, p.mech, n);
    }
  }
  if (p.kernel == Kernel::kHier && p.hier != HierBarrier::kFlatTree) {
    // Software fan-in unless the config opts into AMU combining; the
    // cluster_amu variant forces it regardless of the knob.
    return sync::make_cluster_barrier(
        m, p.mech, n, hier.levels,
        p.hier == HierBarrier::kClusterAmu || hier.amu_aggregation);
  }
  if (p.kernel == Kernel::kHier || p.kind == BarrierKind::kTree) {
    return sync::make_tree_barrier(m, p.mech, n, p.fanout);
  }
  return sync::make_central_barrier(m, p.mech, n);
}

/// The lock a cell asks for: kLock picks ticket or array by `array`, the
/// other lock kernels name an algorithm.
std::unique_ptr<sync::Lock> make_lock(core::Machine& m, const CellParams& p) {
  const core::HierConfig& hier = m.config().hier;
  const LockAlgo algo = p.kernel != Kernel::kLock ? p.algo
                        : p.array                 ? LockAlgo::kArray
                                                  : LockAlgo::kTicket;
  switch (algo) {
    case LockAlgo::kTas: return sync::make_tas_lock(m, p.mech);
    case LockAlgo::kTicket: {
      sync::TicketLockConfig cfg;
      cfg.backoff = p.backoff;
      return sync::make_ticket_lock(m, p.mech, cfg);
    }
    case LockAlgo::kArray:
      return sync::make_array_lock(m, p.mech, m.num_cpus());
    case LockAlgo::kMcs: return sync::make_mcs_lock(m, p.mech);
    case LockAlgo::kCna:
      return sync::make_cna_lock(m, p.mech, hier.levels, hier.cna_threshold);
    case LockAlgo::kHmcs:
      return sync::make_hmcs_lock(m, p.mech, hier.levels,
                                  hier.hmcs_threshold);
  }
  return nullptr;
}

// ------------------------------------------------------------- driver

/// The network traffic over a loop's measured region.
struct TrafficWindow {
  const net::Network& net;
  TrafficSnapshot start{};
  TrafficSnapshot end{};

  void open() { start = snap(net); }
  void close() { end = snap(net); }
  [[nodiscard]] TrafficSnapshot traffic() const {
    return {end.packets - start.packets, end.bytes - start.bytes};
  }
};

/// What the barrier-episode loop measured.
struct Episodes {
  std::uint32_t active = 0;     // CPUs that ran the barrier
  sim::Cycle t0 = 0;            // thread 0, after its last warm-up exit
  sim::Cycle t1 = 0;            // thread 0, after its last exit
  std::uint64_t e0 = 0;         // events executed at t0
  std::uint64_t e1 = 0;         // ... and at t1
  TrafficSnapshot traffic;      // network traffic between t0 and t1
};

/// The barrier-episode loop. The first `active` CPUs (all by default) run
/// warm-up then measured episodes, each after a random skew. Thread 0
/// brackets the measured region; every thread is within one barrier of
/// it there. For kSpin the other CPUs park on a flag that thread 0 raises
/// after its last episode.
Episodes run_episodes(core::Machine& m, const CellParams& p) {
  const std::uint32_t cpus = m.num_cpus();
  Episodes r;
  r.active = p.active == 0 ? cpus : std::min(p.active, cpus);
  const std::unique_ptr<sync::Barrier> barrier = make_barrier(m, p, r.active);
  const bool spin = p.kernel == Kernel::kSpin;
  const sim::Addr done = spin ? m.galloc().alloc_word_line(0) : 0;
  const int total = p.warmup_episodes + p.episodes;
  TrafficWindow window{m.network()};
  for (sim::CpuId c = 0; c < r.active; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 0; ep < total; ++ep) {
        if (p.max_skew > 0) co_await t.compute(t.rng().below(p.max_skew));
        co_await barrier->wait(t);
        if (c != 0) continue;
        if (ep == p.warmup_episodes - 1) {
          r.t0 = t.now();
          r.e0 = m.engine().events_executed();
          window.open();
        }
        if (ep == total - 1) {
          r.t1 = t.now();
          r.e1 = m.engine().events_executed();
          window.close();
        }
      }
      if (spin && c == 0) co_await t.store(done, 1);
    });
  }
  for (sim::CpuId c = r.active; spin && c < cpus; ++c) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      (void)co_await sync::spin_cached_until(
          t, done, [](std::uint64_t v) { return v != 0; });
    });
  }
  m.run();
  r.traffic = window.traffic();
  return r;
}

/// What the lock-passage loop measured.
struct Passages {
  sim::Cycle t_start = 0;  // thread 0 past the fence (0 without warm-up)
  sim::Cycle t_end = 0;    // the last finisher's exit
  sim::Cycle now = 0;      // the clock once the run drained
  TrafficSnapshot traffic;  // network traffic between t_start and t_end
};

/// The lock-passage loop: CPU c runs `iters` passages (acquire, critical
/// section, release, random skew) on lock c % locks. With `warmup` each
/// CPU first runs warm-up passages, then meets the others at a fence that
/// opens the measured region. The fence is a central barrier on
/// processor-side atomics whatever the lock's mechanism; its traffic
/// falls outside the window.
Passages run_passages(core::Machine& m, const CellParams& p, bool warmup) {
  const std::uint32_t cpus = m.num_cpus();
  std::vector<std::unique_ptr<sync::Lock>> locks;
  for (std::uint32_t l = 0; l < std::max(p.locks, 1u); ++l) {
    locks.push_back(make_lock(m, p));
  }
  const std::unique_ptr<sync::Barrier> fence =
      warmup ? sync::make_central_barrier(m, sync::Mechanism::kAtomic, cpus)
             : nullptr;
  // The last finisher closes the window.
  std::vector<sim::Cycle> finish_at(cpus, 0);
  std::uint32_t finished = 0;
  TrafficWindow window{m.network()};
  Passages r;
  for (sim::CpuId c = 0; c < cpus; ++c) {
    sync::Lock* lock = locks[c % locks.size()].get();
    m.spawn(c, [&, c, lock](core::ThreadCtx& t) -> sim::Task<void> {
      if (fence) {
        for (int i = 0; i < p.warmup_iters; ++i) {
          co_await lock->acquire(t);
          co_await t.compute(p.cs_cycles);
          co_await lock->release(t);
          // Draws even at max_skew 0, unlike the measured passages.
          co_await t.compute(t.rng().below(p.max_skew + 1));
        }
        co_await fence->wait(t);
        if (c == 0) {
          r.t_start = t.now();
          window.open();
        }
      }
      for (int i = 0; i < p.iters; ++i) {
        co_await lock->acquire(t);
        co_await t.compute(p.cs_cycles);
        co_await lock->release(t);
        if (p.max_skew > 0) co_await t.compute(t.rng().below(p.max_skew));
      }
      finish_at[c] = t.now();
      if (++finished == cpus) window.close();
    });
  }
  m.run();
  r.t_end = *std::max_element(finish_at.begin(), finish_at.end());
  r.now = m.engine().now();
  r.traffic = window.traffic();
  return r;
}

// ------------------------------------------------------------- kernels

/// kBarrier, kBarrierStyle, kSpin and kHier. kHier times the whole cell
/// on the host, machine construction and teardown included; host time
/// lands only in the --json record, never in identity-checked numbers.
CellResult run_barrier_kernel(const core::SystemConfig& cfg,
                              const CellParams& p) {
  const auto wall_start = std::chrono::steady_clock::now();
  auto m = std::make_unique<core::Machine>(cfg);
  const Episodes e = run_episodes(*m, p);
  CellResult r;
  r.primary = static_cast<double>(e.t1 - e.t0) / p.episodes;
  switch (p.kernel) {
    case Kernel::kBarrier:
      r.secondary = r.primary / cfg.num_cpus;
      r.traffic = e.traffic;
      emit({"barrier", cfg.num_cpus, p.mech, {}, &e.traffic, &cfg, m.get()},
           [&](sim::Json& rec) {
             rec["barrier"] = to_string(p.kind);
             if (p.kind == BarrierKind::kTree) rec["fanout"] = p.fanout;
             rec["episodes"] = p.episodes;
             rec["cycles_per_barrier"] = r.primary;
             rec["cycles_per_proc"] = r.secondary;
           });
      break;
    case Kernel::kSpin:
      // Parked waiters cost no events until the flag flips, so host
      // events per episode track the active set, not the machine size.
      r.aux = e.e1 - e.e0;
      r.secondary = static_cast<double>(r.aux) / p.episodes;
      emit({"microbench_spin", cfg.num_cpus, p.mech,
            std::pair("active", e.active), nullptr, nullptr, m.get()},
           [&](sim::Json& rec) {
             rec["episodes"] = p.episodes;
             rec["cycles_per_episode"] = r.primary;
             rec["events_per_episode"] = r.secondary;
           });
      break;
    case Kernel::kHier: {
      // Packets crossing the fat tree's root links, the resource the
      // hierarchy exists to relieve. They are read once after the run, so
      // the per-episode figure averages the warm-up in; every variant pays
      // the same warm-up.
      r.aux = m->network().root_link_traversals();
      r.secondary = static_cast<double>(r.aux) /
                    (p.warmup_episodes + p.episodes);
      r.traffic = snap(m->network());
      const std::uint64_t events = m->engine().events_executed();
      m.reset();
      const double wall_ms = ms_since(wall_start);
      emit({"microbench_hier", cfg.num_cpus, p.mech, {}},
           [&](sim::Json& rec) {
             rec["barrier"] = to_string(p.hier);
             rec["levels"] = cfg.hier.levels;
             rec["radix"] = cfg.net.radix;
             rec["episodes"] = p.episodes;
             rec["cycles_per_episode"] = r.primary;
             rec["root_link_messages"] = r.aux;
             rec["root_link_messages_per_episode"] = r.secondary;
             rec["events"] = events;
             rec["wall_ms"] = wall_ms;
           });
      break;
    }
    default: break;  // kBarrierStyle: cycles per episode only
  }
  return r;
}

/// kLock, kLockAlgo, kTicketBackoff and kMultiLock. Only kLock fences off
/// a warm-up and reports the measured window; the others report the
/// whole run.
CellResult run_lock_kernel(const core::SystemConfig& cfg,
                           const CellParams& p) {
  core::Machine m(cfg);
  const bool paper = p.kernel == Kernel::kLock;
  const Passages s = run_passages(m, p, /*warmup=*/paper);
  CellResult r;
  if (paper) {
    r.primary = static_cast<double>(s.t_end - s.t_start);
    r.secondary =
        r.primary / (static_cast<double>(cfg.num_cpus) * p.iters);
    r.traffic = s.traffic;
    emit({"lock", cfg.num_cpus, p.mech, {}, &s.traffic, &cfg, &m},
         [&](sim::Json& rec) {
           rec["lock"] = p.array ? "array" : "ticket";
           rec["iters"] = p.iters;
           rec["cs_cycles"] = p.cs_cycles;
           rec["total_cycles"] = r.primary;
           rec["cycles_per_acquire"] = r.secondary;
         });
    return r;
  }
  r.primary = static_cast<double>(s.now);
  if (p.kernel == Kernel::kLockAlgo) {
    const TrafficSnapshot whole = snap(m.network());
    emit({"lock_algo", cfg.num_cpus, p.mech, {}, &whole, nullptr, &m},
         [&](sim::Json& rec) {
           rec["lock"] = to_string(p.algo);
           rec["iters"] = p.iters;
           rec["total_cycles"] = r.primary;
         });
  }
  return r;
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
  const std::uint64_t packets = m.network().stats().packets;
  emit({"fig1_episode", 3, mech, {}, nullptr, nullptr, &m},
       [&](sim::Json& rec) {
         rec["one_way_messages"] = packets;
         rec["cycles"] = done;
       });
  CellResult r;
  r.primary = static_cast<double>(done);
  r.aux = packets;
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
  for (sim::NodeId n = 0; n < m.num_nodes(); ++n) {
    res.aux += m.dir(n).stats().word_updates_sent;
  }
  return res;
}

// Open-loop sharded-service scenario: every cpu runs an independent
// Poisson arrival process (mean gap = service.interarrival_cycles) and
// pushes each request through the ShardedService. Latency is measured
// from the *scheduled* arrival, so when the service can't keep up the
// backlog is charged to the requests — the heavy-traffic regime where
// LL/SC retry collapse shows as a p999 explosion.
CellResult run_service_cell(const core::SystemConfig& cfg_in,
                            const CellParams& p) {
  core::SystemConfig cfg = cfg_in;
  cfg.stats.histograms = true;  // this scenario exists to read them
  core::Machine m(cfg);
  svc::ShardedService service(m, p.mech);
  const std::uint64_t requests = p.requests;
  const sim::Cycle mean_gap = cfg.service.interarrival_cycles;
  sim::LogHistogram lat;
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&service, &lat, requests,
                mean_gap](core::ThreadCtx& t) -> sim::Task<void> {
      sim::Cycle next = 0;
      for (std::uint64_t i = 0; i < requests; ++i) {
        const double gap =
            t.rng().exponential() * static_cast<double>(mean_gap);
        next += std::max<sim::Cycle>(
            1, static_cast<sim::Cycle>(std::ceil(gap)));
        if (t.now() < next) co_await t.delay(next - t.now());
        const std::uint64_t key = t.rng().next() % service.key_space();
        co_await service.handle(t, key);
        lat.record(t.now() - next);
      }
    });
  }
  m.run();

  const sim::Cycle total_cycles = m.engine().now();
  emit({"service", cfg.num_cpus, p.mech, {}, nullptr, nullptr, &m},
       [&](sim::Json& rec) {
         rec["shards"] = service.num_shards();
         rec["interarrival"] = mean_gap;
         rec["requests"] = lat.count();
         rec["latency"]["mean"] = lat.mean();
         rec["latency"]["min"] = lat.min();
         rec["latency"]["max"] = lat.max();
         rec["latency"]["p50"] = lat.quantile(0.50);
         rec["latency"]["p90"] = lat.quantile(0.90);
         rec["latency"]["p99"] = lat.quantile(0.99);
         rec["latency"]["p999"] = lat.quantile(0.999);
         rec["cycles"] = total_cycles;
       });
  CellResult r;
  r.primary = static_cast<double>(lat.quantile(0.999));
  r.secondary = lat.mean();
  r.traffic = snap(m.network());
  r.aux = lat.count();
  return r;
}

}  // namespace

CellResult run_cell(const core::SystemConfig& cfg, const CellParams& params) {
  switch (params.kernel) {
    case Kernel::kBarrier:
    case Kernel::kBarrierStyle:
    case Kernel::kSpin:
    case Kernel::kHier: return run_barrier_kernel(cfg, params);
    case Kernel::kLock:
    case Kernel::kLockAlgo:
    case Kernel::kTicketBackoff:
    case Kernel::kMultiLock: return run_lock_kernel(cfg, params);
    case Kernel::kFig1Episode: return run_fig1_cell(cfg, params);
    case Kernel::kPairwiseFlags: return run_pairwise_flags_cell(cfg, params);
    case Kernel::kService: return run_service_cell(cfg, params);
  }
  return {};
}

}  // namespace amo::bench
