// Benchmark driver for the AMO synchronization simulator.
//
//   perfbench_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--spans-dir DIR]
//
// Runs one workload serially (one host thread, sim_threads = 1). It calls
// the core::Machine constructor, Machine::run and the destructor itself,
// so construction, simulation and teardown are timed apart. Every cell's
// outputs are checked. A run repeats the workload ("passes") until
// --seconds is spent, at least kMinPasses times; host times are medians
// over passes, and the simulated results must be identical in every pass.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes (stats.histograms on, spans around construct / run /
// check / snapshot / teardown of each cell), times each layer in
// isolation, and reports the per-layer metrics. Spans are written to
// DIR/spans-<workload>-seed<N>.json at the end.
//
// Each metric is printed by name with its unit; the last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "metrics.hpp"
#include "probes.hpp"
#include "sim/json.hpp"
#include "svc/service.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"
#include "sync/mechanism.hpp"

namespace perfbench {

namespace {

using namespace amo;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPairs = 2;
// The longest cell takes a few seconds. A broken program whose threads
// spin forever would hang the benchmark, so a cell that runs this long
// ends the run with an error instead.
constexpr unsigned kCellTimeoutS = 60;

// The paper's mechanism order (Tables 2 and 4 columns).
constexpr Mechanism kTableMechs[] = {Mechanism::kLlSc, Mechanism::kActMsg,
                                     Mechanism::kAtomic, Mechanism::kMao,
                                     Mechanism::kAmo};
constexpr std::uint32_t kPaperCpus[] = {4, 8, 16, 32, 64, 128, 256};

// Cell parameters: the harness defaults behind table2 / table4 /
// microbench_service / microbench_hier.
constexpr int kBarrierWarmup = 2;
constexpr int kBarrierEpisodes = 8;
constexpr int kLockWarmup = 1;
constexpr int kLockIters = 6;
constexpr sim::Cycle kLockCsCycles = 50;
constexpr std::uint64_t kMaxSkew = 200;
constexpr std::uint32_t kServiceCpus = 16;
constexpr std::uint64_t kServiceRequestsPerCpu = 16384;
constexpr sim::Cycle kServiceInterarrival = 24000;
constexpr std::uint32_t kScaleCpus = 1024;
constexpr int kScaleEpisodes = 200;
constexpr std::uint32_t kScaleLevels = 2;

extern "C" void on_cell_timeout(int /*signal*/) {
  static const char kMsg[] =
      "perfbench: a cell ran for 60 s without finishing; giving up\n";
  (void)!write(STDERR_FILENO, kMsg, sizeof kMsg - 1);
  _exit(3);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- spans

struct Span {
  const char* name;
  double start_s;
  double end_s;
  int parent;  // index into the log, -1 for a pass
  int cell;    // cell id within the run, -1 for a pass
};

/// In-memory span log; written once when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  bool enabled = false;

  int open(const char* name, int parent, int cell) {
    if (!enabled) return -1;
    spans_.push_back({name, seconds_since(origin_), 0, parent, cell});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    }
  }

  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "{\"spans\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"parent\": %d, \"cell\": %d}%s\n",
                    i, s.name, s.start_s, s.end_s, s.parent, s.cell,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return out.good();
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- passes

/// Per-layer counts of one traced pass, from Machine::stats_json() after
/// each cell. The *_p99 fields are the largest p99 of any instance (node,
/// CPU, level or cell) in the pass.
struct Layers {
  std::uint64_t packets = 0;
  std::uint64_t root_links = 0;
  std::uint64_t dir_requests = 0;
  std::uint64_t invals_sent = 0;
  std::uint64_t sc_success = 0;
  std::uint64_t sc_fail = 0;
  std::uint64_t am_replays = 0;
  std::uint64_t amu_ops = 0;
  std::uint64_t amu_hits = 0;
  std::uint64_t amu_misses = 0;
  std::uint64_t link_p99 = 0;
  std::uint64_t occupancy_p99 = 0;
  std::uint64_t mshr_p99 = 0;
  std::uint64_t dram_p99 = 0;
  std::uint64_t amu_queue_p99 = 0;
  std::uint64_t lock_p99 = 0;
  std::uint64_t barrier_p99 = 0;
  double rss_after_construct_mb = 0;
};

/// A barrier or lock cell's measured cycles, kept for the paper speedups.
struct PaperCell {
  int table;  // 2: central barrier, 4: lock
  std::uint32_t cpus;
  Mechanism mech;
  bool array;
  double cycles;
};

/// One pass over a workload.
struct Pass {
  double wall_s = 0;
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;
  double peak_rss_mb = 0;  // process peak RSS when the pass ended
  std::uint64_t sim_cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;  // episodes, lock rounds, request rounds
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> latency;  // per-operation cycles, main cells
  double episode_cycles = 0;  // summed over the main cells
  std::vector<PaperCell> paper_cells;
  std::vector<std::uint64_t> signature;  // every simulated result, in order
  Layers layers;

  /// Exact nearest-rank quantile of the operation latencies. (A
  /// LogHistogram would quantize it into 6.25% buckets, so a seed change
  /// would move it in whole steps.)
  [[nodiscard]] double latency_quantile(double q) const {
    if (latency.empty()) return 0;
    std::vector<std::uint64_t> v = latency;
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))),
        1, v.size());
    const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(v.begin(), nth, v.end());
    return static_cast<double>(*nth);
  }

  [[nodiscard]] double paper_error_pct() const {
    std::vector<PaperRef> refs;
    std::vector<double> ours;
    auto find = [&](int table, std::uint32_t cpus, Mechanism mech,
                    bool array) -> const PaperCell* {
      for (const PaperCell& c : paper_cells) {
        if (c.table == table && c.cpus == cpus && c.mech == mech &&
            c.array == array) {
          return &c;
        }
      }
      return nullptr;
    };
    for (const PaperRef& r : kPaperRefs) {
      const PaperCell* base = find(r.table, r.cpus, Mechanism::kLlSc, false);
      const PaperCell* cell = find(r.table, r.cpus, r.mech, r.array);
      if (base == nullptr || cell == nullptr || cell->cycles <= 0) continue;
      refs.push_back(r);
      ours.push_back(base->cycles / cell->cycles);
    }
    return perfbench::paper_error_pct(refs, ours);
  }
};

struct Ctx {
  std::uint64_t seed;
  bool traced;
  Pass& pass;
  SpanLog& spans;
  int pass_span;
  int& next_cell;
};

core::SystemConfig config(const Ctx& ctx, std::uint32_t cpus) {
  core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  cfg.seed = ctx.seed;
  cfg.stats.histograms = ctx.traced;
  return cfg;
}

std::uint64_t u64(const sim::Json& j, const char* path) {
  const sim::Json* v = j.find_path(path);
  return v != nullptr && v->is_number() ? v->as_uint() : 0;
}

std::uint64_t p99(const sim::Json& j, const char* path) {
  const sim::Json* h = j.find_path(path);
  return h != nullptr && h->is_object() ? u64(*h, "p99") : 0;
}

void add_registry(Layers& l, const sim::Json& snap) {
  for (const auto& [key, v] : snap.items()) {
    if (key == "net") {
      l.packets += u64(v, "packets");
      if (const sim::Json* links = v.find("link_latency_hist");
          links != nullptr && links->is_object()) {
        for (const auto& [level, h] : links->items()) {
          l.link_p99 = std::max(l.link_p99, u64(h, "p99"));
        }
      }
    } else if (key == "sync") {
      l.lock_p99 = std::max(l.lock_p99, p99(v, "lock_acquire_hist"));
      l.barrier_p99 = std::max(l.barrier_p99, p99(v, "barrier_episode_hist"));
    } else if (key.starts_with("node")) {
      for (const char* f : {"dir.gets", "dir.getx", "dir.upgrades",
                            "dir.word_gets", "dir.word_puts",
                            "dir.uncached_reads", "dir.uncached_writes"}) {
        l.dir_requests += u64(v, f);
      }
      l.invals_sent += u64(v, "dir.invals_sent");
      l.am_replays += u64(v, "am.replays");
      l.amu_ops += u64(v, "amu.ops");
      l.amu_hits += u64(v, "amu.cache_hits");
      l.amu_misses += u64(v, "amu.cache_misses");
      l.occupancy_p99 =
          std::max(l.occupancy_p99, p99(v, "dir.occupancy_wait_hist"));
      l.dram_p99 = std::max(l.dram_p99, p99(v, "dram.queue_wait_hist"));
      l.amu_queue_p99 =
          std::max(l.amu_queue_p99, p99(v, "amu.queue_wait_hist"));
    } else if (key.starts_with("cpu")) {
      l.sc_success += u64(v, "cache.sc_success");
      l.sc_fail += u64(v, "cache.sc_fail");
      l.mshr_p99 = std::max(l.mshr_p99, p99(v, "cache.mshr_residency_hist"));
    }
  }
}

/// One machine's lifetime: construct, run, check, snapshot, teardown,
/// each timed (and recorded as a span in traced passes).
class Cell {
 public:
  Cell(Ctx& ctx, const char* name, const core::SystemConfig& cfg)
      : ctx_(ctx), id_(ctx.next_cell++) {
    alarm(kCellTimeoutS);
    span_ = ctx_.spans.open(name, ctx_.pass_span, id_);
    ctx_.pass.setup_s +=
        phase("construct", [&] { m_ = std::make_unique<core::Machine>(cfg); });
    if (ctx_.traced) {
      ctx_.pass.layers.rss_after_construct_mb =
          std::max(ctx_.pass.layers.rss_after_construct_mb, max_rss_mb());
    }
  }
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  core::Machine& m() { return *m_; }

  /// Runs the machine. A run that throws (threads still blocked) fails
  /// the cell; the benchmark carries on with the next one.
  bool run() {
    bool ok = true;
    ctx_.pass.run_s += phase("run", [&] {
      try {
        m_->run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cell %d: %s\n", id_, e.what());
        ok = false;
      }
    });
    ctx_.pass.sim_cycles += m_->domains().max_now();
    ctx_.pass.events += m_->domains().total_events_executed();
    ctx_.pass.signature.push_back(m_->domains().max_now());
    ctx_.pass.signature.push_back(m_->domains().total_events_executed());
    ran_ = ok;
    return ok;
  }

  /// Counts `n` checks, `bad` of which failed.
  void check(std::uint64_t n, std::uint64_t bad) {
    ctx_.pass.attempted += n;
    ctx_.pass.failed += std::min(n, bad);
  }

  /// Checks coherence, snapshots the registry (traced passes) and tears
  /// the machine down. `rounds` normalises per-episode counts.
  void finish(std::uint64_t rounds) {
    bool coherent = ran_;
    if (ran_) {
      phase("check", [&] {
        try {
          m_->check_coherence();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "cell %d: %s\n", id_, e.what());
          coherent = false;
        }
      });
    }
    check(1, coherent ? 0 : 1);
    ctx_.pass.rounds += rounds;
    if (ctx_.traced) {
      phase("snapshot", [&] {
        add_registry(ctx_.pass.layers, m_->stats_json());
        ctx_.pass.layers.root_links += m_->network().root_link_traversals();
      });
    }
    ctx_.pass.teardown_s += phase("teardown", [&] { m_.reset(); });
    ctx_.spans.close(span_);
    alarm(0);
    // Hand the freed heap back so the next machine is built from the same
    // state every time: without this, how much of the last machine glibc
    // retains varies, and peak RSS and set-up time vary with it.
    malloc_trim(0);
  }

 private:
  /// Runs `f` as a child span of this cell; returns its seconds.
  template <typename F>
  double phase(const char* name, F f) {
    const int span = ctx_.spans.open(name, span_, id_);
    const auto t0 = Clock::now();
    f();
    const double s = seconds_since(t0);
    ctx_.spans.close(span);
    return s;
  }

  Ctx& ctx_;
  int id_;
  int span_ = -1;
  bool ran_ = false;
  std::unique_ptr<core::Machine> m_;
};

// ---------------------------------------------------------------- cells

/// bench::run_barrier's loop on every CPU: kBarrierWarmup warm-up then
/// `episodes` measured episodes of `barrier`, recording each thread's
/// measured wait latency and checking every episode that no thread left
/// before every thread arrived. Returns the measured window in cycles,
/// or nothing when the run failed.
std::optional<sim::Cycle> barrier_episodes(Ctx& ctx, Cell& cell,
                                           sync::Barrier& barrier,
                                           int episodes, bool main) {
  core::Machine& m = cell.m();
  const std::uint32_t cpus = m.num_cpus();
  const int total = kBarrierWarmup + episodes;
  std::vector<std::uint32_t> arrived(static_cast<std::size_t>(total), 0);
  std::vector<std::uint32_t> early(static_cast<std::size_t>(total), 0);
  std::uint32_t finished = 0;
  sim::Cycle t_start = 0;
  sim::Cycle t_end = 0;
  std::vector<std::uint64_t> lat;
  for (sim::CpuId c = 0; c < cpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 0; ep < total; ++ep) {
        co_await t.compute(t.rng().below(kMaxSkew));
        ++arrived[ep];
        const sim::Cycle t0 = t.now();
        co_await barrier.wait(t);
        if (ep >= kBarrierWarmup) lat.push_back(t.now() - t0);
        if (arrived[ep] != cpus) ++early[ep];
        if (c == 0 && ep == kBarrierWarmup - 1) t_start = t.now();
        if (c == 0 && ep == total - 1) t_end = t.now();
      }
      ++finished;
    });
  }
  if (!cell.run()) {
    cell.check(total, total);
    return std::nullopt;
  }
  for (std::uint32_t e : early) cell.check(1, e);
  cell.check(1, finished == cpus ? 0 : 1);
  ctx.pass.signature.push_back(t_end - t_start);
  if (main) {
    ctx.pass.latency.insert(ctx.pass.latency.end(), lat.begin(), lat.end());
  }
  return t_end - t_start;
}

/// A Table 2 cell: the central barrier over `mech`.
void barrier_cell(Ctx& ctx, std::uint32_t cpus, Mechanism mech, bool main) {
  Cell cell(ctx, "barrier", config(ctx, cpus));
  {
    auto barrier = sync::make_central_barrier(cell.m(), mech, cpus);
    if (const auto window =
            barrier_episodes(ctx, cell, *barrier, kBarrierEpisodes, main)) {
      const double cycles = static_cast<double>(*window) / kBarrierEpisodes;
      ctx.pass.paper_cells.push_back({2, cpus, mech, false, cycles});
      if (main) ctx.pass.episode_cycles += cycles;
    }
  }
  cell.finish(kBarrierWarmup + kBarrierEpisodes);
}

/// Ticket or array lock: bench::run_lock's loop (atomic-barrier fence
/// between warm-up and measurement), plus each acquire's latency and
/// mutual-exclusion and acquisition-count checks.
void lock_cell(Ctx& ctx, std::uint32_t cpus, Mechanism mech, bool array,
               bool main) {
  Cell cell(ctx, "lock", config(ctx, cpus));
  {
    core::Machine& m = cell.m();
    auto lock = array ? sync::make_array_lock(m, mech, cpus)
                      : sync::make_ticket_lock(m, mech);
    auto fence = sync::make_central_barrier(m, Mechanism::kAtomic, cpus);
    std::uint32_t holders = 0;
    std::uint64_t overlaps = 0;
    std::uint64_t acquisitions = 0;
    std::uint32_t finished = 0;
    sim::Cycle t_start = 0;
    sim::Cycle t_end = 0;
    std::vector<std::uint64_t> lat;
    for (sim::CpuId c = 0; c < cpus; ++c) {
      m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
        // One passage: acquire, critical section, release.
        auto passage = [&](bool measured) -> sim::Task<void> {
          const sim::Cycle t0 = t.now();
          co_await lock->acquire(t);
          if (measured) lat.push_back(t.now() - t0);
          ++acquisitions;
          if (++holders != 1) ++overlaps;
          co_await t.compute(kLockCsCycles);
          --holders;
          co_await lock->release(t);
        };
        for (int i = 0; i < kLockWarmup; ++i) {
          co_await passage(false);
          co_await t.compute(t.rng().below(kMaxSkew + 1));
        }
        co_await fence->wait(t);
        if (c == 0) t_start = t.now();
        for (int i = 0; i < kLockIters; ++i) {
          co_await passage(true);
          co_await t.compute(t.rng().below(kMaxSkew));
        }
        if (++finished == cpus) t_end = t.now();
      });
    }
    const std::uint64_t expected =
        static_cast<std::uint64_t>(cpus) * (kLockWarmup + kLockIters);
    if (cell.run()) {
      cell.check(expected, overlaps);
      cell.check(1, acquisitions == expected ? 0 : 1);
      const auto total = static_cast<double>(t_end - t_start);
      ctx.pass.paper_cells.push_back({4, cpus, mech, array, total});
      ctx.pass.signature.push_back(t_end - t_start);
      if (main) {
        ctx.pass.latency.insert(ctx.pass.latency.end(), lat.begin(), lat.end());
        ctx.pass.episode_cycles += total / kLockIters;
      }
    } else {
      cell.check(expected + 1, expected + 1);
    }
  }
  cell.finish(kLockWarmup + kLockIters);
}

/// Open-loop sharded service (the svc kernel of microbench_service):
/// Poisson arrivals per CPU from the seeded RNG, latency from the
/// scheduled arrival. Checks that the latency count and the shard
/// counters both equal the requests issued.
void service_cell(Ctx& ctx) {
  core::SystemConfig cfg = config(ctx, kServiceCpus);
  cfg.service.interarrival_cycles = kServiceInterarrival;
  Cell cell(ctx, "service", cfg);
  const std::uint64_t issued = kServiceCpus * kServiceRequestsPerCpu;
  {
    core::Machine& m = cell.m();
    svc::ShardedService service(m, Mechanism::kAmo);
    std::vector<std::uint64_t> lat;
    const double mean_gap = static_cast<double>(kServiceInterarrival);
    for (sim::CpuId c = 0; c < kServiceCpus; ++c) {
      m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
        sim::Cycle next = 0;
        for (std::uint64_t i = 0; i < kServiceRequestsPerCpu; ++i) {
          const double gap = t.rng().exponential() * mean_gap;
          next += std::max<sim::Cycle>(1,
                                       static_cast<sim::Cycle>(std::ceil(gap)));
          if (t.now() < next) co_await t.delay(next - t.now());
          const std::uint64_t key = t.rng().next() % service.key_space();
          co_await service.handle(t, key);
          lat.push_back(t.now() - next);
        }
      });
    }
    if (cell.run()) {
      const sim::Cycle cycles = m.domains().max_now();
      // Read the shard counters back through a second, untimed run.
      std::uint64_t counted = 0;
      m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
        counted = co_await service.total_ops(t);
      });
      m.run();
      cell.check(issued, issued - std::min<std::uint64_t>(issued, lat.size()));
      cell.check(1, counted == issued ? 0 : 1);
      ctx.pass.latency.insert(ctx.pass.latency.end(), lat.begin(), lat.end());
      ctx.pass.episode_cycles +=
          static_cast<double>(cycles) / kServiceRequestsPerCpu;
    } else {
      cell.check(issued + 1, issued + 1);
    }
  }
  cell.finish(kServiceRequestsPerCpu);
}

/// microbench_hier's kernel at 1024 CPUs: the flat fanout-4 AMO tree
/// barrier or the cluster barrier with AMU aggregation (hier.levels = 2).
void hier_cell(Ctx& ctx, bool cluster_amu) {
  core::SystemConfig cfg = config(ctx, kScaleCpus);
  if (cluster_amu) cfg.hier.levels = kScaleLevels;
  Cell cell(ctx, cluster_amu ? "cluster_amu" : "flat_tree", cfg);
  {
    core::Machine& m = cell.m();
    auto barrier =
        cluster_amu
            ? sync::make_cluster_barrier(m, Mechanism::kAmo, kScaleCpus,
                                         kScaleLevels, /*amu_aggregation=*/true)
            : sync::make_tree_barrier(m, Mechanism::kAmo, kScaleCpus, 4);
    if (const auto window =
            barrier_episodes(ctx, cell, *barrier, kScaleEpisodes, true)) {
      ctx.pass.episode_cycles +=
          static_cast<double>(*window) / kScaleEpisodes;
    }
  }
  cell.finish(kBarrierWarmup + kScaleEpisodes);
}

/// Runs the cells behind the paper's speedups at one CPU count of one
/// table: the LL/SC baseline plus every cell with a paper value.
void paper_anchor(Ctx& ctx, int table, std::uint32_t cpus) {
  auto run = [&](Mechanism mech, bool array) {
    if (table == 2) {
      barrier_cell(ctx, cpus, mech, false);
    } else {
      lock_cell(ctx, cpus, mech, array, false);
    }
  };
  run(Mechanism::kLlSc, false);
  for (const PaperRef& r : kPaperRefs) {
    if (r.table == table && r.cpus == cpus) run(r.mech, r.array);
  }
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  void (*pass)(Ctx&);
};

void paper_tables(Ctx& ctx) {
  for (std::uint32_t cpus : kPaperCpus) {
    for (Mechanism mech : kTableMechs) barrier_cell(ctx, cpus, mech, true);
  }
  for (std::uint32_t cpus : kPaperCpus) {
    lock_cell(ctx, cpus, Mechanism::kLlSc, false, true);
    for (Mechanism mech : kTableMechs) {
      for (bool array : {false, true}) {
        if (mech == Mechanism::kLlSc && !array) continue;
        lock_cell(ctx, cpus, mech, array, true);
      }
    }
  }
}

void service_open_loop(Ctx& ctx) {
  service_cell(ctx);
  paper_anchor(ctx, 4, kServiceCpus);
}

void scale_1024(Ctx& ctx) {
  hier_cell(ctx, false);
  hier_cell(ctx, true);
  paper_anchor(ctx, 2, 256);
}

constexpr Workload kWorkloads[] = {
    {"paper_tables", paper_tables},
    {"service_open_loop", service_open_loop},
    {"scale_1024", scale_1024},
};

// ---------------------------------------------------------------- output

struct Reported {
  const MetricDef* def;
  double value;
};

void print_metrics(const std::vector<Reported>& rows, bool per_layer) {
  for (const Reported& r : rows) {
    std::printf("%-32s %20.6f %-10s", r.def->name, r.value, r.def->unit);
    if (per_layer) {
      std::printf("  moves: %s; little: %s", r.def->moves, r.def->little);
    }
    std::printf("\n");
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Reported>& rows) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double v = std::isfinite(rows[i].value) ? rows[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", rows[i].def->name, v, rows[i].def->unit);
  }
  std::printf("}}\n");
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

template <typename F>
double median_of(const std::vector<Pass>& passes, F f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return median(v);
}

std::vector<Reported> end_to_end(const std::vector<Pass>& passes) {
  const Pass& first = passes.front();
  const double values[] = {
      median_of(passes, [](const Pass& p) { return p.wall_s; }),
      median_of(passes, [](const Pass& p) { return p.setup_s; }),
      median_of(passes,
                [](const Pass& p) {
                  return static_cast<double>(p.sim_cycles) / 1e6 / p.run_s;
                }),
      first.peak_rss_mb,  // one pass in a fresh process
      first.paper_error_pct(),
      first.latency_quantile(0.5),
      first.latency_quantile(0.999),
      first.episode_cycles,
  };
  std::vector<Reported> rows;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    rows.push_back({&kEndToEnd[i], values[i]});
  }
  return rows;
}

std::vector<Reported> per_layer(const std::vector<Pass>& untraced,
                                const std::vector<Pass>& traced,
                                const LayerProbes& probes) {
  const Pass& t = traced.front();
  const Layers& l = t.layers;
  double rss = 0;
  for (const Pass& p : traced) {
    rss = std::max(rss, p.layers.rss_after_construct_mb);
  }
  const double untraced_wall =
      median_of(untraced, [](const Pass& p) { return p.wall_s; });
  const double traced_wall =
      median_of(traced, [](const Pass& p) { return p.wall_s; });
  const double values[] = {
      median_of(traced, [](const Pass& p) { return p.setup_s; }),
      median_of(traced, [](const Pass& p) { return p.teardown_s; }),
      rss,
      static_cast<double>(t.events),
      median_of(traced,
                [](const Pass& p) {
                  return p.run_s * 1e9 / static_cast<double>(p.events);
                }),
      probes.queue_op_ns,
      probes.resume_ns,
      probes.send_ns,
      static_cast<double>(l.packets),
      ratio(l.root_links, t.rounds),
      static_cast<double>(l.link_p99),
      static_cast<double>(l.dir_requests),
      static_cast<double>(l.invals_sent),
      static_cast<double>(l.occupancy_p99),
      static_cast<double>(l.mshr_p99),
      probes.word_op_ns,
      probes.cache_access_ns,
      static_cast<double>(l.dram_p99),
      ratio(l.sc_success, l.sc_success + l.sc_fail),
      static_cast<double>(l.am_replays),
      static_cast<double>(l.amu_ops),
      ratio(l.amu_hits, l.amu_hits + l.amu_misses),
      static_cast<double>(l.amu_queue_p99),
      probes.amu_op_ns,
      static_cast<double>(l.lock_p99),
      static_cast<double>(l.barrier_p99),
      100.0 * (traced_wall - untraced_wall) / untraced_wall,
  };
  static_assert(std::size(values) == std::size(kPerLayer));
  std::vector<Reported> rows;
  for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
    rows.push_back({&kPerLayer[i], values[i]});
  }
  return rows;
}

// ---------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir = ".";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_driver --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--spans-dir DIR]\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s < '0' || *s > '9' || *end != '\0') {
    usage_error(std::string(flag) + ": expected a whole number, got '" + s +
                "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + a);
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = parse_uint("--seed", v);
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_uint("--seconds", v));
    } else if (a == "--trace") {
      const std::uint64_t t = parse_uint("--trace", v);
      if (t > 1) usage_error("--trace: expected 0 or 1");
      o.trace = t == 1;
    } else if (a == "--spans-dir") {
      o.spans_dir = v;
    } else {
      usage_error("unknown option " + a);
    }
  }
  return o;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  std::string candidates;
  for (const Workload& w : kWorkloads) {
    candidates += candidates.empty() ? "" : ", ";
    candidates += w.name;
  }
  usage_error("unknown workload '" + name + "' (candidates: " + candidates +
              ")");
}

int run(const Options& o) {
  const Workload& w = find_workload(o.workload);
  std::signal(SIGALRM, on_cell_timeout);
  const auto start = Clock::now();
  SpanLog spans(start);
  int next_cell = 0;
  auto run_pass = [&](bool traced) {
    Pass p;
    spans.enabled = traced;
    const int span = spans.open("pass", -1, -1);
    Ctx ctx{o.seed, traced, p, spans, span, next_cell};
    const auto t0 = Clock::now();
    w.pass(ctx);
    p.wall_s = seconds_since(t0);
    std::uint64_t hash = 1469598103934665603ull;  // FNV-1a over latencies
    for (std::uint64_t v : p.latency) hash = (hash ^ v) * 1099511628211ull;
    p.signature.push_back(hash);
    p.peak_rss_mb = max_rss_mb();
    spans.close(span);
    return p;
  };

  std::printf("workload %s\nseed %" PRIu64 "\ntrace %d\n", w.name, o.seed,
              o.trace ? 1 : 0);
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  LayerProbes probes;
  if (!o.trace) {
    do {
      untraced.push_back(run_pass(false));
    } while (untraced.size() < kMinPasses ||
             seconds_since(start) +
                     median_of(untraced,
                               [](const Pass& p) { return p.wall_s; }) <=
                 o.seconds);
  } else {
    do {
      untraced.push_back(run_pass(false));
      traced.push_back(run_pass(true));
    } while (traced.size() < kMinTracedPairs ||
             seconds_since(start) +
                     median_of(untraced,
                               [](const Pass& p) { return p.wall_s; }) +
                     median_of(traced,
                               [](const Pass& p) { return p.wall_s; }) <=
                 o.seconds);
    probes = run_layer_probes();
  }

  // Determinism: every pass, traced or not, must simulate exactly what
  // the first pass did.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const Pass& first = untraced.front();
  for (const std::vector<Pass>* set : {&untraced, &traced}) {
    for (const Pass& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
      if (&p == &first) continue;
      ++attempted;
      if (p.signature != first.signature) {
        ++failed;
        std::fprintf(stderr, "simulated results differ between passes\n");
      }
    }
  }

  std::printf("passes %zu untraced, %zu traced\n", untraced.size(),
              traced.size());
  std::printf("samples %" PRIu64 " operations behind p50_cycles/p999_cycles\n",
              static_cast<std::uint64_t>(first.latency.size()));
  std::printf("checks %" PRIu64 " attempted, %" PRIu64
              " failed (failed_pct %.6f %%)\n",
              attempted, failed, 100.0 * ratio(failed, attempted));
  const std::vector<Reported> rows =
      o.trace ? per_layer(untraced, traced, probes) : end_to_end(untraced);
  if (o.trace) {
    print_metrics(end_to_end(untraced), false);
    print_metrics(rows, true);
    const std::string path = o.spans_dir + "/spans-" + w.name + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (!spans.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  } else {
    print_metrics(rows, false);
  }
  print_result(failed == 0, attempted, failed, rows);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
