// Machine: builds and owns a complete simulated CC-NUMA system — engine,
// fat-tree network, per-node memory/directory/AMU/active-message server,
// and per-CPU cores — and runs simulated threads to completion.
//
// Typical use:
//
//   core::SystemConfig cfg;
//   cfg.num_cpus = 32;
//   core::Machine m(cfg);
//   sim::Addr var = m.galloc().alloc_word_line(0);
//   for (sim::CpuId c = 0; c < m.num_cpus(); ++c)
//     m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
//       co_await t.amo_inc(var, m.num_cpus());
//       while (co_await t.load(var) != m.num_cpus()) {}
//     });
//   m.run();
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "amu/amu.hpp"
#include "coh/agents.hpp"
#include "coh/directory.hpp"
#include "coh/wiring.hpp"
#include "core/galloc.hpp"
#include "core/system_config.hpp"
#include "core/thread_ctx.hpp"
#include "cpu/am_server.hpp"
#include "cpu/core.hpp"
#include "mem/backing.hpp"
#include "mem/dram.hpp"
#include "net/network.hpp"
#include "sim/domains.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats_registry.hpp"

namespace amo::core {

class Machine {
 public:
  explicit Machine(const SystemConfig& config);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t num_cpus() const { return config_.num_cpus; }
  [[nodiscard]] std::uint32_t num_nodes() const {
    return config_.num_nodes();
  }

  /// Domain 0's engine; with sim_threads == 1 (the default) the only one.
  [[nodiscard]] sim::Engine& engine() { return domains_.engine(0); }
  /// The domain decomposition (sim_threads engines over the home nodes).
  [[nodiscard]] sim::Domains& domains() { return domains_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const coh::Wiring& wiring() const { return *wiring_; }
  [[nodiscard]] GAlloc& galloc() { return *galloc_; }
  /// Backing-store shard holding `addr` (shards follow the domain
  /// decomposition so each is touched by one domain thread only).
  [[nodiscard]] mem::Backing& backing(sim::Addr addr);

  [[nodiscard]] cpu::Core& core(sim::CpuId c) { return *cores_[c]; }
  [[nodiscard]] coh::Directory& dir(sim::NodeId n) { return *dirs_[n]; }
  [[nodiscard]] amu::Amu& amu(sim::NodeId n) { return *amus_[n]; }
  [[nodiscard]] cpu::AmServer& am_server(sim::NodeId n) {
    return *servers_[n];
  }
  [[nodiscard]] ThreadCtx& ctx(sim::CpuId c) { return *ctxs_[c]; }

  /// Queues a simulated thread on CPU `c`; it starts when run() begins.
  void spawn(sim::CpuId c, std::function<sim::Task<void>(ThreadCtx&)> body);

  /// Runs until every spawned thread finishes. Throws std::runtime_error
  /// if the event queue drains with threads still blocked (deadlock).
  void run();

  /// Number of threads spawned and not yet finished.
  [[nodiscard]] std::uint32_t pending_threads() const {
    return pending_.load(std::memory_order_relaxed);
  }

  /// The full-system stats registry: every subsystem's counters under
  /// hierarchical names ("engine.*", "net.*", "node<N>.{dir,amu,am}.*",
  /// "cpu<C>.cache.*"). Populated once at construction. This is the one
  /// machine-wide aggregation: callers read totals here (or sum the
  /// per-subsystem stats() structs themselves).
  [[nodiscard]] const sim::StatsRegistry& registry() const {
    return registry_;
  }

  /// Snapshot of the whole registry as a nested JSON document.
  [[nodiscard]] sim::Json stats_json() const { return registry_.snapshot(); }

  /// Verifies coherence invariants; call only when the engine is idle.
  /// Throws std::logic_error on violation (used by tests).
  void check_coherence() const;

  /// Debug read of the *coherent* value of a word (owner cache, AMU, or
  /// memory — wherever the authoritative copy lives). Zero simulated cost;
  /// meaningful only when the engine is quiescent.
  [[nodiscard]] std::uint64_t peek_word(sim::Addr addr) const;

 private:
  SystemConfig config_;
  sim::Domains domains_;
  // One backing shard per domain: addresses partition by home node, so
  // each shard's lazily-materialized line map is private to its domain
  // thread.
  std::vector<mem::Backing> backings_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<coh::Wiring> wiring_;
  coh::Agents agents_;
  cpu::NodeDevices devices_;
  std::unique_ptr<GAlloc> galloc_;
  sim::Rng rng_;

  std::vector<std::unique_ptr<mem::Dram>> drams_;
  std::vector<std::unique_ptr<coh::Directory>> dirs_;
  std::vector<std::unique_ptr<amu::Amu>> amus_;
  std::vector<std::unique_ptr<cpu::Core>> cores_;
  std::vector<std::unique_ptr<cpu::AmServer>> servers_;
  std::vector<std::unique_ptr<ThreadCtx>> ctxs_;
  // Per-domain histogram shards (empty unless stats.histograms): each
  // domain thread records into its own element only; the registry merges
  // them in ascending domain order at snapshot time. Sized once in the
  // ctor — engines and ThreadCtxs hold pointers into them.
  std::vector<sim::LogHistogram> engine_dispatch_hists_;
  std::vector<SyncHists> sync_hists_;
  sim::StatsRegistry registry_;

  // deque: spawn keeps a reference to the stored functor until the thread
  // starts, so the container must not relocate elements.
  std::deque<std::function<sim::Task<void>(ThreadCtx&)>> bodies_;
  // atomic: thread-completion decrements run on domain worker threads.
  std::atomic<std::uint32_t> pending_{0};
};

}  // namespace amo::core
