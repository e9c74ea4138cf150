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

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const coh::Wiring& wiring() const { return *wiring_; }
  [[nodiscard]] GAlloc& galloc() { return *galloc_; }
  [[nodiscard]] mem::Backing& backing() { return backing_; }

  /// Compatibility view for perfbench/driver.cpp, which still reads the
  /// engine through the accessor names of the deleted multi-engine
  /// decomposition. Removed by the next benchmark change, which switches
  /// the driver to engine().
  struct EngineView {
    const sim::Engine& engine;
    [[nodiscard]] sim::Cycle max_now() const { return engine.now(); }
    [[nodiscard]] std::uint64_t total_events_executed() const {
      return engine.events_executed();
    }
  };
  [[nodiscard]] EngineView domains() const { return {engine_}; }

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
  [[nodiscard]] std::uint32_t pending_threads() const { return pending_; }

  /// The full-system stats registry: every subsystem's counters under
  /// hierarchical names ("engine.*", "net.*", "node<N>.{dir,amu,am}.*",
  /// "cpu<C>.cache.*"). Populated once at construction. This is the one
  /// machine-wide aggregation: callers read totals here (or sum the
  /// per-subsystem stats() structs themselves).
  [[nodiscard]] const sim::StatsRegistry& registry() const {
    return registry_;
  }

  /// The sync library's latency histograms (both nullptr when
  /// stats.histograms is off), registered at construction.
  [[nodiscard]] const SyncHists& sync_hists() const { return sync_hists_; }

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
  // First in, last out: it owns the histograms every subsystem records
  // into, so it outlives them all.
  sim::StatsRegistry registry_;
  sim::Engine engine_;
  mem::Backing backing_;
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
  // Read by every sync::Lock / sync::Barrier constructor.
  SyncHists sync_hists_;

  // deque: spawn keeps a reference to the stored functor until the thread
  // starts, so the container must not relocate elements.
  std::deque<std::function<sim::Task<void>(ThreadCtx&)>> bodies_;
  std::uint32_t pending_ = 0;
};

}  // namespace amo::core
