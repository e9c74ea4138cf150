// Per-core cache controller: the coherent agent between a core's threads
// and the directory protocol.
//
// It owns the core's L2 (tags, state, data) and an L1D tag filter kept
// inclusive with L2. Simulated threads call the coroutine API (load /
// store / LL / SC / processor-side atomic); the directory calls the
// CacheIface entry points (data, invalidations, recalls, word updates).
//
// Concurrency: a core has up to two contexts (the main thread and the
// active-message server), so the controller supports multiple outstanding
// misses through per-block MSHRs with waiter lists. Completion wakes the
// waiters, which *re-check* the line state — any race (a same-cycle
// invalidation, a stolen line) is resolved by retrying.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "amu/amo_ops.hpp"
#include "coh/agents.hpp"
#include "coh/directory.hpp"
#include "coh/protocol.hpp"
#include "coh/wiring.hpp"
#include "ds/addr_table.hpp"
#include "mem/cache.hpp"
#include "sim/future.hpp"
#include "sim/stats_registry.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace amo::coh {

struct CacheCtrlConfig {
  mem::CacheGeometry l1{32 * 1024, 2, 128};
  mem::CacheGeometry l2{2 * 1024 * 1024, 4, 128};
  sim::Cycle l1_cycles = 2;
  sim::Cycle l2_cycles = 10;
  sim::Cycle atomic_cycles = 8;  // RMW latency once the line is exclusive
  /// Latency to service an external probe (recall / invalidation): tag
  /// lookup, state machine, and response queueing at the cache.
  sim::Cycle probe_resp_cycles = 40;
  /// Quiesce mode (spin recheck disabled): also wake parked spinners on
  /// line eviction and on word updates for absent lines. Those paths are
  /// lost-wakeup holes that the fallback re-poll timer papers over in
  /// default mode; with no timer they must wake through events.
  bool spin_wake_all = false;
  /// Derived from stats.histograms by Machine (not a serialized knob):
  /// allocate CacheCtrlStats::mshr_residency_hist and record MSHR
  /// residency (allocation to completion) into it.
  bool histograms = false;
};

struct CacheCtrlStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t ll = 0;
  std::uint64_t sc_success = 0;
  std::uint64_t sc_fail = 0;
  std::uint64_t atomics = 0;
  std::uint64_t miss_gets = 0;
  std::uint64_t miss_getx = 0;
  std::uint64_t miss_upgrade = 0;
  std::uint64_t recalls = 0;
  std::uint64_t invals = 0;
  std::uint64_t word_updates = 0;
  std::uint64_t writebacks = 0;
  /// Cycles each MSHR stayed allocated (miss issue to completion). Held
  /// out of line (~8 KB) and allocated only when
  /// CacheCtrlConfig::histograms, so a default machine does not pay for
  /// it per CPU.
  std::unique_ptr<sim::LogHistogram> mshr_residency_hist;
};

class CacheCtrl final : public CacheIface {
 public:
  CacheCtrl(sim::Engine& engine, Wiring& wiring, Agents& agents,
            sim::CpuId cpu, const CacheCtrlConfig& config,
            sim::Tracer* tracer = nullptr);

  // ------------------------------------------------- thread-facing API
  /// Coherent 8-byte load.
  sim::Task<std::uint64_t> load(sim::Addr addr);
  /// Coherent 8-byte store (obtains M state).
  sim::Task<void> store(sim::Addr addr, std::uint64_t value);
  /// Load-linked: load + arm the link register for this line.
  sim::Task<std::uint64_t> load_linked(sim::Addr addr);
  /// Store-conditional: succeeds iff the link is still armed once the
  /// line is exclusive. Fails fast if the link has already been broken.
  sim::Task<bool> store_conditional(sim::Addr addr, std::uint64_t value);
  /// Processor-side atomic (the paper's "Atomic" mechanism): acquires
  /// ownership, then performs the read-modify-write in the cache. The
  /// opcode set mirrors the AMU's (amu::AmoOpcode semantics).
  sim::Task<std::uint64_t> atomic_rmw(amu::AmoOpcode op, sim::Addr addr,
                                      std::uint64_t operand,
                                      std::uint64_t operand2 = 0);
  sim::Task<std::uint64_t> atomic_fetch_add(sim::Addr addr,
                                            std::uint64_t delta) {
    return atomic_rmw(amu::AmoOpcode::kFetchAdd, addr, delta);
  }

  // ---------------------------------------------------- CacheIface
  void on_data(sim::Addr block, bool exclusive,
               std::span<const std::uint64_t> data) override;
  void on_upgrade_ack(sim::Addr block) override;
  void on_inval(sim::Addr block) override;
  void on_recall(sim::Addr block, bool exclusive,
                 sim::CpuId fwd_to) override;
  void on_word_update(sim::Addr addr, std::uint64_t value) override;

  // ------------------------------------------------- spin-wait support
  /// Future that completes at the next coherence event touching `addr`'s
  /// line (data fill, invalidation, word update, local write). Spin loops
  /// use it to sleep between polls without burning simulated or host
  /// cycles; they must still re-poll on a fallback timer, since an event
  /// can slip between the poll and the registration.
  [[nodiscard]] sim::Future<std::uint64_t> line_event(sim::Addr addr);

  /// Parks the calling coroutine on `addr`'s line until the next
  /// coherence event touching it. Unlike line_event, the registration is
  /// persistent: a spin that re-polls K times on its fallback timer (see
  /// park_timeout) re-arms the same entry instead of stacking K stale
  /// waiters. Wake-up replays the exact zero-cycle event geometry of the
  /// per-poll line_event scheme (`stale` pad events, then a two-event
  /// resume chain), so default-mode runs stay byte-identical to it.
  struct ParkAwaiter {
    CacheCtrl& ctrl;
    sim::Addr block;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      SpinPark& s = ctrl.parked_.get_or_create(block);
      assert(!s.h && "one parked spinner per line per cache controller");
      s.h = h;
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] ParkAwaiter park(sim::Addr addr) {
    return ParkAwaiter{*this, l2_.line_base(addr)};
  }
  /// Fallback-timer path: detaches the parked handle (the spinner is
  /// about to re-poll) and records one stale pad, mirroring the stale
  /// waiter the old scheme would have left behind. Returns the handle to
  /// resume, or null if nothing is parked.
  std::coroutine_handle<> park_timeout(sim::Addr addr);
  /// Drops the park entry once the spin is satisfied (or torn down).
  void unpark(sim::Addr addr) { parked_.erase(l2_.line_base(addr)); }

  /// Quiesce-mode accounting: folds `polls` elided fallback re-polls into
  /// the counters they would have bumped (an L1-hit load is an L2 read).
  void account_spin_polls(std::uint64_t polls) {
    stats_.loads += polls;
    l2_.stats().hits += polls;
  }
  /// Cost of one cached re-poll (L1 hit latency); quiesce accounting uses
  /// it to reconstruct the fallback re-poll cadence.
  [[nodiscard]] sim::Cycle poll_cycles() const { return config_.l1_cycles; }

  // -------------------------------------- waiter-leak introspection
  [[nodiscard]] std::size_t parked_entries() const { return parked_.size(); }
  [[nodiscard]] std::size_t line_waiter_entries() const {
    return line_waiters_.size();
  }

  // ---------------------------------------------------- introspection
  [[nodiscard]] sim::CpuId cpu() const { return cpu_; }
  [[nodiscard]] sim::NodeId node() const { return node_; }
  [[nodiscard]] sim::Addr line_base(sim::Addr addr) const {
    return l2_.line_base(addr);
  }
  [[nodiscard]] mem::Cache& l2() { return l2_; }
  [[nodiscard]] const mem::Cache& l2() const { return l2_; }
  [[nodiscard]] const CacheCtrlStats& stats() const { return stats_; }

  /// Registers controller counters under `prefix` and the backing L2's
  /// under `prefix + ".l2"`.
  void register_stats(sim::StatsRegistry& reg, const std::string& prefix) const;
  [[nodiscard]] bool link_armed() const { return link_valid_; }

 private:
  // MSHRs and line-event waiter lists live in ds::AddrTable entries (the
  // same open-addressing + slab-pooled container the directory uses for
  // its line entries); their waiter FIFOs draw nodes from the shared
  // `waiter_pool_`, so a steady-state miss or spin-wait costs no heap
  // allocation.
  struct Mshr {
    ds::WaitPool<sim::Promise<std::uint64_t>>::Queue waiters;
    sim::Cycle born = 0;  // allocation time, for the residency histogram
    std::uint32_t next_free = ds::kNilIndex;  // intrusive AddrTable link
  };
  struct LineWait {
    ds::WaitPool<sim::Promise<std::uint64_t>>::Queue waiters;
    std::uint32_t next_free = ds::kNilIndex;
  };
  // A parked spinner: one persistent entry per (line, controller), alive
  // across fallback re-polls. `stale` counts timer-detached re-polls since
  // the last line event — the pads owed at the next notify (they stand in
  // for the stale waiters the per-poll scheme would have flushed).
  struct SpinPark {
    std::coroutine_handle<> h;
    std::uint32_t stale = 0;
    std::uint32_t next_free = ds::kNilIndex;
  };

  /// Brings the line in (S for loads, M for writes); returns when the
  /// request that was outstanding for this block completed. Callers loop.
  sim::Task<void> request_line(sim::Addr addr, bool want_m);

  /// Runs victim writeback (PutM/PutE) and L1/link maintenance.
  void handle_victim(const mem::Cache::Victim& victim);

  void break_link_if(sim::Addr block) {
    if (link_valid_ && link_block_ == block) link_valid_ = false;
  }

  [[nodiscard]] Directory& home_dir(sim::Addr addr) {
    return *agents_.dirs[home_of(addr)];
  }

  void complete_mshr(sim::Addr block);
  void notify_line(sim::Addr block);

  sim::Engine& engine_;
  Wiring& wiring_;
  Agents& agents_;
  sim::CpuId cpu_;
  sim::NodeId node_;
  CacheCtrlConfig config_;
  MsgSizes sizes_;
  sim::Tracer* tracer_;

  mem::Cache l2_;
  mem::TagCache l1_;
  ds::AddrTable<Mshr> mshr_;
  ds::AddrTable<LineWait> line_waiters_;
  ds::AddrTable<SpinPark> parked_;
  ds::WaitPool<sim::Promise<std::uint64_t>> waiter_pool_;

  bool link_valid_ = false;
  sim::Addr link_block_ = 0;

  CacheCtrlStats stats_;
};

}  // namespace amo::coh
