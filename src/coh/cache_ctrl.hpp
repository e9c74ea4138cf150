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
#include <vector>

#include "amu/amo_ops.hpp"
#include "coh/agents.hpp"
#include "coh/directory.hpp"
#include "coh/protocol.hpp"
#include "coh/wiring.hpp"
#include "mem/cache.hpp"
#include "sim/stats_registry.hpp"
#include "sim/task.hpp"

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
  /// Cycles each MSHR stayed allocated (miss issue to completion). Owned
  /// by the stats registry; nullptr when histograms are off.
  sim::LogHistogram* mshr_residency_hist = nullptr;
};

class CacheCtrl final : public CacheIface {
 public:
  CacheCtrl(sim::Engine& engine, Wiring& wiring, Agents& agents,
            sim::CpuId cpu, const CacheCtrlConfig& config);

  // ------------------------------------------------- thread-facing API
  /// Awaitable coherent 8-byte load; returns the word. Await it at once:
  /// the access starts when awaited. An L1 hit resumes the caller from
  /// the L1-latency event itself, with no frame of its own; a miss goes
  /// on in a self-destroying coroutine (the L2 and MSHR path) that
  /// resumes the caller once the line is in. It must not move while
  /// suspended.
  class [[nodiscard]] LoadAwaiter {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::uint64_t await_resume() const noexcept { return value_; }

   private:
    friend class CacheCtrl;
    LoadAwaiter(CacheCtrl& ctrl, sim::Addr addr) : ctrl_(&ctrl), addr_(addr) {}

    CacheCtrl* ctrl_;
    sim::Addr addr_;
    std::uint64_t value_ = 0;
    std::coroutine_handle<> h_;
  };
  [[nodiscard]] LoadAwaiter load(sim::Addr addr) {
    return LoadAwaiter(*this, addr);
  }
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
  /// Parks the calling coroutine on `addr`'s line until the next
  /// coherence event touching it: data fill, invalidation, word update
  /// (also for a silently dropped copy), local write, or eviction. The
  /// registration is persistent: a spin woken K times by events that do
  /// not satisfy it re-arms the same entry instead of stacking K waiters.
  struct ParkAwaiter {
    CacheCtrl& ctrl;
    sim::Addr block;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      if (SpinPark* s = ctrl.find_park(block)) {
        assert(!s->h && "one parked spinner per line per cache controller");
        s->h = h;
      } else {
        ctrl.parked_.push_back(SpinPark{block, h});
      }
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] ParkAwaiter park(sim::Addr addr) {
    return ParkAwaiter{*this, l2_.line_base(addr)};
  }
  /// Drops the park entry once the spin is satisfied (or torn down).
  void unpark(sim::Addr addr);

  // -------------------------------------- waiter-leak introspection
  [[nodiscard]] std::size_t parked_entries() const { return parked_.size(); }
  /// Lines with a spinner currently suspended in park(), ascending.
  /// Machine::run names them when the event queue drains with threads
  /// still blocked.
  [[nodiscard]] std::vector<sim::Addr> parked_lines() const;

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
  void register_stats(sim::StatsRegistry& reg, const std::string& prefix);
  [[nodiscard]] bool link_armed() const { return link_valid_; }

 private:
  /// Awaitable that brings a line in (S for loads, M for writes) and
  /// resumes once the request outstanding for its block completed.
  /// Callers loop. It waits in the caller's frame, linked into the
  /// MSHR's waiter FIFO, so it must not move while suspended.
  class [[nodiscard]] LineAwaiter {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

   private:
    friend class CacheCtrl;
    LineAwaiter(CacheCtrl& ctrl, sim::Addr addr, bool want_m)
        : ctrl_(&ctrl), addr_(addr), want_m_(want_m) {}

    CacheCtrl* ctrl_;
    sim::Addr addr_;
    std::coroutine_handle<> h_;
    LineAwaiter* next_ = nullptr;  // the MSHR's next waiter
    bool want_m_;
  };

  // MSHRs and parked spins are records in per-controller vectors, found
  // by linear scan and erased by swap-and-pop: a controller holds at most
  // one of each per context in flight on its core. An MSHR's waiters are
  // a FIFO threaded through their awaiters, so a steady-state miss or
  // spin-wait costs no allocation. No reference into either vector is
  // held across a co_await.
  struct Mshr {
    sim::Addr block = 0;
    sim::Cycle born = 0;  // allocation time, for the residency histogram
    LineAwaiter* first = nullptr;
    LineAwaiter* last = nullptr;
  };
  // A parked spinner: one persistent record per (line, controller), alive
  // across wake-ups until the spin is satisfied. `h` is null while the
  // spinner is awake and re-polling.
  struct SpinPark {
    sim::Addr block = 0;
    std::coroutine_handle<> h;
  };

  [[nodiscard]] Mshr* find_mshr(sim::Addr block);
  [[nodiscard]] SpinPark* find_park(sim::Addr block);

  /// End of a load's L1 latency: a hit resumes the caller here; a miss
  /// starts load_miss.
  void probe_l1(LoadAwaiter& load);
  /// A load's L2 lookup and miss loop, in a frame of its own; resumes
  /// the caller once the word is read.
  sim::Detached load_miss(LoadAwaiter& load);

  [[nodiscard]] LineAwaiter request_line(sim::Addr addr, bool want_m) {
    return LineAwaiter(*this, addr, want_m);
  }

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

  mem::Cache l2_;
  mem::TagCache l1_;
  std::vector<Mshr> mshr_;
  std::vector<SpinPark> parked_;

  bool link_valid_ = false;
  sim::Addr link_block_ = 0;

  CacheCtrlStats stats_;
};

}  // namespace amo::coh
