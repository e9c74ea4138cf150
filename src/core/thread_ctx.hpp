// The programming interface of one simulated hardware thread.
//
// A ThreadCtx is what benchmark/application coroutines receive: it exposes
// every memory mechanism the paper compares (coherent loads/stores, LL/SC,
// processor-side atomics, AMOs, MAOs, uncached accesses, active messages)
// plus compute-time modelling and a per-thread deterministic RNG.
#pragma once

#include <cstdint>
#include <optional>

#include "core/stats_config.hpp"
#include "cpu/core.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace amo::core {

/// Per-thread spin-wait counters.
struct SpinStats {
  std::uint64_t parked_wakes = 0;  // cached-spin event-driven wake-ups
};

class ThreadCtx {
 public:
  ThreadCtx(cpu::Core& core, sim::Engine& engine, sim::Rng rng,
            SyncHists* sync_hists = nullptr)
      : core_(core), engine_(engine), rng_(rng), sync_hists_(sync_hists) {}

  [[nodiscard]] sim::CpuId cpu() const { return core_.cpu(); }
  [[nodiscard]] sim::NodeId node() const { return core_.node(); }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] cpu::Core& core() { return core_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] sim::Cycle now() const { return engine_.now(); }

  /// The machine's sync-latency histograms, or nullptr when
  /// stats.histograms is off. The sync library's recording
  /// decorators write lock-acquire / barrier-episode latencies here.
  [[nodiscard]] SyncHists* sync_hists() { return sync_hists_; }

  [[nodiscard]] SpinStats& spin_stats() { return spin_stats_; }

  // ---- coherent memory ----
  sim::Task<std::uint64_t> load(sim::Addr a) { return core_.cache().load(a); }
  sim::Task<void> store(sim::Addr a, std::uint64_t v) {
    return core_.cache().store(a, v);
  }
  sim::Task<std::uint64_t> load_linked(sim::Addr a) {
    return core_.cache().load_linked(a);
  }
  sim::Task<bool> store_conditional(sim::Addr a, std::uint64_t v) {
    return core_.cache().store_conditional(a, v);
  }
  sim::Task<std::uint64_t> atomic_fetch_add(sim::Addr a, std::uint64_t d) {
    return core_.cache().atomic_fetch_add(a, d);
  }
  /// Processor-side swap (exchange); returns the old value.
  sim::Task<std::uint64_t> atomic_swap(sim::Addr a, std::uint64_t v) {
    return core_.cache().atomic_rmw(amu::AmoOpcode::kSwap, a, v);
  }
  /// Processor-side compare-and-swap; returns the old value (success iff
  /// the returned value equals `expected`).
  sim::Task<std::uint64_t> atomic_cas(sim::Addr a, std::uint64_t expected,
                                      std::uint64_t desired) {
    return core_.cache().atomic_rmw(amu::AmoOpcode::kCas, a, expected,
                                    desired);
  }

  // ---- active memory operations (coherent, memory-side) ----
  /// amo.inc with the paper's "test" value: the result is pushed to all
  /// cached copies only when it reaches `test`.
  sim::Task<std::uint64_t> amo_inc(sim::Addr a, std::uint64_t test) {
    return core_.amo(amu::AmoOpcode::kInc, a, 0, test);
  }
  /// amo.fetchadd: eager word update to every cached copy.
  sim::Task<std::uint64_t> amo_fetch_add(sim::Addr a, std::uint64_t d) {
    return core_.amo(amu::AmoOpcode::kFetchAdd, a, d);
  }
  /// Generic AMO (extension opcodes: swap/cas/and/or/xor/min/max).
  sim::Task<std::uint64_t> amo(amu::AmoOpcode op, sim::Addr a,
                               std::uint64_t operand,
                               std::optional<std::uint64_t> test = {},
                               std::uint64_t operand2 = 0) {
    return core_.amo(op, a, operand, test, operand2);
  }

  // ---- memory-side atomics outside coherence (Origin 2000 / T3E) ----
  sim::Task<std::uint64_t> mao_fetch_add(sim::Addr a, std::uint64_t d) {
    return core_.mao(amu::AmoOpcode::kFetchAdd, a, d);
  }
  sim::Task<std::uint64_t> mao_inc(sim::Addr a) {
    return core_.mao(amu::AmoOpcode::kInc, a, 0);
  }
  sim::Task<std::uint64_t> uncached_load(sim::Addr a) {
    return core_.uncached_load(a);
  }
  sim::Task<void> uncached_store(sim::Addr a, std::uint64_t v) {
    return core_.uncached_store(a, v);
  }

  // ---- active messages ----
  sim::Task<std::uint64_t> am_fetch_add(sim::Addr a, std::uint64_t d) {
    return core_.am_rpc(amu::AmoOpcode::kFetchAdd, a, d);
  }
  sim::Task<std::uint64_t> am_store(sim::Addr a, std::uint64_t v) {
    return core_.am_rpc(amu::AmoOpcode::kSwap, a, v);
  }
  /// Generic active-message RMW (handler-side amu::AmoOpcode semantics).
  sim::Task<std::uint64_t> am_rmw(amu::AmoOpcode op, sim::Addr a,
                                  std::uint64_t operand,
                                  std::uint64_t operand2 = 0) {
    return core_.am_rpc(op, a, operand, operand2);
  }

  // ---- time ----
  /// Local (non-memory) work occupying this core.
  sim::Task<void> compute(sim::Cycle cycles) { return core_.compute(cycles); }
  /// Pure delay that does NOT occupy the core (backoff spinning).
  sim::Engine::DelayAwaiter delay(sim::Cycle cycles) {
    return engine_.delay(cycles);
  }

 private:
  cpu::Core& core_;
  sim::Engine& engine_;
  sim::Rng rng_;
  SpinStats spin_stats_;
  SyncHists* sync_hists_ = nullptr;
};

}  // namespace amo::core
