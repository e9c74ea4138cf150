// A simulated processor core.
//
// The core is execution-driven: simulated threads are coroutines that call
// this API. Memory operations go through the core's cache controller;
// non-memory work is `compute()`, which reserves the core's serial
// CPU-time resource — the same resource active-message handlers occupy,
// so AM service visibly steals cycles from the host thread.
//
// Remote-operation clients (the paper's five mechanisms):
//   * LL/SC + loads/stores/atomics: via coh::CacheCtrl
//   * amo(): ship an op to the home AMU, in the coherent domain
//   * mao(): same datapath, non-coherent (Origin 2000 / T3E style)
//   * uncached_load(): MAO-style spinning reads at the home memory
//   * am_rpc(): active message with timeout + retransmit
//
// Every remote reply wakes its thread the same way: it lands in an
// awaiter (or, for an AM, in the core's attempt state) and resumes the
// thread from one zero-cycle event.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>

#include "amu/amu.hpp"
#include "coh/cache_ctrl.hpp"
#include "coh/wiring.hpp"
#include "cpu/am_server.hpp"
#include "sim/task.hpp"

namespace amo::cpu {

struct CoreConfig {
  coh::CacheCtrlConfig cache;
  sim::Cycle am_timeout_cycles = 20000;
};

struct CoreStats {
  std::uint64_t amo_ops = 0;
  std::uint64_t mao_ops = 0;
  std::uint64_t uncached_loads = 0;
  std::uint64_t am_requests = 0;
  std::uint64_t am_retransmits = 0;
  std::uint64_t compute_cycles = 0;
};

/// Registry of node devices the cores talk to (wired by core::Machine).
struct NodeDevices {
  std::vector<amu::Amu*> amus;       // [node]
  std::vector<AmServer*> servers;    // [node]
};

class Core {
 public:
  Core(sim::Engine& engine, coh::Wiring& wiring, coh::Agents& agents,
       NodeDevices& devices, sim::CpuId cpu, const CoreConfig& config);

  [[nodiscard]] sim::CpuId cpu() const { return cpu_; }
  [[nodiscard]] sim::NodeId node() const { return node_; }
  [[nodiscard]] coh::CacheCtrl& cache() { return cache_; }
  [[nodiscard]] const coh::CacheCtrl& cache() const { return cache_; }
  [[nodiscard]] const CoreStats& stats() const { return stats_; }

  /// Non-memory work: reserves `cycles` of this core's serial CPU time
  /// now, and resumes the awaiting coroutine when the reservation ends.
  /// Await the result at once: the reservation is made at the call.
  [[nodiscard]] sim::Engine::DelayAwaiter compute(sim::Cycle cycles);

  /// Reserves CPU time for an AM handler (called by AmServer).
  [[nodiscard]] sim::Engine::DelayAwaiter occupy(sim::Cycle cycles) {
    return compute(cycles);
  }

  /// Awaitable result of amo(), mao() and uncached_load(): the old
  /// value, or the word loaded. Await it at once: the request leaves
  /// when it is awaited, and the reply resumes the caller through one
  /// zero-cycle event. It keeps the op's arguments, not a request (an
  /// AMO's request is built at the home), so a caller's frame stays
  /// small; it must not move while suspended.
  class [[nodiscard]] AmoAwaiter {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::uint64_t await_resume() const noexcept { return word_; }

   private:
    friend class Core;
    enum class Kind : std::uint8_t { kAmo, kMao, kUncachedLoad };
    AmoAwaiter(Core& core, Kind kind, amu::AmoOpcode op, sim::Addr addr,
               std::uint64_t operand, std::uint64_t operand2 = 0,
               std::optional<std::uint64_t> test = {})
        : core_(&core),
          addr_(addr),
          word_(operand),
          operand2_(operand2),
          test_(test.value_or(0)),
          op_(op),
          has_test_(test.has_value()),
          kind_(kind) {}

    /// Builds the request at the home; its reply completes this awaiter.
    [[nodiscard]] amu::AmoRequest request();

    Core* core_;
    sim::Addr addr_;
    // The operand until the request is built, then the old value: one
    // slot keeps the awaiter at 56 bytes.
    std::uint64_t word_;
    std::uint64_t operand2_;
    std::uint64_t test_;
    std::coroutine_handle<> h_;
    amu::AmoOpcode op_;
    bool has_test_;
    Kind kind_;
  };

  /// Active Memory Operation at the home node of `addr`; returns the old
  /// value. Supplying `test` selects the delayed-put policy.
  AmoAwaiter amo(amu::AmoOpcode op, sim::Addr addr, std::uint64_t operand,
                 std::optional<std::uint64_t> test = {},
                 std::uint64_t operand2 = 0) {
    return AmoAwaiter(*this, AmoAwaiter::Kind::kAmo, op, addr, operand,
                      operand2, test);
  }

  /// Memory-side atomic outside the coherent domain.
  AmoAwaiter mao(amu::AmoOpcode op, sim::Addr addr, std::uint64_t operand,
                 std::uint64_t operand2 = 0) {
    return AmoAwaiter(*this, AmoAwaiter::Kind::kMao, op, addr, operand,
                      operand2);
  }

  /// Uncached word load at the home memory (MAO spinning).
  AmoAwaiter uncached_load(sim::Addr addr) {
    return AmoAwaiter(*this, AmoAwaiter::Kind::kUncachedLoad,
                      amu::AmoOpcode{}, addr, 0);
  }

  /// Active-message RPC to the home node of `addr`; the home processor
  /// executes `op` coherently. Timeout-driven retransmission with
  /// server-side dedup gives exactly-once semantics. One AM at a time
  /// per core: the server keys its dedup state by cpu.
  sim::Task<std::uint64_t> am_rpc(amu::AmoOpcode op, sim::Addr addr,
                                  std::uint64_t operand,
                                  std::uint64_t operand2 = 0);

  /// An AmServer reply for AM attempt `token` reached this core.
  void am_reply(std::uint32_t token, std::uint64_t value);

 private:
  /// Suspends am_rpc until its current attempt is decided; yields the
  /// reply, or nothing on a timeout.
  struct AmWait {
    Core& core;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const noexcept {
      core.am_waiter_ = h;
    }
    std::optional<std::uint64_t> await_resume() const noexcept {
      return core.am_result_;
    }
  };

  /// Decides AM attempt `token` with `result` (nothing = timed out) if it
  /// is still the current attempt and undecided; else does nothing.
  void am_decide(std::uint32_t token, std::optional<std::uint64_t> result);

  sim::Engine& engine_;
  coh::Wiring& wiring_;
  coh::Agents& agents_;
  NodeDevices& devices_;
  sim::CpuId cpu_;
  sim::NodeId node_;
  CoreConfig config_;
  coh::MsgSizes sizes_;
  coh::CacheCtrl cache_;
  sim::Cycle cpu_busy_until_ = 0;
  std::uint64_t am_seq_ = 0;
  // The AM attempt in flight: `am_token_` names it; a reply or timeout
  // carrying another token is stale.
  std::uint32_t am_token_ = 0;
  bool am_decided_ = true;
  std::optional<std::uint64_t> am_result_;
  std::coroutine_handle<> am_waiter_;
  CoreStats stats_;
};

}  // namespace amo::cpu
