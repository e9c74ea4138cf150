// Active-message endpoint of a node (the paper's "ActMsg" mechanism).
//
// Handlers execute on the node's first processor: each message pays a
// handler *invocation* overhead (trap/dispatch — the dominant cost per the
// paper) plus a small handler body, both of which occupy the host core and
// therefore interfere with its own thread's work. The operation itself
// runs through the host core's coherent cache (a local atomic), so
// spinners on remote processors see normal invalidation traffic.
//
// Requests carry (source, sequence) pairs; the server deduplicates
// retransmissions and re-sends cached replies, so client timeouts add
// traffic (Figure 7's blow-up) without breaking exactly-once semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "amu/amo_ops.hpp"
#include "coh/cache_ctrl.hpp"
#include "coh/wiring.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace amo::cpu {

class Core;

struct AmServerConfig {
  sim::Cycle invoke_cycles = 600;  // handler invocation overhead
  sim::Cycle handler_cycles = 40;  // handler body beyond the memory op
};

struct AmServerStats {
  std::uint64_t requests = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t replays = 0;  // replies re-sent from the dedup cache
  std::uint64_t handled = 0;
};

class AmServer {
 public:
  AmServer(sim::Engine& engine, coh::Wiring& wiring, Core& host,
           const AmServerConfig& config);

  /// Arrival of attempt `token` of `src`'s request `seq`. The handler
  /// performs `op` (amu::AmoOpcode semantics) through the host core's
  /// coherent cache; every attempt that asked gets a reply carrying its
  /// token and the old value.
  void on_request(Core& src, std::uint64_t seq, std::uint32_t token,
                  amu::AmoOpcode op, sim::Addr addr, std::uint64_t operand,
                  std::uint64_t operand2);

  [[nodiscard]] const AmServerStats& stats() const { return stats_; }

  /// Registers handler counters under `prefix`.
  void register_stats(sim::StatsRegistry& reg, const std::string& prefix) const;

 private:
  struct Request {
    Core* src;
    std::uint64_t seq;
    amu::AmoOpcode op;
    sim::Addr addr;
    std::uint64_t operand;
    std::uint64_t operand2;
  };
  struct SourceState {
    bool has_completed = false;
    std::uint64_t completed_seq = 0;
    std::uint64_t completed_value = 0;
    bool inflight = false;
    std::uint64_t inflight_seq = 0;
    // Every attempt that asked for the inflight seq (the original plus
    // retransmissions) is answered when the handler finishes.
    std::vector<std::uint32_t> inflight_tokens;
  };

  void pump();
  sim::Task<void> process(Request req);
  void send_reply(Core& dst, std::uint32_t token, std::uint64_t value);

  sim::Engine& engine_;
  coh::Wiring& wiring_;
  Core& host_;
  AmServerConfig config_;
  std::deque<Request> queue_;
  bool busy_ = false;
  std::unordered_map<sim::CpuId, SourceState> sources_;
  AmServerStats stats_;
};

}  // namespace amo::cpu
