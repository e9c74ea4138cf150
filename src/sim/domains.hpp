// Conservative PDES over home-node domains.
//
// A Domains object partitions a machine's nodes into K contiguous blocks
// ("domains"), each owning a private Engine/EventQueue. K == 1 is the
// serial mode: one engine, one queue. K > 1 drains all engines in lockstep
// safe windows: every cross-domain message crosses the bus at both ends,
// >= 2 fat-tree links and a final serialization, so an event sent at time t
// cannot affect another domain before t + lookahead (2 * bus + 2 * min link
// latency + minimum packet serialization). Each window [T, T + lookahead)
// is safe to run on all K domains concurrently; cross-domain sends are
// parked in per-(src,dst) mailboxes and drained at the window boundary in
// deterministic (src-domain ascending, push order) order, so a K-domain
// run replays exactly.
//
// Worker threads come from a process-wide, never-destroyed pool (the
// FramePool's thread-local slabs are recycled when a thread exits, so
// simulation events — whose pooled allocations routinely cross domain
// threads — must only ever run on immortal threads; see domains.cpp).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace amo::sim {

/// Sense-reversing spin barrier for the window protocol. fetch_add is
/// acq_rel and the phase flip is release/acquire, so everything written
/// before a wait() is visible to every thread after it (this is the only
/// synchronization the mailboxes need).
class SpinBarrier {
 public:
  explicit SpinBarrier(std::uint32_t n) : n_(n) {}
  void reset(std::uint32_t n) {
    n_ = n;
    arrived_.store(0, std::memory_order_relaxed);
    phase_.store(0, std::memory_order_relaxed);
  }
  void wait();

 private:
  std::uint32_t n_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> phase_{0};
};

class Domains {
 public:
  /// Decomposes `num_nodes` nodes into `num_domains` contiguous blocks,
  /// each with its own engine. num_domains must be in [1, num_nodes].
  Domains(std::uint32_t num_domains, std::uint32_t num_nodes);

  /// Serial view over an externally owned engine: every one of
  /// `num_nodes` nodes maps to domain 0 and run() drives that engine on
  /// the calling thread. Used by unit tests (and microbenches) that
  /// construct a Network directly on an Engine.
  explicit Domains(Engine& external, std::uint32_t num_nodes = 1);

  Domains(const Domains&) = delete;
  Domains& operator=(const Domains&) = delete;

  [[nodiscard]] std::uint32_t count() const { return k_; }
  [[nodiscard]] std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(node_domain_.size());
  }
  [[nodiscard]] std::uint32_t domain_of(std::uint32_t node) const {
    assert(node < node_domain_.size());
    return node_domain_[node];
  }
  [[nodiscard]] Engine& engine(std::uint32_t d) { return *engines_[d]; }
  [[nodiscard]] const Engine& engine(std::uint32_t d) const {
    return *engines_[d];
  }
  [[nodiscard]] Engine& engine_for_node(std::uint32_t node) {
    return *engines_[domain_of(node)];
  }

  /// Schedules `fn` at absolute cycle `when` on `dst_node`'s engine.
  /// Same-domain: straight to the ladder queue. Cross-domain: parked in
  /// the (src-domain, dst-domain) mailbox; the destination worker drains
  /// it at the next window boundary. Conservative lookahead guarantees
  /// `when` lands at or beyond that boundary, so delivery never schedules
  /// into a domain's past.
  void deliver_at(std::uint32_t src_node, std::uint32_t dst_node, Cycle when,
                  EventQueue::Callback fn);

  /// Drains every engine. K == 1 runs the single engine to completion on
  /// the calling thread. K > 1 runs the lockstep window protocol on the
  /// process-wide domain thread pool; `lookahead` must be > 0. Returns
  /// total events processed.
  std::uint64_t run(Cycle lookahead);

  /// True when every engine's queue is empty (and, between runs, every
  /// mailbox too — run() never returns with parked mail).
  [[nodiscard]] bool all_idle() const;

  /// Sums of the per-engine counters (deterministic once quiescent).
  [[nodiscard]] std::uint64_t total_events_executed() const;
  [[nodiscard]] std::uint64_t total_events_scheduled() const;
  /// Latest per-engine clock — the machine-wide notion of "now" once the
  /// run has finished (with K == 1 this is exactly engine(0).now()).
  [[nodiscard]] Cycle max_now() const;

 private:
  struct Envelope {
    Cycle when;
    EventQueue::Callback fn;
  };

  void run_worker(std::uint32_t w, Cycle lookahead);
  [[nodiscard]] std::vector<Envelope>& mailbox(std::uint32_t src_d,
                                               std::uint32_t dst_d) {
    return mail_[src_d * k_ + dst_d];
  }

  std::uint32_t k_ = 1;
  std::vector<std::unique_ptr<Engine>> owned_;
  std::vector<Engine*> engines_;           // size k_
  std::vector<std::uint32_t> node_domain_;  // node -> owning domain
  std::vector<std::vector<Envelope>> mail_;  // [src_d * k_ + dst_d]

  // Window-protocol shared state. Written by worker 0 between barrier
  // phases; the barrier's ordering makes it visible to every worker.
  SpinBarrier barrier_{1};
  Cycle window_end_ = 0;
  bool stop_ = false;
  std::vector<std::uint64_t> processed_;  // per-worker event counts
};

}  // namespace amo::sim
