// The Active Memory Unit: a small function unit plus an N-word cache on
// the home memory controller.
//
// Requests are dispatched in order; an AMU-cache hit completes in
// `op_cycles` (the paper's "two [hub] cycles") independent of contention.
// Coherent requests (AMOs) fetch their operand through the directory's
// fine-grained word get and push results with word put; the *put policy*
// implements the paper's delayed update:
//
//   * request carries a test value  -> put only when result == test
//     (barrier: one update wave when the count reaches P)
//   * no test value                 -> eager put on every operation
//     (lock fetchadd: spinners' copies are patched in place)
//
// Non-coherent requests (MAOs, as on Origin 2000 / T3E) use the same
// datapath but read/write memory directly — software must keep MAO
// variables out of processor caches.
#pragma once

#include <cstdint>
#include <vector>

#include "amu/amo_ops.hpp"
#include "coh/agents.hpp"
#include "coh/directory.hpp"
#include "coh/wiring.hpp"
#include "ds/ring_queue.hpp"
#include "mem/backing.hpp"
#include "mem/dram.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/stats.hpp"
#include "sim/stats_registry.hpp"

namespace amo::amu {

struct AmuConfig {
  std::uint32_t cache_words = 8;  // paper: eight-word AMU cache
  sim::Cycle op_cycles = 8;       // 2 hub cycles @ 500 MHz = 8 CPU cycles
  bool eager_put_all = false;     // ablation: ignore test values
};

struct AmuStats {
  std::uint64_t ops = 0;
  std::uint64_t amo_ops = 0;
  std::uint64_t mao_ops = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t puts = 0;
  std::uint64_t puts_suppressed = 0;  // silent ops (result == old value)
  sim::Accum queue_depth;
  // Per-subtree aggregation counters (struct-only, not in the stats
  // registry, so default-mode snapshots stay byte-identical).
  std::uint64_t agg_fires = 0;     // route thresholds crossed
  std::uint64_t agg_forwards = 0;  // combined fetch-adds sent up the tree
  std::uint64_t agg_releases = 0;  // release-wave actions at this AMU
  // Ops whose word a processor GetX dropped during the op window, so the
  // op re-fetched it (struct-only, like the aggregation counters).
  std::uint64_t op_restarts = 0;
  /// Cycles each request waited in the dispatch queue. Owned by the
  /// stats registry; nullptr when histograms are off.
  sim::LogHistogram* queue_wait_hist = nullptr;
};

struct AmoRequest {
  AmoOpcode op = AmoOpcode::kInc;
  sim::Addr addr = 0;
  std::uint64_t operand = 0;
  std::uint64_t operand2 = 0;  // CAS new-value
  bool has_test = false;
  std::uint64_t test = 0;
  bool coherent = true;  // true: AMO, false: MAO
  sim::Cycle enqueued_at = 0;  // submit() stamp, for the queue-wait histogram
  // Receives the *old* value. InlineFn storage makes requests move-only;
  // they travel through the queue and retry loops without allocation.
  sim::InlineFnT<std::uint64_t> reply;
};

class Amu final : public coh::AmuIface {
 public:
  Amu(sim::Engine& engine, sim::NodeId node, coh::Directory& dir,
      mem::Backing& backing, mem::Dram& dram, const AmuConfig& config);

  /// Enqueues a request (arrival time at the hub). Replies, puts, and
  /// cache maintenance all happen as the queue drains in order.
  void submit(AmoRequest&& req);

  // ---- coh::AmuIface ----
  [[nodiscard]] bool holds_word(sim::Addr addr) const override;
  [[nodiscard]] std::uint64_t peek_word(sim::Addr addr) const override;
  void store_word(sim::Addr addr, std::uint64_t value) override;
  void drop_block(sim::Addr block) override;

  [[nodiscard]] const AmuStats& stats() const { return stats_; }

  // ---- per-subtree aggregation (hierarchy-aware barriers) ----
  //
  // A route watches one monotonic counter word homed at this AMU. Every
  // time an operation carries the counter across a multiple of
  // `threshold` (episode k completes at value k * threshold), the AMU
  // either forwards ONE combined fetch-add to the parent subtree's
  // counter — so the root links see O(clusters) messages instead of
  // O(P) arrivals — or, at the root, starts the release wave: publish
  // the episode into the local release word (through the AMU's own
  // eager-put datapath) and fan it down to the child aggregators, which
  // recurse. Routes are installed by the cluster
  // barrier at construction and are reusable across episodes because the
  // counters only grow.

  struct AggRoute {
    sim::Addr counter = 0;         // watched counter word (homed here)
    std::uint64_t threshold = 0;   // fires when result % threshold == 0
    bool has_parent = false;       // false: this route is the root
    sim::NodeId parent_node = 0;
    sim::Addr parent_counter = 0;  // combined fetch-add target
    sim::Addr release = 0;         // word-put target on release (0 = none)
    std::vector<std::pair<sim::NodeId, sim::Addr>>
        children;  // release fan-down: (node, child route counter)
  };

  /// Connects this AMU to the fabric for AMU -> AMU forwarding. Machine
  /// calls this once after constructing every AMU; `peers` must stay
  /// valid for the AMU's lifetime.
  void connect_fabric(coh::Wiring* wiring, const std::vector<Amu*>* peers) {
    wiring_ = wiring;
    peers_ = peers;
  }

  /// Installs a route (replacing any existing route on the same counter).
  /// Host-side configuration: call before the run starts.
  void add_agg_route(AggRoute route);
  void clear_agg_routes() { agg_routes_.clear(); }

  /// Release-wave entry point; runs at this node (posted by the parent
  /// aggregator). Publishes the route's release word and forwards
  /// to the route's children.
  void agg_release(sim::Addr counter, std::uint64_t episode);

  /// Registers this AMU's counters under `prefix`.
  void register_stats(sim::StatsRegistry& reg, const std::string& prefix);
  [[nodiscard]] std::size_t queue_len() const { return queue_.size(); }

 private:
  struct Entry {
    sim::Addr addr = 0;
    std::uint64_t value = 0;
    bool valid = false;
    bool dirty = false;
    bool coherent = true;
    std::uint64_t lru = 0;
  };

  Entry* lookup(sim::Addr addr);
  [[nodiscard]] const Entry* lookup(sim::Addr addr) const;
  /// Installs a word, evicting (and flushing) the LRU entry if full.
  Entry& install(sim::Addr addr, std::uint64_t value, bool coherent);
  void evict(Entry& entry);

  /// Starts the next queued request, if any. Call only when idle.
  void pump();
  /// Makes `req` the in-flight request and starts it.
  void begin(AmoRequest&& req);
  /// Runs the hit/miss datapath for the in-flight request `cur_`.
  void start();
  /// End of the op window: executes `cur_`, or restarts it from scratch
  /// if the word was dropped (coherence flush) before the op commits.
  void finish_op();
  void execute(Entry& entry);

  [[nodiscard]] AggRoute* find_agg_route(sim::Addr counter);
  /// Fires the route's aggregation action for the episode that just
  /// completed: forward up, or start the release wave at the root.
  void agg_fire(AggRoute& route, std::uint64_t result);
  void do_agg_release(AggRoute& route, std::uint64_t episode);

  sim::Engine& engine_;
  sim::NodeId node_;
  coh::Directory& dir_;
  mem::Backing& backing_;
  mem::Dram& dram_;
  AmuConfig config_;

  coh::Wiring* wiring_ = nullptr;          // aggregation transport
  const std::vector<Amu*>* peers_ = nullptr;
  std::vector<AggRoute> agg_routes_;       // few per node; linear lookup

  ds::RingQueue<AmoRequest> queue_;
  // The one request in flight while dispatching_: the op-window event and
  // the word-get continuation find it here instead of carrying it.
  AmoRequest cur_;
  bool dispatching_ = false;
  std::vector<Entry> entries_;
  std::uint64_t lru_clock_ = 0;
  AmuStats stats_;
};

}  // namespace amo::amu
