// The home-node directory controller: blocking MESI directory plus the
// paper's fine-grained word get/put extension. See protocol.hpp for the
// protocol summary.
//
// Every message entry point passes through a serial occupancy resource
// (`dir_occupancy` cycles per message) — this models the hub's directory
// pipeline and is the source of home hot-spotting under contention.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "coh/agents.hpp"
#include "coh/protocol.hpp"
#include "coh/sharer_set.hpp"
#include "coh/wiring.hpp"
#include "mem/backing.hpp"
#include "mem/dram.hpp"
#include "mem/line_buf.hpp"
#include "sim/frame_pool.hpp"
#include "sim/inline_fn.hpp"
#include "sim/stats_registry.hpp"

namespace amo::coh {

struct DirConfig {
  sim::Cycle occupancy_cycles = 16;  // per-message processing slot
  /// Pipeline slot for *uncached* word accesses (MAO spinning): the full
  /// MC path (decode, DRAM scheduling, reply) at hub speed. Uncached
  /// polling floods steal this shared pipeline from everyone else.
  sim::Cycle uncached_occupancy_cycles = 200;
  bool put_block_granularity = false;  // ablation: block-sized update packets
  /// Three-hop forwarding (Origin-style): an exclusive owner sends
  /// recalled data directly to the requestor, cutting one traversal off
  /// the critical path; the home stays blocked until the requestor's
  /// fill-ack (revision handshake). Off = home-centric four-hop.
  bool three_hop = false;
  /// Limited-pointer directory: track at most this many sharers exactly;
  /// beyond it the entry goes coarse and invalidations / word-update
  /// waves must broadcast to every cpu (Origin-style DIR-i-B). 0 = full
  /// bit-vector (the default, and what the paper's 256-cpu directory
  /// structure provides).
  std::uint32_t sharer_pointer_limit = 0;
  /// MESI vs MSI: grant clean-exclusive (E) to the first reader of an
  /// uncached block. Disabling it models an MSI protocol, where every
  /// first write pays an upgrade round trip.
  bool grant_exclusive_clean = true;
};

struct DirStats {
  std::uint64_t gets = 0;
  std::uint64_t overflows = 0;      // entries gone coarse
  std::uint64_t broadcast_invals = 0;
  std::uint64_t getx = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t putbacks = 0;
  std::uint64_t invals_sent = 0;
  std::uint64_t recalls_sent = 0;
  std::uint64_t word_gets = 0;
  std::uint64_t word_puts = 0;
  std::uint64_t word_updates_sent = 0;
  std::uint64_t uncached_reads = 0;
  std::uint64_t deferred = 0;  // requests queued behind a busy block
  /// Cycles each incoming message queued for a free pipeline slot. Owned
  /// by the stats registry; nullptr when histograms are off.
  sim::LogHistogram* occupancy_wait_hist = nullptr;
};

class Directory {
 public:
  enum class State : std::uint8_t { kUncached, kShared, kExclusive };

  Directory(sim::Engine& engine, Wiring& wiring, Agents& agents,
            sim::NodeId node, mem::Backing& backing, mem::Dram& dram,
            const DirConfig& config);

  // --- message entry points (arrival time; occupancy applied inside) ---
  void on_gets(sim::CpuId r, sim::Addr block);
  void on_getx(sim::CpuId r, sim::Addr block);
  void on_upgrade(sim::CpuId r, sim::Addr block);
  /// Writeback of a modified line. `data` is a call-duration view; the
  /// directory copies what it needs before returning.
  void on_putm(sim::CpuId o, sim::Addr block,
               std::span<const std::uint64_t> data);
  void on_pute(sim::CpuId o, sim::Addr block);
  /// Recall response. `had_line`: the owner still held the line (kept an S
  /// copy for a share recall). `dirty`: `data` carries modified contents.
  void on_recall_resp(sim::CpuId o, sim::Addr block, bool had_line, bool dirty,
                      std::span<const std::uint64_t> data);
  void on_inv_ack(sim::CpuId s, sim::Addr block);
  /// Three-hop mode: the requestor installed forwarded data.
  void on_fill_ack(sim::CpuId r, sim::Addr block);

  // --- non-coherent (MAO) accesses ---
  /// Uncached word load for `r`: the reply stores the word in `*word`
  /// and wakes `waiter`, whose frame holds `*word`.
  void on_uncached_read(sim::CpuId r, sim::Addr addr, std::uint64_t* word,
                        std::coroutine_handle<> waiter);

  // --- fine-grained interface for the on-hub AMU ---
  /// Fetches the coherent value of a word; registers the AMU as a
  /// word-granular sharer. May recall an exclusive owner. `done` may hold
  /// move-only captures.
  void word_get(sim::Addr addr, sim::InlineFnT<std::uint64_t> done);
  /// Pushes a word value to memory and to every cached copy.
  void word_put(sim::Addr addr, std::uint64_t value);
  /// The AMU evicted its last word of this block.
  void amu_release(sim::Addr block);

  // --- introspection (tests / invariant checks) ---
  [[nodiscard]] State state_of(sim::Addr block) const;
  [[nodiscard]] bool is_sharer(sim::Addr block, sim::CpuId cpu) const;
  [[nodiscard]] sim::CpuId owner_of(sim::Addr block) const;
  [[nodiscard]] bool amu_sharer(sim::Addr block) const;
  [[nodiscard]] bool busy(sim::Addr block) const;
  [[nodiscard]] bool coarse(sim::Addr block) const;
  [[nodiscard]] const DirStats& stats() const { return stats_; }

  /// Registers this directory's counters under `prefix`.
  void register_stats(sim::StatsRegistry& reg, const std::string& prefix);
  [[nodiscard]] sim::NodeId node() const { return node_; }

 private:
  struct Txn {
    enum class Kind : std::uint8_t { kGetS, kGetX, kUpgrade, kWordGet };
    Kind kind = Kind::kGetS;
    sim::CpuId requestor = sim::kInvalidCpu;
    std::uint32_t pending_acks = 0;
    bool waiting_recall = false;
    sim::CpuId recall_from = sim::kInvalidCpu;
    bool recall_done = false;      // resp (or crossing putback) consumed
    bool owner_retained = false;   // owner kept an S copy (share recall)
    bool forwarded = false;        // three-hop: owner shipped data directly
    bool fill_acked = false;       // three-hop: requestor confirmed install
    sim::InlineFnT<std::uint64_t> word_done;  // kWordGet completion
    sim::Addr word_addr = 0;
  };

  // A directory line entry. Entries are unordered_map nodes (stable
  // addresses across inserts); `waiting` is the FIFO of deferred requests
  // parked behind a busy block. Both draw from sim::FramePool, so a
  // steady-state miss costs no heap allocation.
  // The sharer set leads so the small fields below pack into one word
  // after it instead of padding around it.
  struct Entry {
    SharerSet sharers;
    sim::CpuId owner = sim::kInvalidCpu;
    State st = State::kUncached;
    bool coarse = false;  // limited-pointer overflow: sharers unknown
    bool amu_sharer = false;
    bool busy = false;
    Txn txn;
    std::list<sim::InlineFn, sim::FramePoolAllocator<sim::InlineFn>>
        waiting;  // deferred-request FIFO
  };

  // --- entry table ---
  Entry& entry(sim::Addr block);
  [[nodiscard]] const Entry* peek_entry(sim::Addr block) const {
    const auto it = entries_.find(block);
    return it == entries_.end() ? nullptr : &it->second;
  }
  /// Erases `block`'s entry when it carries no state at all (idle,
  /// uncached, unshared, no waiters): long-running workloads would
  /// otherwise accumulate one dead entry per block ever touched.
  /// Call only at points where no Entry& reference is live.
  void maybe_reclaim(sim::Addr block);

  /// Delivers one word-put at node `n`: patches every targeted cache on
  /// that node. The sharer snapshot travels by value in the fan-out
  /// closure: the recipients are fixed at the home pipeline slot.
  void deliver_put(const SharerSnapshot& targets, sim::Addr addr,
                   std::uint64_t value, sim::NodeId n);

  /// Serializes message processing through the directory pipeline.
  /// `cycles` == 0 uses the default per-message occupancy.
  void occupy(sim::InlineFn&& fn, sim::Cycle cycles = 0);

  // Handlers run after the occupancy slot.
  void handle_gets(sim::CpuId r, sim::Addr block);
  void handle_getx(sim::CpuId r, sim::Addr block);
  void handle_upgrade(sim::CpuId r, sim::Addr block);
  void handle_uncached_read(sim::CpuId r, sim::Addr addr, std::uint64_t* word,
                            std::coroutine_handle<> waiter);
  void handle_word_get(sim::Addr addr, sim::InlineFnT<std::uint64_t> done);

  /// Reads the line from backing store with AMU words merged in. Returns
  /// a fixed inline buffer (no allocation).
  mem::LineBuf coherent_line(sim::Addr block);
  /// Merges + drops the AMU's words before a processor takes ownership.
  void flush_amu(sim::Addr block);

  void send_recall(sim::CpuId owner, sim::Addr block, bool exclusive,
                   sim::CpuId fwd_to);
  /// Registers a sharer, tipping the entry into coarse mode when the
  /// pointer limit is exceeded.
  void add_sharer(Entry& e, sim::CpuId cpu);
  void send_invals(Entry& e, sim::Addr block, sim::CpuId except);
  void reply_data(sim::CpuId r, sim::Addr block, bool exclusive);
  void maybe_finish_txn(sim::Addr block);
  void finish_txn(sim::Addr block);
  /// Pops one deferred request if the block is now free.
  void kick(sim::Addr block);

  sim::Engine& engine_;
  Wiring& wiring_;
  Agents& agents_;
  sim::NodeId node_;
  mem::Backing& backing_;
  mem::Dram& dram_;
  DirConfig config_;
  MsgSizes sizes_;
  sim::Cycle busy_until_ = 0;  // occupancy pipeline

  // Entries are dominated by the kMaxCpus-wide SharerSet (~600 bytes
  // at 4096 CPUs); each node holds one entry, so a directory with a few
  // live lines pins a few entries' worth of pool blocks.
  std::unordered_map<
      sim::Addr, Entry, std::hash<sim::Addr>, std::equal_to<>,
      sim::FramePoolAllocator<std::pair<const sim::Addr, Entry>>>
      entries_;

  std::vector<sim::NodeId> put_nodes_;  // scratch target list, reused per put

  DirStats stats_;
};

}  // namespace amo::coh
