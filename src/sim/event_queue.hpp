// Time-ordered event queue: the heart of the discrete-event kernel.
//
// Events scheduled for the same cycle are processed in insertion (FIFO)
// order, which the rest of the simulator relies on for determinism and for
// per-(src,dst) message ordering in the network model.
//
// Layout: a three-tier ladder queue. The near future — a kWindowCycles-wide
// window of cycles aligned on a window boundary — is an array of per-cycle
// FIFO buckets plus an occupancy bitmap; push and pop there are O(1).
// Events beyond the window land in kSpans coarse spans (one window of
// cycles each, held unsorted in push order — O(1) append, no comparisons);
// when the window drains it advances to the next occupied span and
// distributes that span's events into buckets in push order. Buckets and
// spans are the same thing in storage: chains of fixed-size chunks of
// {when, fn} slots, carved from slab allocations and recycled through one
// free list, so storage follows the pending events and steady-state churn
// performs no heap allocation. A slot is 64 bytes and chunks are 64-byte
// aligned, so one event occupies one host cache line. Only events beyond
// the span horizon (kSpans windows out: long watchdog timeouts) go to a
// binary-heap overflow ordered by (cycle, push order); heap entries
// migrate into spans as the horizon advances. FIFO within every cycle is
// exact across all three tiers.
//
// The window never passes the last popped cycle: next_time() only peeks,
// and dispatch() is what advances the window. Since every push is at or
// after the last popped cycle (the engine's clock), no push lands behind
// the window, and each event is bucketed at most once.
//
// A callback is moved once, into its slot, and dispatch() runs it there:
// no move out, no second destruction. The slot's chunk is retired only
// after the callback returns, because the callback may push into its own
// cycle (the push appends behind it, to the same chain).
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/types.hpp"

namespace amo::sim {

class EventQueue {
 public:
  using Callback = InlineFn;

  /// Runs the earliest event in its queue slot: calls `run(when, fn)` and
  /// then retires the slot, also when `run` throws. `fn` may push events,
  /// into its own cycle too; those run after it, in push order.
  /// Precondition: !empty().
  template <typename Run>
  void dispatch(Run&& run) {
    Slot& s = front();
    struct Retire {
      EventQueue& q;
      ~Retire() { q.retire_front(); }
    } retire{*this};
    run(s.when, s.fn);
  }

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `when`. Precondition: `when`
  /// is no earlier than the last popped cycle.
  void push(Cycle when, Callback&& fn);

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest pending event. Precondition: !empty(). Peeks
  /// without moving the window, so pushes may follow before the next pop.
  [[nodiscard]] Cycle next_time() {
    if (stale_) settle();
    return next_time_;
  }

  /// Total number of events ever pushed (for throughput accounting).
  [[nodiscard]] std::uint64_t total_pushed() const { return seq_; }

  /// Storage chunks carved from slabs so far. Retired chunks are reused
  /// before new ones are carved, so this tracks peak pending storage.
  [[nodiscard]] std::size_t chunks_carved() const {
    return slabs_.size() * kChunksPerSlab - (kChunksPerSlab - slab_used_);
  }

 private:
  /// Cycles covered by the bucket window. Must be a power of two. 1024
  /// covers every latency the machine model pays per event (hops ~100,
  /// bus ~50, DRAM ~60, spin backoff ≤ ~2000 split across events); only
  /// long watchdog timeouts take the overflow path.
  static constexpr Cycle kWindowCycles = 1024;
  static constexpr Cycle kWindowMask = kWindowCycles - 1;
  static constexpr int kWindowBits = 10;
  static_assert(kWindowCycles == Cycle{1} << kWindowBits);
  static constexpr std::size_t kOccWords = kWindowCycles / 64;

  /// Middle-tier spans: each covers one window-width of cycles beyond the
  /// current window, so barrier storms that reserve links hundreds of
  /// thousands of cycles ahead stay on O(1) appends instead of heap
  /// sifts. 256 spans cover ~262k cycles past the window.
  static constexpr Cycle kSpans = 256;
  static constexpr Cycle kSpanMask = kSpans - 1;
  static constexpr std::size_t kSpanOccWords = kSpans / 64;

  /// Slots per storage chunk (~2 KB chunks) and chunks per slab (~66 KB
  /// slabs): large enough that slab allocation is rare, small enough that
  /// a sparse machine does not pin much idle memory.
  static constexpr std::uint32_t kChunkSlots = 32;
  static constexpr std::size_t kChunksPerSlab = 32;

  // A far-future event in the overflow heap, ordered by (when, seq). The
  // callback itself lives in a stable side pool (`oflow_slots_`); the heap
  // holds only this trivially-copyable key, so sift operations during
  // push/pop move 24 bytes instead of relocating a full InlineFn per
  // level. Barrier storms park thousands of events past the window, which
  // made those relocations the hottest path in packet-heavy runs.
  struct OflowKey {
    Cycle when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // One pending event in a bucket or span chain. A bucket's slots all
  // carry the bucket's cycle; a span's carry cycles of one window.
  struct Slot {
    Cycle when;
    Callback fn;
  };
  static_assert(sizeof(Slot) == 64, "one event per host cache line");

  // A fixed-size run of event slots. Slots in [begin, end) hold live
  // events (placement-constructed). `next` chains FIFO order, or the free
  // list when retired. The header takes the first line, so every slot
  // is line-aligned.
  struct alignas(64) Chunk {
    Chunk* next;
    std::uint32_t begin;
    std::uint32_t end;
    alignas(64) std::byte raw[kChunkSlots * sizeof(Slot)];

    [[nodiscard]] Slot* slot(std::uint32_t i) {
      return std::launder(reinterpret_cast<Slot*>(raw + i * sizeof(Slot)));
    }
  };
  using Slab = std::unique_ptr<Chunk[]>;

  /// Process-wide slab recycling (see event_queue.cpp).
  struct SlabPool;
  static SlabPool& slab_pool();
  static Slab pool_acquire();
  static void pool_release(std::vector<Slab>& slabs);

  // A FIFO of events: a bucket (one cycle) or a span (one window). Spans
  // need no sequence numbers: a chain is append-only in push order, and
  // heap entries only migrate into a span while it is empty (a slot
  // enters the horizon exactly once), so chain order is FIFO order for
  // every cycle. Empty iff head == nullptr.
  struct Chain {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
  };

  [[nodiscard]] Chain& bucket_of(Cycle when) {
    return buckets_[static_cast<std::size_t>(when & kWindowMask)];
  }
  [[nodiscard]] static std::size_t span_slot(Cycle when) {
    return static_cast<std::size_t>((when >> kWindowBits) & kSpanMask);
  }
  [[nodiscard]] Cycle window_end() const { return base_ + kWindowCycles; }
  /// First cycle not covered by the window or any span.
  [[nodiscard]] Cycle horizon() const {
    return ((base_ >> kWindowBits) + kSpans + 1) << kWindowBits;
  }

  /// The earliest event's slot, counted out of the queue but left in
  /// place; moves the window onto it. Precondition: !empty().
  Slot& front() {
    assert(size_ > 0 && "dispatch from empty EventQueue");
    if (stale_) settle();
    const Cycle when = next_time_;
    if (when >= window_end()) advance();
    Chunk* h = bucket_of(when).head;
    assert(h != nullptr && h->begin < h->end && "settled bucket has no entry");
    last_pop_ = when;
    --in_window_;
    --size_;
    return *h->slot(h->begin);
  }
  /// Destroys the slot front() returned and retires its chunk if drained.
  void retire_front() noexcept {
    // Pushes made by the callback only append to chains, so the running
    // slot is still its bucket's first.
    Chain& b = bucket_of(last_pop_);
    Chunk* h = b.head;
    h->slot(h->begin)->~Slot();
    if (++h->begin == h->end) drain_head(b);
  }
  /// Unlinks and retires `b`'s drained head chunk.
  void drain_head(Chain& b) noexcept;

  Chunk* alloc_chunk();
  void retire_chunk(Chunk* c) {
    c->next = free_chunks_;
    free_chunks_ = c;
  }
  /// Appends to `c`; returns true when `c` was empty.
  bool chain_append(Chain& c, Cycle when, Callback&& fn);
  void destroy_chain(Chain& c);

  void bucket_append(Cycle when, Callback&& fn);
  void span_append(Cycle when, Callback&& fn);
  void push_overflow(Cycle when, Callback&& fn);
  // Removes the earliest overflow event: moves its callback into `*fn`
  // and returns its cycle.
  Cycle pop_overflow(Callback* fn);
  /// Pulls heap events now inside the horizon into buckets/spans. Call
  /// after every base_ advance; a span receives migrated entries only
  /// while empty (its slot just entered the horizon), preserving FIFO.
  void migrate_overflow();

  /// Names the earliest pending cycle in `next_time_` without moving the
  /// window: the first occupied bucket at or after the last popped cycle,
  /// else the first occupied span's earliest cycle, else the heap front.
  void settle();

  /// Moves the window onto `next_time_` (which lies past it): distributes
  /// that window's span into buckets and migrates the heap.
  void advance();

  /// Finds the first occupied bucket cycle at or after `from` within the
  /// window, or returns false when the window is empty from there on.
  [[nodiscard]] bool scan_occupancy(Cycle from, Cycle* found) const;

  /// The occupied span slot nearest the window. Precondition: some span
  /// is occupied.
  [[nodiscard]] std::size_t first_span() const;

  std::vector<Chain> buckets_;
  std::uint64_t occ_[kOccWords] = {};  // bit per window cycle: bucket non-empty
  std::array<Chain, kSpans> spans_;     // middle tier, by window & kSpanMask
  std::array<Cycle, kSpans> span_min_{};  // earliest cycle per occupied span
  std::uint64_t span_occ_[kSpanOccWords] = {};  // bit per span: non-empty
  std::size_t span_events_ = 0;        // pending events held in spans
  std::vector<OflowKey> overflow_;     // binary min-heap by (when, seq)
  std::vector<InlineFn> oflow_slots_;  // callback storage behind the heap
  std::vector<std::uint32_t> oflow_free_;  // vacant oflow_slots_ indices
  Cycle base_ = 0;       // window start, kWindowCycles-aligned, ≤ last_pop_
  Cycle next_time_ = 0;  // earliest pending cycle, or last_pop_ when stale_
  Cycle last_pop_ = 0;   // cycle of the last popped event
  bool stale_ = true;    // next_time_ needs settle(); set at construction
                         // and when a pop drains a bucket
  std::size_t size_ = 0;               // total pending events
  std::size_t in_window_ = 0;          // pending events held in buckets
  std::uint64_t seq_ = 0;              // total pushes ever (stats)
  std::uint64_t order_ = 0;            // overflow FIFO tie-break source

  std::vector<Slab> slabs_;
  std::size_t slab_used_ = kChunksPerSlab;  // chunks carved from last slab
  Chunk* free_chunks_ = nullptr;            // retired chunks, LIFO
};

}  // namespace amo::sim
