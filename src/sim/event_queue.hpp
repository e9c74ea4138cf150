// Time-ordered event queue: the heart of the discrete-event kernel.
//
// Events scheduled for the same cycle are processed in insertion (FIFO)
// order, which the rest of the simulator relies on for determinism and for
// per-(src,dst) message ordering in the network model.
//
// Layout: a three-level ladder queue. The near future — a
// kWindowCycles-wide window of cycles aligned on a window boundary — is an
// array of per-cycle FIFO buckets plus an occupancy bitmap; push and pop
// there are O(1). Bucket storage is chunked: fixed-size chunks of InlineFn
// slots carved from slab allocations and recycled through a free list, so
// steady-state churn performs no heap allocation and no growth copies.
// Events beyond the window land in a middle tier of kSpans coarse spans
// (one window of cycles each, held as unsorted per-span FIFO vectors —
// O(1) append, no comparisons); when the window drains it advances to the
// next occupied span and distributes that span's events into buckets in
// push order. Only events beyond the span horizon (kSpans windows out:
// long watchdog timeouts) go to a binary-heap overflow ordered by
// (cycle, push order); heap entries migrate into spans as the horizon
// advances. FIFO within every cycle is exact across all three tiers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/stats_registry.hpp"
#include "sim/types.hpp"

namespace amo::sim {

class EventQueue {
 public:
  using Callback = InlineFn;

  /// An event popped from the queue: its scheduled time and its callback.
  struct Popped {
    Cycle when;
    Callback fn;
  };

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `when`.
  void push(Cycle when, Callback fn);

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Cycle next_time() const { return next_time_; }

  /// Removes and returns the earliest event. Precondition: !empty().
  Popped pop();

  /// Total number of events ever pushed (for throughput accounting).
  [[nodiscard]] std::uint64_t total_pushed() const { return seq_; }

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
  /// Minimum capacity every span vector is seeded with on acquire, so
  /// steady-state span traffic never allocates (see acquire_span_vecs).
  static constexpr std::size_t kSpanVecFloor = 16;

  /// Callbacks per storage chunk (~2 KB chunks) and chunks per slab
  /// (~66 KB slabs): large enough that slab allocation is rare, small
  /// enough that a sparse machine does not pin much idle memory.
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

  // A middle-tier event. Spans need no sequence number: a span's vector
  // is append-only in push order, and heap entries only migrate into a
  // span while it is empty (a slot enters the horizon exactly once), so
  // list order is FIFO order for every cycle.
  struct SpanEvent {
    Cycle when;
    Callback fn;
  };

  // A fixed-size run of event slots. Slots in [begin, end) hold live
  // callbacks (placement-constructed; their cycle is the owning bucket's).
  // `next` chains bucket FIFO order, or the free list when retired.
  struct Chunk {
    Chunk* next;
    std::uint32_t begin;
    std::uint32_t end;
    alignas(InlineFn) std::byte raw[kChunkSlots * sizeof(InlineFn)];

    [[nodiscard]] InlineFn* slot(std::uint32_t i) {
      return std::launder(
          reinterpret_cast<InlineFn*>(raw + i * sizeof(InlineFn)));
    }
  };

  // Per-cycle FIFO: a chain of chunks. Empty iff head == nullptr.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
  };

  [[nodiscard]] Bucket& bucket_of(Cycle when) {
    return buckets_[static_cast<std::size_t>(when & kWindowMask)];
  }
  [[nodiscard]] Cycle window_end() const { return base_ + kWindowCycles; }

  Chunk* alloc_chunk();
  void retire_chunk(Chunk* c) {
    c->next = free_chunks_;
    free_chunks_ = c;
  }

  void push_overflow(Cycle when, Callback fn);
  // Removes the earliest overflow event: moves its callback into `*fn`
  // and returns its cycle.
  Cycle pop_overflow(Callback* fn);
  void bucket_append(Cycle when, Callback fn);
  void occ_set(Cycle when);
  void occ_clear(Cycle when);

  /// First cycle not covered by the window or any span.
  [[nodiscard]] Cycle horizon() const {
    return ((base_ >> kWindowBits) + kSpans + 1) << kWindowBits;
  }
  void span_append(Cycle when, Callback fn);
  // Process-wide recycling of span vector capacity (mirrors the chunk
  // slab pool): sweeps construct engines back to back, and re-growing 256
  // vectors per engine would dominate short simulations.
  class SpanVecPool;
  static SpanVecPool& span_vec_pool();
  static void acquire_span_vecs(std::array<std::vector<SpanEvent>, kSpans>* out);
  static void release_span_vecs(std::array<std::vector<SpanEvent>, kSpans>* in);
  /// Pulls heap events now inside the horizon into buckets/spans. Call
  /// after every base_ advance; a span receives migrated entries only
  /// while empty (its slot just entered the horizon), preserving FIFO.
  void migrate_overflow();

  /// Re-establishes the invariant that `next_time_` names the earliest
  /// pending cycle and its bucket is populated, advancing the window from
  /// the overflow heap when the bucketed range has drained.
  void settle();

  /// Finds the first occupied bucket cycle at or after `from` within the
  /// window, or returns false when the window is empty from there on.
  [[nodiscard]] bool scan_occupancy(Cycle from, Cycle* found) const;

  /// Spills one span slot's events to the overflow heap (fresh sequence
  /// numbers in list order keep per-cycle FIFO).
  void spill_span(std::size_t slot);

  /// Re-anchors the window below `base_` for a push into the past. Small
  /// backsteps (< kSpans windows) only touch the aliased span slots;
  /// deeper ones spill every tier to the heap.
  void rebase(Cycle when);

  std::vector<Bucket> buckets_;
  std::uint64_t occ_[kOccWords] = {};  // bit per window cycle: bucket non-empty
  std::array<std::vector<SpanEvent>, kSpans> spans_;  // middle tier, by w&mask
  std::uint64_t span_occ_[kSpanOccWords] = {};  // bit per span: non-empty
  std::size_t span_events_ = 0;        // pending events held in spans
  std::vector<OflowKey> overflow_;     // binary min-heap by (when, seq)
  std::vector<InlineFn> oflow_slots_;  // callback storage behind the heap
  std::vector<std::uint32_t> oflow_free_;  // vacant oflow_slots_ indices
  Cycle base_ = 0;                     // window start, kWindowCycles-aligned
  Cycle next_time_ = 0;                // earliest pending cycle (size_ > 0)
  std::size_t size_ = 0;               // total pending events
  std::size_t in_window_ = 0;          // pending events held in buckets
  std::uint64_t seq_ = 0;              // total pushes ever (stats)
  std::uint64_t order_ = 0;            // overflow FIFO tie-break source

  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::size_t slab_used_ = kChunksPerSlab;  // chunks carved from last slab
  Chunk* free_chunks_ = nullptr;            // retired chunks, LIFO
};

}  // namespace amo::sim
