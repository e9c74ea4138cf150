#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <mutex>
#include <utility>

namespace amo::sim {

namespace {

// Min-heap order over (when, seq): std::*_heap build a max-heap w.r.t. the
// comparator, so "a is later than b" puts the earliest entry at the front.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

// Process-wide recycling of chunk slabs. Benchmarks construct hundreds of
// machines back to back; without pooling, every engine re-faults its slab
// pages in (glibc trims the freed block back to the OS), which dominates
// short simulations. The pool is mutex-guarded — it is the only state
// EventQueue instances share, so queues on different sweep threads stay
// independent — and capped so idle memory stays bounded.
struct SlabPool {
  std::mutex mu;
  std::vector<std::unique_ptr<std::byte[]>> slabs;
};

SlabPool& slab_pool() {
  static SlabPool pool;
  return pool;
}

constexpr std::size_t kMaxPooledSlabs = 256;  // ~17 MB of 66 KB slabs

std::unique_ptr<std::byte[]> pool_acquire() {
  SlabPool& pool = slab_pool();
  const std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.slabs.empty()) return nullptr;
  std::unique_ptr<std::byte[]> slab = std::move(pool.slabs.back());
  pool.slabs.pop_back();
  return slab;
}

void pool_release(std::vector<std::unique_ptr<std::byte[]>>& slabs) {
  SlabPool& pool = slab_pool();
  const std::lock_guard<std::mutex> lock(pool.mu);
  while (!slabs.empty() && pool.slabs.size() < kMaxPooledSlabs) {
    pool.slabs.push_back(std::move(slabs.back()));
    slabs.pop_back();
  }
}

}  // namespace

// Process-wide recycling of span vector capacity, mirroring the chunk slab
// pool: without it, every engine a sweep constructs re-grows (and
// re-faults) 256 vectors from scratch, which dominates short simulations.
class EventQueue::SpanVecPool {
 public:
  static constexpr std::size_t kMaxPooledVecs = 2048;  // ~8 engines' worth
  std::mutex mu;
  std::vector<std::vector<SpanEvent>> vecs;
};

EventQueue::SpanVecPool& EventQueue::span_vec_pool() {
  static SpanVecPool pool;
  return pool;
}

void EventQueue::acquire_span_vecs(
    std::array<std::vector<SpanEvent>, kSpans>* out) {
  {
    SpanVecPool& pool = span_vec_pool();
    const std::lock_guard<std::mutex> lock(pool.mu);
    for (auto& v : *out) {
      if (pool.vecs.empty()) break;
      v = std::move(pool.vecs.back());
      pool.vecs.pop_back();
    }
  }
  // Seed a floor capacity so a long-lived engine reaches steady state
  // immediately: the span base rotates through all kSpans slots over
  // ~kSpans*kWindowCycles simulated cycles, and without the floor each
  // slot re-runs the 1->2->4->... growth chain on first touch — a
  // quarter-million-cycle trickle of allocations. Recycled vectors
  // usually satisfy this already; fresh ones pay one allocation here.
  for (auto& v : *out) {
    if (v.capacity() < kSpanVecFloor) v.reserve(kSpanVecFloor);
  }
}

void EventQueue::release_span_vecs(
    std::array<std::vector<SpanEvent>, kSpans>* in) {
  SpanVecPool& pool = span_vec_pool();
  const std::lock_guard<std::mutex> lock(pool.mu);
  for (auto& v : *in) {
    if (pool.vecs.size() >= SpanVecPool::kMaxPooledVecs) break;
    if (v.capacity() == 0) continue;
    v.clear();  // destroys any still-pending callbacks
    pool.vecs.push_back(std::move(v));
  }
}

EventQueue::EventQueue() {
  buckets_.resize(kWindowCycles);
  acquire_span_vecs(&spans_);
}

EventQueue::~EventQueue() {
  // Chunks live inside the slabs; only the pending callbacks they hold need
  // destruction. Span and overflow entries clean themselves up; slabs and
  // span vector capacity go back to the process-wide pools so the next
  // queue starts with warm pages.
  for (Bucket& b : buckets_) {
    for (Chunk* c = b.head; c != nullptr; c = c->next) {
      for (std::uint32_t i = c->begin; i < c->end; ++i) c->slot(i)->~InlineFn();
    }
  }
  pool_release(slabs_);
  release_span_vecs(&spans_);
}

EventQueue::Chunk* EventQueue::alloc_chunk() {
  Chunk* c = free_chunks_;
  if (c != nullptr) {
    free_chunks_ = c->next;
  } else {
    if (slab_used_ == kChunksPerSlab) {
      std::unique_ptr<std::byte[]> slab = pool_acquire();
      if (slab == nullptr) {
        slab = std::make_unique_for_overwrite<std::byte[]>(kChunksPerSlab *
                                                           sizeof(Chunk));
      }
      slabs_.push_back(std::move(slab));
      slab_used_ = 0;
    }
    c = ::new (slabs_.back().get() + slab_used_ * sizeof(Chunk)) Chunk;
    ++slab_used_;
  }
  c->next = nullptr;
  c->begin = 0;
  c->end = 0;
  return c;
}

void EventQueue::occ_set(Cycle when) {
  const std::size_t bit = static_cast<std::size_t>(when & kWindowMask);
  occ_[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

void EventQueue::occ_clear(Cycle when) {
  const std::size_t bit = static_cast<std::size_t>(when & kWindowMask);
  occ_[bit / 64] &= ~(std::uint64_t{1} << (bit % 64));
}

void EventQueue::push_overflow(Cycle when, Callback fn) {
  std::uint32_t slot;
  if (!oflow_free_.empty()) {
    slot = oflow_free_.back();
    oflow_free_.pop_back();
    oflow_slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(oflow_slots_.size());
    oflow_slots_.push_back(std::move(fn));
  }
  overflow_.push_back(OflowKey{when, order_++, slot});
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

Cycle EventQueue::pop_overflow(Callback* fn) {
  std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
  const OflowKey k = overflow_.back();
  overflow_.pop_back();
  *fn = std::move(oflow_slots_[k.slot]);
  oflow_free_.push_back(k.slot);
  return k.when;
}

void EventQueue::span_append(Cycle when, Callback fn) {
  const std::size_t slot =
      static_cast<std::size_t>((when >> kWindowBits) & kSpanMask);
  spans_[slot].push_back(SpanEvent{when, std::move(fn)});
  span_occ_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  ++span_events_;
}

void EventQueue::migrate_overflow() {
  const Cycle h = horizon();
  while (!overflow_.empty() && overflow_.front().when < h) {
    Callback fn;
    const Cycle w = pop_overflow(&fn);
    if (w < window_end()) {
      bucket_append(w, std::move(fn));
    } else {
      span_append(w, std::move(fn));
    }
  }
}

void EventQueue::bucket_append(Cycle when, Callback fn) {
  Bucket& b = bucket_of(when);
  Chunk* t = b.tail;
  if (t == nullptr) {
    t = alloc_chunk();
    b.head = b.tail = t;
    occ_set(when);
  } else if (t->end == kChunkSlots) {
    Chunk* c = alloc_chunk();
    t->next = c;
    b.tail = c;
    t = c;
  }
  ::new (static_cast<void*>(t->raw + t->end * sizeof(InlineFn)))
      InlineFn(std::move(fn));
  ++t->end;
  ++in_window_;
}

void EventQueue::push(Cycle when, Callback fn) {
  if (size_ == 0) {
    // Empty queue: the window can anchor anywhere. Buckets and occupancy
    // are all clear, so re-basing is free.
    base_ = when & ~kWindowMask;
    next_time_ = when;
  } else if (when < base_) {
    rebase(when);  // cold path: standalone use pushing into the past
  }
  if (when < next_time_) next_time_ = when;

  ++seq_;
  if (when < window_end()) {
    bucket_append(when, std::move(fn));
  } else if (when < horizon()) {
    span_append(when, std::move(fn));
  } else {
    push_overflow(when, std::move(fn));
  }
  ++size_;
}

EventQueue::Popped EventQueue::pop() {
  assert(size_ > 0 && "pop from empty EventQueue");
  const Cycle when = next_time_;
  Bucket& b = bucket_of(when);
  Chunk* h = b.head;
  assert(h != nullptr && h->begin < h->end && "settled bucket has no entry");
  InlineFn* s = h->slot(h->begin);
  Popped out{when, std::move(*s)};
  s->~InlineFn();
  bool bucket_drained = false;
  if (++h->begin == h->end) {
    // Chunk drained. Non-tail chunks are always full, so a drained chunk is
    // either exhausted mid-chain or the bucket's last.
    if (h->next != nullptr) {
      b.head = h->next;
    } else {
      b.head = b.tail = nullptr;
      occ_clear(when);
      bucket_drained = true;
    }
    retire_chunk(h);
  }
  --in_window_;
  --size_;
  // While the current bucket still holds events, next_time_ is already
  // correct; only a drained bucket forces a search for the next one.
  if (bucket_drained && size_ > 0) settle();
  return out;
}

bool EventQueue::scan_occupancy(Cycle from, Cycle* found) const {
  std::size_t bit = static_cast<std::size_t>(from & kWindowMask);
  std::size_t word = bit / 64;
  std::uint64_t w = occ_[word] & (~std::uint64_t{0} << (bit % 64));
  while (true) {
    if (w != 0) {
      const std::size_t idx =
          word * 64 + static_cast<std::size_t>(std::countr_zero(w));
      *found = base_ + static_cast<Cycle>(idx);
      return true;
    }
    if (++word == kOccWords) return false;
    w = occ_[word];
  }
}

void EventQueue::settle() {
  if (in_window_ > 0) {
    // The earliest event is bucketed at or after the last known minimum
    // (pushes below it update next_time_ eagerly, pops only move forward).
    Cycle found = 0;
    const bool ok = scan_occupancy(next_time_, &found);
    assert(ok && "occupancy bitmap lost in-window events");
    (void)ok;
    next_time_ = found;
    return;
  }
  if (span_events_ > 0) {
    // Window drained: advance to the first occupied span (heap events are
    // all at or past the horizon, so the earliest span is globally
    // earliest) and distribute it. List order is push order, so same-cycle
    // events re-enter their bucket in FIFO order.
    const Cycle wbase = base_ >> kWindowBits;
    for (Cycle s = 1; s <= kSpans; ++s) {
      const std::size_t slot = static_cast<std::size_t>((wbase + s) & kSpanMask);
      if (((span_occ_[slot / 64] >> (slot % 64)) & 1) == 0) continue;
      base_ = (wbase + s) << kWindowBits;
      std::vector<SpanEvent>& v = spans_[slot];
      for (SpanEvent& ev : v) bucket_append(ev.when, std::move(ev.fn));
      span_events_ -= v.size();
      v.clear();  // keeps capacity: steady-state spans never reallocate
      span_occ_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
      migrate_overflow();
      Cycle found = 0;
      const bool ok = scan_occupancy(base_, &found);
      assert(ok && "distributed span produced no bucketed events");
      (void)ok;
      next_time_ = found;
      return;
    }
    assert(false && "span_events_ > 0 but no occupied span");
  }
  // Spans empty too: advance to the overflow's earliest cycle; migration
  // replays now-covered entries into buckets and spans. Heap order is
  // (when, seq), so same-cycle entries re-enter in FIFO order.
  assert(!overflow_.empty() && "size_ > 0 but no events anywhere");
  base_ = overflow_.front().when & ~kWindowMask;
  next_time_ = overflow_.front().when;
  migrate_overflow();
}

void EventQueue::spill_span(std::size_t slot) {
  std::vector<SpanEvent>& v = spans_[slot];
  if (v.empty()) return;
  for (SpanEvent& ev : v) push_overflow(ev.when, std::move(ev.fn));
  span_events_ -= v.size();
  v.clear();
  span_occ_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
}

void EventQueue::rebase(Cycle when) {
  // Re-anchor the window low enough for `when`. Buckets and span slots are
  // indexed by *absolute* cycle, so a backstep does not move events between
  // slots — it only shrinks the horizon. Two repairs restore the tier
  // invariants, each preserving per-cycle FIFO order (spilled entries take
  // fresh `order_` values in list order; no spilled cycle coexists with an
  // older heap entry, since the pre-rebase heap holds strictly later
  // cycles):
  //
  //   1. The `k` span slots whose contents lie beyond the re-anchored
  //      horizon (windows [new+kSpans+1, old+kSpans+1) alias the slots that
  //      must now cover nearer windows) spill to the heap.
  //   2. The old window's buckets — now one of the `k` nearest spans — move
  //      into their own span slot, just vacated by step 1.
  //
  // This is the common shape: a window-advance in settle() outruns the
  // just-popped callback, whose follow-on push lands a few cycles behind
  // the new base. Backstep cost is O(events in the touched slots), not
  // O(total pending). Backsteps of kSpans windows or more (standalone use
  // pushing into the deep past) spill every tier instead.
  const Cycle old_wbase = base_ >> kWindowBits;
  const Cycle new_base = when & ~kWindowMask;
  const Cycle new_wbase = new_base >> kWindowBits;
  const bool full_spill = old_wbase - new_wbase >= kSpans;
  if (full_spill) {
    for (std::size_t slot = 0; slot < kSpans; ++slot) spill_span(slot);
  } else {
    for (Cycle w = new_wbase + 1; w <= old_wbase; ++w) {
      spill_span(static_cast<std::size_t>(w & kSpanMask));
    }
  }
  Cycle cursor = next_time_;
  while (in_window_ > 0) {
    Cycle found = 0;
    const bool ok = scan_occupancy(cursor, &found);
    assert(ok && "occupancy bitmap lost in-window events");
    (void)ok;
    Bucket& b = bucket_of(found);
    for (Chunk* c = b.head; c != nullptr;) {
      for (std::uint32_t i = c->begin; i < c->end; ++i) {
        InlineFn* s = c->slot(i);
        if (full_spill) {
          push_overflow(found, std::move(*s));
        } else {
          span_append(found, std::move(*s));
        }
        s->~InlineFn();
        --in_window_;
      }
      Chunk* next = c->next;
      retire_chunk(c);
      c = next;
    }
    b.head = b.tail = nullptr;
    occ_clear(found);
    cursor = found;
  }
  base_ = new_base;
  // On a full spill the heap now holds near-future entries; pull back
  // whatever fits under the re-anchored horizon. The partial path never
  // breaks the heap's beyond-horizon invariant, so it skips this.
  if (full_spill) migrate_overflow();
}

}  // namespace amo::sim
