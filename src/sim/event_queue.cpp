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

constexpr std::size_t kMaxPooledSlabs = 256;  // ~17 MB of 66 KB slabs

}  // namespace

// Process-wide recycling of chunk slabs. Benchmarks construct hundreds of
// machines back to back; without pooling, every engine re-faults its slab
// pages in (glibc trims the freed block back to the OS), which dominates
// short simulations. The pool is mutex-guarded — it is the only state
// EventQueue instances share, so queues on different sweep threads stay
// independent — and capped so idle memory stays bounded.
struct EventQueue::SlabPool {
  std::mutex mu;
  std::vector<Slab> slabs;
};

EventQueue::SlabPool& EventQueue::slab_pool() {
  static SlabPool pool;
  return pool;
}

EventQueue::Slab EventQueue::pool_acquire() {
  SlabPool& pool = slab_pool();
  const std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.slabs.empty()) return nullptr;
  Slab slab = std::move(pool.slabs.back());
  pool.slabs.pop_back();
  return slab;
}

void EventQueue::pool_release(std::vector<Slab>& slabs) {
  SlabPool& pool = slab_pool();
  const std::lock_guard<std::mutex> lock(pool.mu);
  while (!slabs.empty() && pool.slabs.size() < kMaxPooledSlabs) {
    pool.slabs.push_back(std::move(slabs.back()));
    slabs.pop_back();
  }
}

EventQueue::EventQueue() { buckets_.resize(kWindowCycles); }

EventQueue::~EventQueue() {
  // Chunks live inside the slabs; only the pending events they hold need
  // destruction. Overflow entries clean themselves up; slabs go back to
  // the process-wide pool so the next queue starts with warm pages.
  for (Chain& b : buckets_) destroy_chain(b);
  for (Chain& s : spans_) destroy_chain(s);
  pool_release(slabs_);
}

void EventQueue::destroy_chain(Chain& c) {
  for (Chunk* k = c.head; k != nullptr; k = k->next) {
    for (std::uint32_t i = k->begin; i < k->end; ++i) k->slot(i)->~Slot();
  }
  c.head = c.tail = nullptr;
}

EventQueue::Chunk* EventQueue::alloc_chunk() {
  Chunk* c = free_chunks_;
  if (c != nullptr) {
    free_chunks_ = c->next;
  } else {
    if (slab_used_ == kChunksPerSlab) {
      Slab slab = pool_acquire();
      if (slab == nullptr) {
        slab = std::make_unique_for_overwrite<Chunk[]>(kChunksPerSlab);
      }
      slabs_.push_back(std::move(slab));
      slab_used_ = 0;
    }
    c = &slabs_.back()[slab_used_];
    ++slab_used_;
  }
  c->next = nullptr;
  c->begin = 0;
  c->end = 0;
  return c;
}

bool EventQueue::chain_append(Chain& c, Cycle when, Callback&& fn) {
  Chunk* t = c.tail;
  const bool was_empty = t == nullptr;
  if (was_empty) {
    t = alloc_chunk();
    c.head = c.tail = t;
  } else if (t->end == kChunkSlots) {
    Chunk* n = alloc_chunk();
    t->next = n;
    c.tail = n;
    t = n;
  }
  ::new (static_cast<void*>(t->raw + t->end * sizeof(Slot)))
      Slot{when, std::move(fn)};
  ++t->end;
  return was_empty;
}

void EventQueue::bucket_append(Cycle when, Callback&& fn) {
  if (chain_append(bucket_of(when), when, std::move(fn))) {
    const std::size_t bit = static_cast<std::size_t>(when & kWindowMask);
    occ_[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  ++in_window_;
}

void EventQueue::span_append(Cycle when, Callback&& fn) {
  const std::size_t slot = span_slot(when);
  if (chain_append(spans_[slot], when, std::move(fn))) {
    span_occ_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    span_min_[slot] = when;
  } else if (when < span_min_[slot]) {
    span_min_[slot] = when;
  }
  ++span_events_;
}

void EventQueue::push_overflow(Cycle when, Callback&& fn) {
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

void EventQueue::push(Cycle when, Callback&& fn) {
  assert(when >= last_pop_ && "push behind the last popped cycle");
  assert(when >= base_ && "window passed the last popped cycle");
  if (!stale_ && when < next_time_) next_time_ = when;

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

void EventQueue::drain_head(Chain& b) noexcept {
  // Chunk drained. Non-tail chunks are always full, so a drained chunk is
  // either exhausted mid-chain or the bucket's last.
  Chunk* h = b.head;
  if (h->next != nullptr) {
    b.head = h->next;
  } else {
    // Bucket drained: the next earliest event is found lazily, by the
    // next settle().
    b.head = b.tail = nullptr;
    const std::size_t bit = static_cast<std::size_t>(last_pop_ & kWindowMask);
    occ_[bit / 64] &= ~(std::uint64_t{1} << (bit % 64));
    stale_ = true;
  }
  retire_chunk(h);
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

std::size_t EventQueue::first_span() const {
  // Spans cover windows base+1 .. base+kSpans, whose slots start at
  // `start` and wrap around the ring back to start-1.
  const std::size_t start = span_slot(base_ + kWindowCycles);
  const std::uint64_t from_start = ~std::uint64_t{0} << (start % 64);
  for (std::size_t i = 0; i <= kSpanOccWords; ++i) {
    const std::size_t word = (start / 64 + i) % kSpanOccWords;
    std::uint64_t w = span_occ_[word];
    if (i == 0) w &= from_start;
    if (i == kSpanOccWords) w &= ~from_start;
    if (w != 0) {
      return word * 64 + static_cast<std::size_t>(std::countr_zero(w));
    }
  }
  assert(false && "span_events_ > 0 but no occupied span");
  return 0;
}

void EventQueue::settle() {
  stale_ = false;
  if (in_window_ > 0) {
    // Every bucketed event is at or after the last popped cycle, which is
    // what next_time_ holds while stale.
    Cycle found = 0;
    const bool ok = scan_occupancy(next_time_, &found);
    assert(ok && "occupancy bitmap lost in-window events");
    (void)ok;
    next_time_ = found;
  } else if (span_events_ > 0) {
    // Heap events are all at or past the horizon, so the nearest occupied
    // span holds the globally earliest event.
    next_time_ = span_min_[first_span()];
  } else {
    assert(!overflow_.empty() && "size_ > 0 but no events anywhere");
    next_time_ = overflow_.front().when;
  }
}

void EventQueue::advance() {
  // The window is empty and next_time_ is the earliest event, so every
  // window before its own is empty too.
  base_ = next_time_ & ~kWindowMask;
  const std::size_t slot = span_slot(base_);
  Chain& s = spans_[slot];
  if (s.head != nullptr) {
    // Distribute in chain order, which is push order, so same-cycle
    // events enter their bucket in FIFO order.
    for (Chunk* c = s.head; c != nullptr;) {
      for (std::uint32_t i = c->begin; i < c->end; ++i) {
        Slot* e = c->slot(i);
        bucket_append(e->when, std::move(e->fn));
        e->~Slot();
        --span_events_;
      }
      Chunk* next = c->next;
      retire_chunk(c);
      c = next;
    }
    s.head = s.tail = nullptr;
    span_occ_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  }
  // Heap order is (when, seq), so same-cycle entries re-enter in FIFO
  // order.
  migrate_overflow();
}

}  // namespace amo::sim
