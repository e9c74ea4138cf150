// Host-side containers for per-block protocol state: an open-addressing
// address→entry table with slab-pooled entry storage, and an index-linked
// FIFO pool for per-entry waiter queues.
//
// These are simulator infrastructure, not simulated data structures: the
// directory's line entries and the cache controller's MSHRs both map a
// block address to a small mutable record with a waiter queue, and both
// sit on the per-operation hot path. A node-based unordered_map costs an
// allocation per insert and a pointer chase per probe; this table keeps
// 12-byte key/index slots contiguous (probes stay in a couple of host
// cache lines), stores entries in slabs (stable addresses, recycled
// through an intrusive free list), and never allocates in steady state.
// Slabs grow geometrically, 4, 8, 16, 32 and then 64 entries each, so a
// table that only ever holds a handful of entries pins a handful.
//
// Determinism: the hot path uses only keyed lookup, so replacing a map
// with this table cannot perturb event ordering. The one walk, for_each,
// serves diagnostics and visits entries in slot (hash) order.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace amo::ds {

/// Shared "no index" sentinel for the intrusive index links below.
inline constexpr std::uint32_t kNilIndex = 0xffffffffu;

/// Open-addressing (linear probing, backward-shift deletion) map from a
/// 64-bit address to an `Entry` in slab-pooled storage.
///
/// Requirements on Entry: default-constructible, and a public
/// `std::uint32_t next_free` member (the intrusive free-list link).
/// Callers must reset an entry to its default state before `erase` — the
/// pool hands reused entries out as-is.
template <typename Entry>
class AddrTable {
 public:
  using Key = std::uint64_t;

  /// Starts small: a machine holds several tables per CPU and per node,
  /// most of which stay nearly empty, and the table doubles at 3/4 load.
  explicit AddrTable(std::size_t initial_slots = 16) {
    assert(initial_slots != 0 && (initial_slots & (initial_slots - 1)) == 0);
    slots_.resize(initial_slots);
  }

  /// Looks up `key`; null if absent.
  [[nodiscard]] Entry* find(Key key) {
    const std::uint32_t idx = find_index(key);
    return idx == kNilIndex ? nullptr : &at(idx);
  }
  [[nodiscard]] const Entry* find(Key key) const {
    const std::uint32_t idx = find_index(key);
    return idx == kNilIndex ? nullptr : &at(idx);
  }

  /// Finds `key`'s entry, creating a default-state one on miss. The
  /// reference is slab-stable: it survives table growth and other
  /// insertions (but not `erase` of the same key).
  Entry& get_or_create(Key key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key, mask);
    while (slots_[i].idx != kNilIndex) {
      if (slots_[i].key == key) return at(slots_[i].idx);
      i = (i + 1) & mask;
    }
    // Miss: pull an entry from the free list (or carve a new one) and
    // seat it. Pooled entries are reset on erase, so a reused one is
    // already in the default state.
    std::uint32_t idx = free_;
    if (idx != kNilIndex) {
      free_ = at(idx).next_free;
      at(idx).next_free = kNilIndex;
    } else {
      if (alloced_ == capacity_) {
        const std::uint32_t n = slab_size(slabs_.size());
        slabs_.push_back(std::make_unique<Entry[]>(n));
        capacity_ += n;
      }
      idx = alloced_++;
    }
    slots_[i] = Slot{key, idx};
    ++count_;
    // Grow at 3/4 load so probe chains stay short.
    if (count_ * 4 >= slots_.size() * 3) grow();
    return at(idx);
  }

  /// Releases `key`'s entry (which the caller has reset to default
  /// state) back to the pool. No-op if absent.
  void erase(Key key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key, mask);
    while (slots_[i].idx != kNilIndex && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    if (slots_[i].idx == kNilIndex) return;
    const std::uint32_t idx = slots_[i].idx;
    at(idx).next_free = free_;
    free_ = idx;
    --count_;
    // Backward-shift deletion: refill the hole from the probe chain so
    // lookups never need tombstones.
    std::size_t hole = i;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (slots_[j].idx == kNilIndex) break;
      const std::size_t h = home(slots_[j].key, mask);
      // Slot j may move into the hole only if its home position does not
      // lie cyclically within (hole, j] — otherwise the move would break
      // the probe chain from `h` to j.
      const bool home_in_gap =
          hole <= j ? (h > hole && h <= j) : (h > hole || h <= j);
      if (!home_in_gap) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Calls `fn(key, entry)` for every entry, in slot order: neither
  /// insertion nor address order, so callers that print sort first.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.idx != kNilIndex) fn(s.key, at(s.idx));
    }
  }

 private:
  struct Slot {
    Key key = 0;
    std::uint32_t idx = kNilIndex;  // kNilIndex = vacant slot
  };

  [[nodiscard]] static std::size_t home(Key key, std::size_t mask) {
    // Fibonacci multiplicative hash; keys are line-aligned addresses, the
    // multiply spreads the low zero bits across the table.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask;
  }

  [[nodiscard]] std::uint32_t find_index(Key key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key, mask);
    while (slots_[i].idx != kNilIndex) {
      if (slots_[i].key == key) return slots_[i].idx;
      i = (i + 1) & mask;
    }
    return kNilIndex;
  }

  // Slab k holds 4 << k entries up to kMaxSlab; the first kSmallSlabs
  // slabs cover indices [0, kSmallEntries), the rest kMaxSlab each.
  static constexpr std::uint32_t kMaxSlab = 64;
  static constexpr std::uint32_t kSmallSlabs = 4;        // 4, 8, 16, 32
  static constexpr std::uint32_t kSmallEntries = 4 * 15;  // their total

  [[nodiscard]] static std::uint32_t slab_size(std::size_t k) {
    return k < kSmallSlabs ? 4u << k : kMaxSlab;
  }

  Entry& at(std::uint32_t idx) {
    return const_cast<Entry&>(std::as_const(*this).at(idx));
  }
  [[nodiscard]] const Entry& at(std::uint32_t idx) const {
    if (idx < kSmallEntries) {
      // Small slab k starts at 4 * (2^k - 1).
      const int k = std::bit_width(idx / 4 + 1) - 1;
      return slabs_[k][idx - 4 * ((1u << k) - 1)];
    }
    const std::uint32_t rest = idx - kSmallEntries;
    return slabs_[kSmallSlabs + rest / kMaxSlab][rest % kMaxSlab];
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.idx == kNilIndex) continue;
      std::size_t i = home(s.key, mask);
      while (slots_[i].idx != kNilIndex) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
  std::vector<std::unique_ptr<Entry[]>> slabs_;
  std::uint32_t free_ = kNilIndex;  // head of the intrusive entry free list
  std::uint32_t alloced_ = 0;       // entries ever handed out
  std::uint32_t capacity_ = 0;      // entries across all slabs
};

/// Pool of FIFO queue nodes shared by many queues: each queue is a
/// {head, tail} index pair (typically embedded in an AddrTable entry),
/// nodes are recycled through a free list, so parking a waiter costs no
/// allocation in steady state. Values are moved in on push and out on
/// pop; a popped node's value is left in its moved-from state.
template <typename T>
class WaitPool {
 public:
  struct Queue {
    std::uint32_t head = kNilIndex;
    std::uint32_t tail = kNilIndex;
  };

  [[nodiscard]] bool empty(const Queue& q) const {
    return q.head == kNilIndex;
  }

  void push(Queue& q, T value) {
    std::uint32_t idx = free_;
    if (idx != kNilIndex) {
      free_ = nodes_[idx].next;
      nodes_[idx].value = std::move(value);
      nodes_[idx].next = kNilIndex;
    } else {
      idx = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{std::move(value), kNilIndex});
    }
    if (q.tail == kNilIndex) {
      q.head = idx;
    } else {
      nodes_[q.tail].next = idx;
    }
    q.tail = idx;
  }

  [[nodiscard]] T pop(Queue& q) {
    assert(q.head != kNilIndex);
    const std::uint32_t idx = q.head;
    Node& n = nodes_[idx];
    q.head = n.next;
    if (q.head == kNilIndex) q.tail = kNilIndex;
    T value = std::move(n.value);
    n.next = free_;
    free_ = idx;
    return value;
  }

 private:
  struct Node {
    T value;
    std::uint32_t next = kNilIndex;
  };

  std::vector<Node> nodes_;  // index-addressed; grows, never shrinks
  std::uint32_t free_ = kNilIndex;
};

}  // namespace amo::ds
