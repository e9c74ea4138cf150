// Set-associative write-back cache: tags, MESI state, line data, LRU.
//
// This is a passive structure — the coherence protocol (coh::CacheCtrl)
// decides *when* lines move; the cache only stores them. One instance per
// core models the coherent L2; a tag-only variant (`TagCache`) models the
// L1D timing filter. Both model the full capacity but keep host storage
// only for the sets a run has installed a line in (`SeatedSets`).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "mem/line_buf.hpp"
#include "sim/stats_registry.hpp"
#include "sim/types.hpp"

namespace amo::mem {

enum class LineState : std::uint8_t { kInvalid, kShared, kExclusive, kModified };

[[nodiscard]] const char* to_string(LineState s);

struct CacheGeometry {
  std::uint32_t size_bytes = 2 * 1024 * 1024;
  std::uint32_t ways = 4;
  std::uint32_t line_bytes = 128;

  [[nodiscard]] std::uint32_t num_sets() const {
    return size_bytes / (ways * line_bytes);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
  std::uint64_t invals_received = 0;
  std::uint64_t word_updates = 0;
};

/// Storage for a cache's seated sets, shared by `Cache` and `TagCache`:
/// an open-addressing map (linear probing, grown at 3/4 load, starting
/// at 8 slots) from set index to that set's record. A record holds, in
/// one allocation, the set's `ways` Way values followed by `ways ×
/// payload_words` words, all zero until written. A set is seated (its
/// record allocated) the first time a line is installed in it; a lookup
/// in an unseated set is a miss that allocates nothing. A barrier run
/// touches one or two lines per CPU, so a machine's host memory follows
/// the lines it uses, not the modelled capacity. Records never move and
/// live as long as the table: callers hold Way pointers, and a warm
/// cache installs lines without allocating. Because records never move,
/// `find` keeps a one-entry memo of the last set it found (a spinning CPU
/// probes one line over and over); the memo cannot dangle.
template <typename Way>
class SeatedSets {
  static_assert(sizeof(Way) % sizeof(std::uint64_t) == 0 &&
                alignof(Way) <= alignof(std::uint64_t) &&
                std::is_trivially_destructible_v<Way>);

 public:
  SeatedSets(std::uint32_t ways, std::size_t payload_words)
      : ways_(ways),
        record_words_(ways * (sizeof(Way) / sizeof(std::uint64_t) +
                              payload_words)),
        slots_(8) {}

  /// The set's ways; null while the set is unseated.
  [[nodiscard]] Way* find(std::uint32_t set) const {
    if (memo_ways_ != nullptr && memo_set_ == set) return memo_ways_;
    const Slot& s = slots_[slot_of(set)];
    if (s.record == nullptr) return nullptr;
    memo_set_ = set;
    memo_ways_ = ways_of(s);
    return memo_ways_;
  }

  /// The set's ways, seating the set (every way value-initialized) on
  /// first use.
  Way* seat(std::uint32_t set) {
    Slot& s = slots_[slot_of(set)];
    if (s.record != nullptr) return ways_of(s);
    s.set = set;
    s.record = std::make_unique<std::uint64_t[]>(record_words_);
    Way* ways = reinterpret_cast<Way*>(s.record.get());
    std::uninitialized_value_construct_n(ways, ways_);
    if (++count_ * 4 >= slots_.size() * 3) grow();
    return ways;
  }

  /// Calls `fn(ways)` for every seated set, in slot (not set) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.record != nullptr) fn(static_cast<const Way*>(ways_of(s)));
    }
  }

 private:
  struct Slot {
    std::unique_ptr<std::uint64_t[]> record;  // null = vacant slot
    std::uint32_t set = 0;
  };

  [[nodiscard]] static std::size_t home(std::uint32_t set, std::size_t mask) {
    // Fibonacci multiplicative hash: spreads consecutive set indices
    // across the table.
    return static_cast<std::size_t>((set * 0x9E3779B97F4A7C15ull) >> 32) &
           mask;
  }
  [[nodiscard]] static Way* ways_of(const Slot& s) {
    return std::launder(reinterpret_cast<Way*>(s.record.get()));
  }

  /// The slot holding `set`, or the vacant slot where it would go.
  [[nodiscard]] std::size_t slot_of(std::uint32_t set) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(set, mask);
    while (slots_[i].record != nullptr && slots_[i].set != set) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(old.size() * 2);
    for (Slot& s : old) {
      if (s.record != nullptr) slots_[slot_of(s.set)] = std::move(s);
    }
  }

  std::uint32_t ways_;
  std::size_t record_words_;
  std::vector<Slot> slots_;
  std::size_t count_ = 0;
  mutable Way* memo_ways_ = nullptr;  // last set find() returned, or null
  mutable std::uint32_t memo_set_ = 0;
};

class Cache {
 public:
  // Metadata only — 24 bytes, so a 4-way set's tags/state/LRU fit in
  // two cache lines of the host. A seated set's record keeps its lines
  // and, right after them, their word payloads (see `SeatedSets`), so a
  // hit touches one host region; `way` locates the payload.
  struct Line {
    sim::Addr block;  // line base address
    LineState state;
    bool pinned;       // protected from victim selection (active MSHR)
    std::uint8_t way;  // index within its set's record
    std::uint64_t lru;
  };
  static_assert(sizeof(Line) == 24);

  /// A line pushed out to make room. The payload rides in a fixed inline
  /// buffer so eviction/writeback never heap-allocates.
  struct Victim {
    sim::Addr block = 0;
    LineState state = LineState::kInvalid;
    LineBuf data;
  };

  explicit Cache(const CacheGeometry& geometry);

  [[nodiscard]] const CacheGeometry& geometry() const { return geom_; }
  [[nodiscard]] sim::Addr line_base(sim::Addr a) const {
    return a & ~static_cast<sim::Addr>(geom_.line_bytes - 1);
  }
  [[nodiscard]] std::uint32_t word_index(sim::Addr a) const {
    return static_cast<std::uint32_t>((a - line_base(a)) / 8);
  }

  /// Looks up the line holding `addr`; null on miss. Counts hit/miss and
  /// touches LRU when `touch` is true.
  Line* find(sim::Addr addr, bool touch = true);
  [[nodiscard]] const Line* peek(sim::Addr addr) const;

  /// Installs a line (must not be present). If the set is full, the LRU
  /// victim is returned so the controller can write it back / notify home.
  std::optional<Victim> insert(sim::Addr block, LineState state,
                               std::span<const std::uint64_t> data);

  /// Drops a line if present; returns the victim (for dirty writeback).
  std::optional<Victim> invalidate(sim::Addr addr);

  /// Word read/write within a resident line.
  [[nodiscard]] std::uint64_t read_word(const Line& line,
                                        sim::Addr addr) const;
  void write_word(Line& line, sim::Addr addr, std::uint64_t value);

  /// The line's word payload (words_per_line entries). `line` must be a
  /// reference obtained from this cache (find/peek): the payload sits
  /// after its set's lines in the same record, found through `way`.
  [[nodiscard]] std::span<const std::uint64_t> words(const Line& line) const {
    return {payload(line), words_per_line_};
  }
  /// Overwrites the line's payload (e.g. a fill from a data response).
  void fill_words(const Line& line, std::span<const std::uint64_t> data);

  [[nodiscard]] CacheStats& stats() { return stats_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  /// Registers hit/miss/eviction counters under `prefix`.
  void register_stats(sim::StatsRegistry& reg, const std::string& prefix) const;

  /// Iterates all valid lines (coherence-invariant checks in tests), in
  /// no particular order.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    sets_.for_each([&](const Line* set) {
      for (std::uint32_t w = 0; w < geom_.ways; ++w) {
        if (set[w].state != LineState::kInvalid) fn(set[w]);
      }
    });
  }

 private:
  [[nodiscard]] std::uint32_t set_index(sim::Addr block) const;
  [[nodiscard]] std::uint64_t* payload(const Line& line) const {
    // The record is ways × Line, then ways × words_per_line words.
    Line* set = const_cast<Line*>(&line) - line.way;
    return std::launder(reinterpret_cast<std::uint64_t*>(set + geom_.ways)) +
           line.way * words_per_line_;
  }

  CacheGeometry geom_;
  std::size_t words_per_line_;
  std::uint32_t line_shift_;  // log2(line_bytes)
  std::uint32_t set_mask_;    // num_sets - 1 (power-of-two set count)
  SeatedSets<Line> sets_;
  std::uint64_t lru_clock_ = 0;
  CacheStats stats_;
};

/// Tag-only cache used as the L1D timing filter: tracks which lines would
/// hit in L1 (2-cycle) vs fall through to L2 (10-cycle). Kept inclusive by
/// the controller (invalidated whenever the L2 copy dies).
class TagCache {
 public:
  explicit TagCache(const CacheGeometry& geometry);

  [[nodiscard]] sim::Addr line_base(sim::Addr a) const {
    return a & ~static_cast<sim::Addr>(geom_.line_bytes - 1);
  }

  /// True if present (touches LRU); false otherwise.
  bool probe(sim::Addr addr);
  /// Installs the line, possibly displacing the set's LRU tag.
  void fill(sim::Addr addr);
  void invalidate(sim::Addr addr);

 private:
  struct Tag {
    sim::Addr block = 0;
    bool valid = false;
    std::uint64_t lru = 0;
  };
  [[nodiscard]] std::uint32_t set_index(sim::Addr block) const;

  CacheGeometry geom_;
  std::uint32_t line_shift_;
  std::uint32_t set_mask_;
  SeatedSets<Tag> sets_;  // tags only: no payload words
  std::uint64_t lru_clock_ = 0;
};

}  // namespace amo::mem
