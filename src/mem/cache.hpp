// Set-associative write-back cache: tags, MESI state, line data, LRU.
//
// This is a passive structure — the coherence protocol (coh::CacheCtrl)
// decides *when* lines move; the cache only stores them. One instance per
// core models the coherent L2; a tag-only variant (`TagCache`) models the
// L1D timing filter.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
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

class Cache {
 public:
  // Metadata only — 24 bytes, so a 4-way set's tags/state/LRU fit in
  // two cache lines of the host. Word payloads live in one flat
  // set-major block (`words_`), addressed by line index; see `words()`.
  // No default member initializers, so `lines_` is allocated without
  // writing it (see there).
  struct Line {
    sim::Addr block;  // line base address
    LineState state;
    bool pinned;  // protected from victim selection (active MSHR)
    std::uint64_t lru;
  };

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

  /// The line's word payload (words_per_line entries) in the flat
  /// set-major data block. `line` must be a reference obtained from this
  /// cache (find/peek) — the payload is located by line index.
  [[nodiscard]] std::span<const std::uint64_t> words(const Line& line) const {
    return {words_.get() + line_index(line) * words_per_line_,
            words_per_line_};
  }
  /// Overwrites the line's payload (e.g. a fill from a data response).
  void fill_words(const Line& line, std::span<const std::uint64_t> data);

  [[nodiscard]] CacheStats& stats() { return stats_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  /// Registers hit/miss/eviction counters under `prefix`.
  void register_stats(sim::StatsRegistry& reg, const std::string& prefix) const;

  /// Iterates all valid lines (coherence-invariant checks in tests).
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (std::uint32_t s = 0; s < geom_.num_sets(); ++s) {
      for (std::uint32_t w = 0; w < geom_.ways; ++w) {
        if ((way_init_[s] & (1u << w)) == 0) continue;
        const Line& line = lines_[static_cast<std::size_t>(s) * geom_.ways + w];
        if (line.state != LineState::kInvalid) fn(line);
      }
    }
  }

 private:
  [[nodiscard]] std::uint32_t set_index(sim::Addr block) const;
  [[nodiscard]] std::size_t line_index(const Line& line) const {
    return static_cast<std::size_t>(&line - lines_.get());
  }
  [[nodiscard]] std::uint64_t* line_words(const Line& line) {
    return words_.get() + line_index(line) * words_per_line_;
  }

  CacheGeometry geom_;
  std::size_t words_per_line_;
  std::uint32_t line_shift_;  // log2(line_bytes)
  std::uint32_t set_mask_;    // num_sets - 1 (power-of-two set count)
  // Line metadata (sets * ways, set-major) and the parallel payload
  // block, both uninitialized (make_unique_for_overwrite of trivially
  // default-constructible types, so no constructor runs and the host
  // pages are not touched): a 1024-cpu machine carries gigabytes of
  // cache arrays, and writing them up front would dominate machine
  // construction. The only eagerly-zeroed state is `way_init_`, one byte
  // per set: bit w says set's way w has been seated. Unseated ways are
  // misses by definition and are never read; a way is value-initialized
  // (then fully written) the first time `insert` seats a line in it.
  std::unique_ptr<Line[]> lines_;
  std::unique_ptr<std::uint64_t[]> words_;
  std::vector<std::uint8_t> way_init_;  // per-set constructed-way bitmask
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
  std::vector<Tag> tags_;
  std::uint64_t lru_clock_ = 0;
};

}  // namespace amo::mem
