#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

namespace amo::mem {

const char* to_string(LineState s) {
  switch (s) {
    case LineState::kInvalid: return "I";
    case LineState::kShared: return "S";
    case LineState::kExclusive: return "E";
    case LineState::kModified: return "M";
  }
  return "?";
}

Cache::Cache(const CacheGeometry& geometry)
    : geom_(geometry),
      words_per_line_(geometry.line_bytes / 8),
      line_shift_(std::countr_zero(geometry.line_bytes)),
      set_mask_(geometry.num_sets() - 1),
      sets_(geometry.ways, geometry.line_bytes / 8) {
  assert(geom_.size_bytes % (geom_.ways * geom_.line_bytes) == 0);
  assert((geom_.line_bytes & (geom_.line_bytes - 1)) == 0);
  assert(std::has_single_bit(geom_.num_sets()) &&
         "set count must be a power of two (indexed by mask)");
  assert(geom_.line_bytes / 8 <= LineBuf::kMaxWords);
  assert(geom_.ways <= 256 && "Line::way is one byte");
}

std::uint32_t Cache::set_index(sim::Addr block) const {
  return static_cast<std::uint32_t>(block >> line_shift_) & set_mask_;
}

Cache::Line* Cache::find(sim::Addr addr, bool touch) {
  const sim::Addr block = line_base(addr);
  if (Line* set = sets_.find(set_index(block))) {
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      Line& line = set[w];
      if (line.state != LineState::kInvalid && line.block == block) {
        if (touch) {
          line.lru = ++lru_clock_;
          ++stats_.hits;
        }
        return &line;
      }
    }
  }
  if (touch) ++stats_.misses;
  return nullptr;
}

const Cache::Line* Cache::peek(sim::Addr addr) const {
  return const_cast<Cache*>(this)->find(addr, /*touch=*/false);
}

std::optional<Cache::Victim> Cache::insert(
    sim::Addr block, LineState state, std::span<const std::uint64_t> data) {
  assert(block == line_base(block));
  assert(state != LineState::kInvalid);
  assert(data.size() == geom_.line_bytes / 8);
  assert(peek(block) == nullptr && "line already present");

  Line* set = sets_.seat(set_index(block));
  Line* slot = nullptr;
  for (std::uint32_t w = 0; w < geom_.ways; ++w) {
    if (set[w].state == LineState::kInvalid) {
      slot = &set[w];
      break;
    }
  }
  std::optional<Victim> victim;
  if (slot == nullptr) {
    // LRU among unpinned lines; pinned lines have an MSHR in flight and
    // must stay resident until their transaction completes.
    Line* lru = nullptr;
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      Line& line = set[w];
      if (line.pinned) continue;
      if (lru == nullptr || line.lru < lru->lru) lru = &line;
    }
    assert(lru != nullptr && "every way pinned: too many concurrent MSHRs");
    slot = lru;
    victim.emplace(Victim{slot->block, slot->state, LineBuf(words(*slot))});
    ++stats_.evictions;
    if (slot->state == LineState::kModified) ++stats_.dirty_evictions;
  }
  slot->block = block;
  slot->state = state;
  slot->pinned = false;
  slot->way = static_cast<std::uint8_t>(slot - set);
  slot->lru = ++lru_clock_;
  std::copy(data.begin(), data.end(), payload(*slot));
  return victim;
}

std::optional<Cache::Victim> Cache::invalidate(sim::Addr addr) {
  Line* line = find(addr, /*touch=*/false);
  if (line == nullptr) return std::nullopt;
  ++stats_.invals_received;
  Victim v{line->block, line->state, LineBuf(words(*line))};
  line->state = LineState::kInvalid;
  line->pinned = false;
  return v;
}

std::uint64_t Cache::read_word(const Line& line, sim::Addr addr) const {
  assert(line.block == line_base(addr));
  return payload(line)[word_index(addr)];
}

void Cache::write_word(Line& line, sim::Addr addr, std::uint64_t value) {
  assert(line.block == line_base(addr));
  payload(line)[word_index(addr)] = value;
}

void Cache::fill_words(const Line& line, std::span<const std::uint64_t> data) {
  assert(data.size() == words_per_line_);
  std::copy(data.begin(), data.end(), payload(line));
}

TagCache::TagCache(const CacheGeometry& geometry)
    : geom_(geometry),
      line_shift_(std::countr_zero(geometry.line_bytes)),
      set_mask_(geometry.num_sets() - 1),
      sets_(geometry.ways, 0) {
  assert(std::has_single_bit(geom_.num_sets()));
}

std::uint32_t TagCache::set_index(sim::Addr block) const {
  return static_cast<std::uint32_t>(block >> line_shift_) & set_mask_;
}

bool TagCache::probe(sim::Addr addr) {
  const sim::Addr block = line_base(addr);
  Tag* set = sets_.find(set_index(block));
  if (set == nullptr) return false;
  for (std::uint32_t w = 0; w < geom_.ways; ++w) {
    Tag& t = set[w];
    if (t.valid && t.block == block) {
      t.lru = ++lru_clock_;
      return true;
    }
  }
  return false;
}

void TagCache::fill(sim::Addr addr) {
  const sim::Addr block = line_base(addr);
  Tag* set = sets_.seat(set_index(block));
  Tag* slot = &set[0];
  for (std::uint32_t w = 0; w < geom_.ways; ++w) {
    Tag& t = set[w];
    if (t.valid && t.block == block) {
      t.lru = ++lru_clock_;
      return;
    }
    if (!t.valid) {
      slot = &t;
    } else if (slot->valid && t.lru < slot->lru) {
      slot = &t;
    }
  }
  slot->block = block;
  slot->valid = true;
  slot->lru = ++lru_clock_;
}

void TagCache::invalidate(sim::Addr addr) {
  const sim::Addr block = line_base(addr);
  Tag* set = sets_.find(set_index(block));
  if (set == nullptr) return;
  for (std::uint32_t w = 0; w < geom_.ways; ++w) {
    Tag& t = set[w];
    if (t.valid && t.block == block) t.valid = false;
  }
}

void Cache::register_stats(sim::StatsRegistry& reg,
                           const std::string& prefix) const {
  reg.add_counter(prefix + ".hits", &stats_.hits);
  reg.add_counter(prefix + ".misses", &stats_.misses);
  reg.add_counter(prefix + ".evictions", &stats_.evictions);
  reg.add_counter(prefix + ".dirty_evictions", &stats_.dirty_evictions);
  reg.add_counter(prefix + ".invals_received", &stats_.invals_received);
  reg.add_counter(prefix + ".word_updates", &stats_.word_updates);
}

}  // namespace amo::mem
