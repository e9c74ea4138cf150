// Machine-wide stats registry.
//
// Hardware models keep plain structs of counters so the hot path never
// touches a string; this registry is the cold-path index over them.
// Subsystems register raw pointers to their counters (or closures, for
// derived values) under hierarchical dotted names — "node3.amu.cache_hits",
// "cpu0.cache.l2.misses" — and `snapshot()` lazily reads everything into a
// nested, insertion-ordered Json document suitable for the bench `--json`
// output and CI regression gating.
//
// Entries are typed handles, not type-erased Json closures: a plain
// counter, an Accum, a LogHistogram, or an InlineFnT-held closure for a
// derived counter. InlineFnT keeps the registry on the same allocation
// discipline as the event queue — no std::function.
//
// A subsystem's stats struct registers as one group entry: a base address,
// its name prefix and a static table of {suffix, offset} fields. The
// registry builds a field's full name only when a snapshot or value()
// reads it, so a 1024-CPU machine registers a few thousand entries, not
// tens of thousands of heap-allocated name strings. A group's fields read
// in table order at the group's place in registration order, exactly as
// if each had been added on its own at that point.
//
// Registered pointers are read, never written; the pointed-to objects must
// outlive the registry (core::Machine owns both sides).
//
// Histograms are the exception: the registry owns them, and it alone
// knows whether they are on. hist() hands out a recording pointer, or
// nullptr when they are off, so an off registry holds no histogram entry
// and its snapshots are byte-identical to a build without them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>

#include "sim/inline_fn.hpp"
#include "sim/json.hpp"
#include "sim/stats.hpp"

namespace amo::sim {

/// One field of a stats struct registered with StatsRegistry::add_group:
/// its name under the group's prefix and its offsetof() in the struct. A
/// field is a std::uint64_t counter unless marked as an Accum.
struct StatField {
  enum class Kind : std::uint8_t { kCounter, kAccum };
  std::string_view suffix;
  std::size_t offset;
  Kind kind = Kind::kCounter;
};

class StatsRegistry {
 public:
  explicit StatsRegistry(bool histograms = false) : histograms_(histograms) {}
  // Subsystems keep the addresses of the histograms it hands out.
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Whether hist() hands out histograms.
  [[nodiscard]] bool histograms() const { return histograms_; }

  /// Registers a plain counter by address.
  void add_counter(const std::string& name, const std::uint64_t* counter);

  /// Registers a derived value computed at snapshot time.
  template <typename F>
  void add_fn(const std::string& name, F fn) {
    add(name, Source(std::in_place_type<InlineFnT<std::uint64_t&>>,
                     [fn = std::move(fn)](std::uint64_t& out) mutable {
                       out = fn();
                     }));
  }

  /// Registers a distribution; it snapshots as an object with
  /// count/sum/min/max/mean/stddev fields.
  void add_accum(const std::string& name, const Accum* accum);

  /// Registers every field of the stats struct at `base` as one entry
  /// named `prefix`; field f reads as "prefix.f". `fields` must outlive
  /// the registry (a static table).
  template <typename S>
  void add_group(std::string prefix, const S* base,
                 std::span<const StatField> fields) {
    static_assert(std::is_standard_layout_v<S>,
                  "group fields are read at offsetof() offsets");
    add(std::move(prefix),
        Source(std::in_place_type<Group>,
               Group{reinterpret_cast<const std::byte*>(base), fields}));
  }

  /// When histograms are on, allocates a histogram owned by the registry
  /// (its address is stable), registers it here in the entry order and
  /// returns it; it snapshots as an object with count/sum/min/max/mean
  /// plus p50/p90/p99/p999 quantile estimates. Off, returns nullptr and
  /// registers nothing.
  [[nodiscard]] LogHistogram* hist(const std::string& name);

  /// Number of entries; a group counts once.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Reads a single entry, or one field of a group, by its full dotted
  /// name; a group's prefix reads as an object of the group's fields.
  /// Throws std::out_of_range when no entry or field has that name.
  [[nodiscard]] Json value(const std::string& name) const;

  /// Reads every entry into a nested Json object: dotted-name segments
  /// become nested objects, in registration order.
  [[nodiscard]] Json snapshot() const;

 private:
  struct Group {
    const std::byte* base;
    std::span<const StatField> fields;
  };

  using Source =
      std::variant<const std::uint64_t*, const Accum*, const LogHistogram*,
                   Group, InlineFnT<std::uint64_t&>>;

  struct Entry {
    std::string name;  // a group's prefix
    // InlineFnT invocation is non-const; reading an entry is logically
    // const, so the source (never the name) is mutable.
    mutable Source source;
  };

  // A group field found by its full name.
  struct FieldRef {
    const std::byte* base = nullptr;
    const StatField* field = nullptr;
  };

  void add(std::string name, Source source);

  [[nodiscard]] FieldRef find_field(std::string_view name) const;

  static Json read(const Entry& e);

  // A deque keeps Entry addresses stable across growth, so the name index
  // can hold string_views into the stored names instead of duplicating
  // every key string.
  std::deque<Entry> entries_;
  // Every entry's name (a group's prefix) to its entry, plus the parent
  // of every single name to nullptr when no entry has that name: a
  // group registered under such a parent checks its fields against the
  // names already there.
  std::unordered_map<std::string_view, const Entry*> names_;
  bool histograms_;
  std::deque<LogHistogram> hists_;  // deque: handed-out addresses stay put
};

}  // namespace amo::sim
