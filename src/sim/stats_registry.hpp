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
// Registered pointers are read, never written; the pointed-to objects must
// outlive the registry (core::Machine owns both sides).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <variant>

#include "sim/inline_fn.hpp"
#include "sim/json.hpp"
#include "sim/stats.hpp"

namespace amo::sim {

class StatsRegistry {
 public:
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

  /// Registers a histogram; it snapshots as an object with
  /// count/sum/min/max/mean plus p50/p90/p99/p999 quantile estimates.
  void add_hist(const std::string& name, const LogHistogram* hist);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Reads a single entry by its full dotted name.
  /// Throws std::out_of_range when the name was never registered.
  [[nodiscard]] Json value(const std::string& name) const;

  /// Reads every entry into a nested Json object: dotted-name segments
  /// become nested objects, in registration order.
  [[nodiscard]] Json snapshot() const;

 private:
  using Source =
      std::variant<const std::uint64_t*, const Accum*, const LogHistogram*,
                   InlineFnT<std::uint64_t&>>;

  struct Entry {
    std::string name;
    // InlineFnT invocation is non-const; reading an entry is logically
    // const, so the source (never the name) is mutable.
    mutable Source source;
  };

  void add(const std::string& name, Source source);

  static Json read(const Entry& e);

  // A deque keeps Entry addresses stable across growth, so the dedup set
  // can hold string_views into the stored names instead of duplicating
  // every key string.
  std::deque<Entry> entries_;
  std::unordered_set<std::string_view> names_;  // views into entries_
};

}  // namespace amo::sim
