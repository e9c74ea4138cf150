// TableSpec: a table-shaped workload as data. Rows are CPU counts (or one
// knob's values) and columns read the row's variants: a raw result field
// or a ratio of two variants. build_table turns a spec into its SweepSpec
// and print_table turns the cells back into the table.
#pragma once

#include <cstdio>

#include "bench/registry.hpp"

namespace amo::bench {

enum class Field : std::uint8_t { kPrimary, kSecondary, kAux, kBytes };

/// `field` of variant `num`, or of `num` over `den` when `den` >= 0. A
/// per-fanout variant gives the minimum over its cells (the best fanout).
struct Value {
  int num;
  int den = -1;
  Field field = Field::kPrimary;
};

struct Column {
  const char* label;
  Value value;
  int precision = 0;
  int width = 12;
  bool times = false;  // an "x" suffix inside the width
};

/// One cell of each row: kernel parameters and config deltas (after
/// num_cpus). `per_fanout` makes it one cell per tree fanout below P.
struct Variant {
  CellParams params;
  std::vector<ConfigDelta> set = {};
  bool per_fanout = false;
};

/// What the rows are. kCpus: one row per CPU count. Otherwise each row
/// sets one knob in all its variants: at the first CPU count only, or in
/// a "P = n" sub-table per CPU count when `per_p`.
enum class Knob : std::uint8_t { kCpus, kFanout, kHopCycles, kStyle, kAlgo };

struct TableSpec {
  const char* name;
  const char* description;
  const char* title;  // printf format; its one %u is the first CPU count
  std::vector<std::uint32_t> cpus;             // resolved_cpus default
  std::vector<std::uint32_t> quick_cpus = {};  // and --quick list
  int episodes = 0;  // nonzero: the --episodes default of every variant
  int iters = 0;     // nonzero: the --iters default of every variant
  Knob knob = Knob::kCpus;
  std::vector<std::uint32_t> knobs = {};  // kFanout: 2, 4, ... up to P
  bool per_p = false;
  const char* key = "CPUs";  // the row label column
  int key_width = 6;
  std::vector<Variant> variants;
  std::vector<Column> columns;
  const char* footer;
};

[[nodiscard]] SweepSpec build_table(const TableSpec& t,
                                    const CliOptions& opt);

/// Throws std::runtime_error naming `workload` and both counts unless a
/// table that needs `need` cells was given exactly that many. Every printer
/// calls it before reading a cell.
void check_cells(std::string_view workload, std::size_t need,
                 std::size_t have);

/// check_cells for the shape `s.meta.cpus` gives, then prints the table.
void print_table(const TableSpec& t, const SweepSpec& s,
                 std::span<const CellResult> r, std::FILE* out = stdout);

[[nodiscard]] Workload table_workload(const TableSpec& t);

/// A JSON array of `values`: the axes a printer reads back from meta.
template <typename R>
[[nodiscard]] sim::Json json_array(const R& values) {
  sim::Json a = sim::Json::array();
  for (const auto& v : values) a.push_back(v);
  return a;
}

/// The array `s.meta[key]` (empty when absent), and its "cpus" axis.
[[nodiscard]] std::vector<std::uint64_t> meta_uints(const SweepSpec& s,
                                                    const std::string& key);
[[nodiscard]] std::vector<std::uint32_t> meta_cpus(const SweepSpec& s);

}  // namespace amo::bench
