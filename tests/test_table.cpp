// The TableSpec builder and printer on synthetic cells: exact text for
// each value rule, and no simulation runs. Also the cell-count check of
// the workloads that keep their own printer.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "bench/table.hpp"

namespace amo::bench {
namespace {

CellResult cell(double primary, double secondary = 0,
                std::uint64_t bytes = 0) {
  CellResult c;
  c.primary = primary;
  c.secondary = secondary;
  c.traffic.bytes = bytes;
  return c;
}

std::string print(const TableSpec& t, std::vector<std::uint32_t> cpus,
                  const std::vector<CellResult>& r) {
  SweepSpec s;
  s.meta["cpus"] = json_array(cpus);
  std::FILE* f = std::tmpfile();
  print_table(t, s, r, f);
  std::string out(static_cast<std::size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

const CellParams kBarrier{.kernel = Kernel::kBarrier};

TEST(TablePrinter, RawColumnsRatiosAndSelfRatio) {
  const TableSpec t{
      .name = "t", .legacy_name = "t", .description = "", .title = "Raw",
      .cpus = {4, 16},
      .variants = {{kBarrier}, {kBarrier}},
      .columns = {{"cyc", {0}, 2, 8},
                  {"per", {0, -1, Field::kSecondary}, 1, 8},
                  {"self", {0, 0}, 2, 8},
                  {"spd", {0, 1}, 2, 8, true}},
      .footer = "\nfooter\n"};
  EXPECT_EQ(print(t, {4, 16},
                  {cell(100, 25.5), cell(40), cell(300, 18.75), cell(75)}),
            "\n== Raw ==\n"
            "CPUs        cyc      per     self      spd\n"
            "4        100.00     25.5     1.00    2.50x\n"
            "16       300.00     18.8     1.00    4.00x\n"
            "\nfooter\n");
}

TEST(TablePrinter, BaselineVariantNeedNotBePrinted) {
  const TableSpec t{
      .name = "t", .legacy_name = "t", .description = "", .title = "Bytes",
      .cpus = {32},
      .variants = {{kBarrier}, {kBarrier}, {kBarrier}},
      .columns = {{"a", {1, 0, Field::kBytes}, 2, 6},
                  {"b", {2, 0, Field::kBytes}, 2, 6}},
      .footer = ""};
  EXPECT_EQ(print(t, {32}, {cell(1, 0, 200), cell(2, 0, 100),
                            cell(3, 0, 300)}),
            "\n== Bytes ==\n"
            "CPUs        a      b\n"
            "32       0.50   1.50\n");
}

TEST(TablePrinter, PerFanoutGroupGivesItsMinimum) {
  // At P = 16 the tree variant runs fanouts 2, 4 and 8.
  const TableSpec t{
      .name = "t", .legacy_name = "t", .description = "", .title = "Best",
      .cpus = {16},
      .variants = {{kBarrier}, {kBarrier, {}, /*per_fanout=*/true}},
      .columns = {{"best", {1}, 1, 6}, {"spd", {0, 1}, 2, 6}},
      .footer = ""};
  EXPECT_EQ(print(t, {16}, {cell(90), cell(60), cell(30), cell(45)}),
            "\n== Best ==\n"
            "CPUs     best    spd\n"
            "16       30.0   3.00\n");
}

TEST(TablePrinter, PerPSubTablesOfKnobRows) {
  const TableSpec t{
      .name = "t", .legacy_name = "t", .description = "", .title = "Locks",
      .cpus = {8, 32}, .knob = Knob::kAlgo,
      .knobs = {static_cast<std::uint32_t>(LockAlgo::kTas),
                static_cast<std::uint32_t>(LockAlgo::kMcs)},
      .per_p = true, .key = "algo", .key_width = 8,
      .variants = {{kBarrier}, {kBarrier}},
      .columns = {{"A", {0}, 0, 6}, {"B", {1}, 0, 6}},
      .footer = "\nend\n"};
  EXPECT_EQ(print(t, {8, 32},
                  {cell(1), cell(2), cell(3), cell(4), cell(5), cell(6),
                   cell(7), cell(8)}),
            "\n== Locks ==\n"
            "\nP = 8\n"
            "algo          A      B\n"
            "tas           1      2\n"
            "mcs           3      4\n"
            "\nP = 32\n"
            "algo          A      B\n"
            "tas           5      6\n"
            "mcs           7      8\n"
            "\nend\n");
}

TEST(TablePrinter, KnobRowsAtOneCpuCountNameItInTheTitle) {
  const TableSpec t{
      .name = "t", .legacy_name = "t", .description = "",
      .title = "Hops (P=%u)", .cpus = {64}, .knob = Knob::kHopCycles,
      .knobs = {25, 400}, .key = "hop", .key_width = 5,
      .variants = {{kBarrier}},
      .columns = {{"cyc", {0}, 0, 6}},
      .footer = ""};
  EXPECT_EQ(print(t, {64}, {cell(10), cell(20)}),
            "\n== Hops (P=64) ==\n"
            "hop      cyc\n"
            "25        10\n"
            "400       20\n");
}

TEST(TablePrinter, CellCountMismatchThrowsNamingBothCounts) {
  const TableSpec t{
      .name = "shape", .legacy_name = "shape", .description = "",
      .title = "T", .cpus = {4, 8},
      .variants = {{kBarrier}, {kBarrier}},
      .columns = {{"c", {0}}},
      .footer = ""};
  try {
    print(t, {4, 8}, {cell(1), cell(2), cell(3)});
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "shape: the table needs 4 cells, the spec has 3");
  }
  EXPECT_THROW(print(t, {4, 8, 16}, std::vector<CellResult>(4)),
               std::runtime_error);
}

TEST(TableBuilder, ExpandsRowsVariantsAndFanoutsInRecordOrder) {
  const TableSpec t{
      .name = "b", .legacy_name = "b_legacy", .description = "",
      .title = "T", .cpus = {64}, .episodes = 8,
      .knob = Knob::kHopCycles, .knobs = {25, 50},
      .variants = {{kBarrier, {{"dir.three_hop", true}}},
                   {kBarrier, {}, /*per_fanout=*/true}},
      .columns = {{"c", {0}}},
      .footer = ""};
  CliOptions opt;
  opt.cpus = {16, 32};  // knob rows use the first CPU count only
  opt.episodes = 3;
  const SweepSpec s = build_table(t, opt);
  EXPECT_EQ(s.workload, "b");
  EXPECT_EQ(s.bench_name, "b_legacy");
  EXPECT_EQ(meta_cpus(s), std::vector<std::uint32_t>{16});
  // Per hop row: the three-hop cell, then fanouts 2, 4 and 8.
  ASSERT_EQ(s.cells.size(), 8u);
  const std::vector<std::uint32_t> fanouts = {4, 2, 4, 8};
  for (std::size_t i = 0; i < s.cells.size(); ++i) {
    const Cell& c = s.cells[i];
    EXPECT_EQ(c.params.episodes, 3);
    EXPECT_EQ(c.params.fanout, fanouts[i % 4]);
    EXPECT_EQ(c.set.front().key, "num_cpus");
    EXPECT_EQ(c.set.back().key, "net.hop_cycles");
    EXPECT_EQ(c.set.back().value.as_uint(), i < 4 ? 25u : 50u);
    EXPECT_EQ(c.set.size(), i % 4 == 0 ? 3u : 2u);
  }
}

const Workload& workload(const char* name) {
  const Workload* w = WorkloadRegistry::instance().find(name);
  if (w == nullptr) throw std::logic_error(name);
  return *w;
}

TEST(OwnPrinters, CellCountMismatchThrows) {
  CliOptions opt;
  opt.quick = true;
  for (const char* name :
       {"ablation_amu_cache", "ablation_update_policy", "ablation_dir_pointers",
        "microbench_spin", "microbench_hier",
        "ablation_hier_depth", "microbench_service", "ablation_service_load"}) {
    const Workload& w = workload(name);
    const SweepSpec s = w.build(opt);
    EXPECT_THROW(w.print(s, std::vector<CellResult>(s.cells.size() - 1)),
                 std::runtime_error)
        << name;
  }
}

// The printers that title a table with one CPU count print 0 when the
// spec's meta has none, instead of reading past an empty axis.
TEST(OwnPrinters, EmptyCpuAxisPrintsZero) {
  CliOptions opt;
  opt.quick = true;
  const std::pair<const char*, std::size_t> cases[] = {
      {"ablation_amu_cache", 25}, {"ablation_hier_depth", 12}};
  for (const auto& [name, cells] : cases) {
    const Workload& w = workload(name);
    SweepSpec s = w.build(opt);
    s.meta["cpus"] = sim::Json::array();
    EXPECT_NO_THROW(w.print(s, std::vector<CellResult>(cells))) << name;
  }
}

}  // namespace
}  // namespace amo::bench
