// WorkloadRegistry: every workload as a named entry that builds a
// SweepSpec from the CLI options and formats the resulting cells. Most
// entries are TableSpecs (table.hpp); the rest keep their own printer.
// The driver resolves names, `list` walks the table,
// and scenario files reuse a workload's printer by naming it.
#pragma once

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "bench/scenario.hpp"

namespace amo::bench {

struct Workload {
  const char* name;         // registry name and --json bench name: "table2"
  const char* description;  // one line for `amo_bench list`
  std::function<SweepSpec(const CliOptions& opt)> build;
  std::function<void(const SweepSpec& spec,
                     std::span<const CellResult> results)>
      print;
};

class WorkloadRegistry {
 public:
  /// The process-wide registry, seeded with the built-in workloads.
  static WorkloadRegistry& instance();

  void add(const Workload& w) { workloads_.push_back(w); }
  /// Lookup by registry name; nullptr when absent.
  [[nodiscard]] const Workload* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Workload>& all() const {
    return workloads_;
  }

 private:
  WorkloadRegistry();
  std::vector<Workload> workloads_;
};

/// Defined in workloads.cpp; registers the 23 built-in workloads.
void register_builtin_workloads(WorkloadRegistry& reg);

// Every builder resolves its sweep axes through these.
/// --quick trims to `quick` (when the workload has a quick list),
/// otherwise --cpus wins, otherwise the workload default.
[[nodiscard]] std::vector<std::uint32_t> resolved_cpus(
    const CliOptions& opt, std::vector<std::uint32_t> dflt,
    std::vector<std::uint32_t> quick = {});
[[nodiscard]] int resolved_episodes(const CliOptions& opt, int dflt = 8);
[[nodiscard]] int resolved_iters(const CliOptions& opt, int dflt = 6);

}  // namespace amo::bench
