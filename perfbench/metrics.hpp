// The benchmark's metric catalogue and the paper's reference speedups.
//
// Shared by the driver (which reports these names) and the self-test
// (which checks the names and the paper-error arithmetic). Names and
// units here must match BENCHMARK.json.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "sync/mechanism.hpp"

namespace perfbench {

using amo::sync::Mechanism;

/// One reported metric. `moves` names the end-to-end metric and the
/// workload a per-layer metric should move; `little` the workload where
/// it should do little. Both are empty for end-to-end metrics.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;
  const char* little;
};

/// Reported by every workload with --trace 0.
inline constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", "", ""},
    {"setup_s", "s", "", ""},
    {"sim_mcycles_per_s", "Mcycles/s", "", ""},
    {"peak_rss_mb", "MB", "", ""},
    {"paper_error_pct", "%", "", ""},
    {"p50_cycles", "cycles", "", ""},
    {"p999_cycles", "cycles", "", ""},
    {"episode_cycles", "cycles", "", ""},
};

/// Reported by every workload with --trace 1.
inline constexpr MetricDef kPerLayer[] = {
    {"core.construct_s", "s", "setup_s, wall_s on scale_1024",
     "service_open_loop"},
    {"core.teardown_s", "s", "wall_s on scale_1024", "service_open_loop"},
    {"mem.rss_after_construct_mb", "MB", "peak_rss_mb on scale_1024",
     "service_open_loop"},
    {"sim.events", "count", "sim_mcycles_per_s on paper_tables",
     "scale_1024"},
    {"sim.ns_per_event", "ns", "sim_mcycles_per_s on every workload", "-"},
    {"sim.queue_op_ns", "ns", "sim_mcycles_per_s on service_open_loop",
     "paper_tables"},
    {"sim.resume_ns", "ns", "sim_mcycles_per_s on paper_tables", "-"},
    {"net.send_ns", "ns", "sim_mcycles_per_s on scale_1024",
     "service_open_loop"},
    {"net.packets", "count", "episode_cycles on scale_1024", "-"},
    {"net.root_link_msgs_per_episode", "count",
     "episode_cycles on scale_1024", "-"},
    {"net.link_latency_p99", "cycles", "episode_cycles on scale_1024",
     "service_open_loop"},
    {"coh.dir_requests", "count",
     "sim_mcycles_per_s, paper_error_pct on paper_tables", "scale_1024"},
    {"coh.invals_sent", "count",
     "sim_mcycles_per_s, paper_error_pct on paper_tables", "scale_1024"},
    {"coh.dir_occupancy_wait_p99", "cycles", "paper_error_pct on paper_tables",
     "-"},
    {"coh.mshr_residency_p99", "cycles", "p999_cycles on service_open_loop",
     "-"},
    {"coh.word_op_ns", "ns", "sim_mcycles_per_s on paper_tables", "-"},
    {"mem.cache_access_ns", "ns", "sim_mcycles_per_s on paper_tables", "-"},
    {"mem.dram_queue_wait_p99", "cycles", "p999_cycles on service_open_loop",
     "-"},
    {"cpu.sc_success_ratio", "ratio", "paper_error_pct on paper_tables",
     "service_open_loop"},
    {"cpu.am_replays", "count", "paper_error_pct on paper_tables", "-"},
    {"amu.ops", "count",
     "p999_cycles on service_open_loop, episode_cycles on scale_1024",
     "paper_tables (LL/SC cells)"},
    {"amu.cache_hit_ratio", "ratio",
     "p999_cycles on service_open_loop, episode_cycles on scale_1024",
     "paper_tables (LL/SC cells)"},
    {"amu.queue_wait_p99", "cycles", "p999_cycles on service_open_loop", "-"},
    {"amu.op_ns", "ns", "sim_mcycles_per_s on service_open_loop", "-"},
    {"sync.lock_acquire_p99", "cycles", "p999_cycles on service_open_loop",
     "-"},
    {"sync.barrier_episode_p99", "cycles", "episode_cycles on scale_1024",
     "-"},
    {"trace.overhead_pct", "%", "-", "-"},
};

/// A speedup the paper reports. Table 2 cells are central barriers over
/// the LL/SC central barrier; Table 4 cells are locks over the LL/SC
/// ticket lock, both at the same CPU count.
struct PaperRef {
  int table;  // 2 or 4
  std::uint32_t cpus;
  Mechanism mech;
  bool array;  // Table 4 only: array lock instead of ticket lock
  double paper;
};

/// The 48 cells EXPERIMENTS.md lists paper values for. Table 2's 4-CPU
/// row is held out: it tuned barrier_sw_overhead (DESIGN.md §6).
inline constexpr PaperRef kPaperRefs[] = {
    // Table 2: ActMsg, Atomic, MAO, AMO central barriers.
    {2, 8, Mechanism::kActMsg, false, 1.70},
    {2, 8, Mechanism::kAtomic, false, 1.06},
    {2, 8, Mechanism::kMao, false, 2.70},
    {2, 8, Mechanism::kAmo, false, 5.48},
    {2, 16, Mechanism::kActMsg, false, 2.00},
    {2, 16, Mechanism::kAtomic, false, 1.20},
    {2, 16, Mechanism::kMao, false, 3.61},
    {2, 16, Mechanism::kAmo, false, 9.11},
    {2, 32, Mechanism::kActMsg, false, 2.38},
    {2, 32, Mechanism::kAtomic, false, 1.36},
    {2, 32, Mechanism::kMao, false, 4.20},
    {2, 32, Mechanism::kAmo, false, 15.14},
    {2, 64, Mechanism::kActMsg, false, 2.78},
    {2, 64, Mechanism::kAtomic, false, 1.37},
    {2, 64, Mechanism::kMao, false, 5.14},
    {2, 64, Mechanism::kAmo, false, 23.78},
    {2, 128, Mechanism::kActMsg, false, 2.74},
    {2, 128, Mechanism::kAtomic, false, 1.24},
    {2, 128, Mechanism::kMao, false, 8.02},
    {2, 128, Mechanism::kAmo, false, 34.74},
    {2, 256, Mechanism::kActMsg, false, 2.82},
    {2, 256, Mechanism::kAtomic, false, 1.23},
    {2, 256, Mechanism::kMao, false, 14.70},
    {2, 256, Mechanism::kAmo, false, 61.94},
    // Table 4: LLSC.a, ActMsg.t, Atomic.t, MAO.t, AMO.t, AMO.a.
    {4, 4, Mechanism::kLlSc, true, 0.48},
    {4, 4, Mechanism::kActMsg, false, 1.08},
    {4, 4, Mechanism::kAtomic, false, 0.92},
    {4, 4, Mechanism::kMao, false, 1.01},
    {4, 4, Mechanism::kAmo, false, 1.95},
    {4, 4, Mechanism::kAmo, true, 1.31},
    {4, 16, Mechanism::kLlSc, true, 0.60},
    {4, 16, Mechanism::kActMsg, false, 2.18},
    {4, 16, Mechanism::kAtomic, false, 0.93},
    {4, 16, Mechanism::kMao, false, 1.07},
    {4, 16, Mechanism::kAmo, false, 2.20},
    {4, 16, Mechanism::kAmo, true, 2.41},
    {4, 64, Mechanism::kLlSc, true, 1.42},
    {4, 64, Mechanism::kActMsg, false, 0.60},
    {4, 64, Mechanism::kAtomic, false, 0.80},
    {4, 64, Mechanism::kMao, false, 0.64},
    {4, 64, Mechanism::kAmo, false, 4.90},
    {4, 64, Mechanism::kAmo, true, 5.45},
    {4, 256, Mechanism::kLlSc, true, 2.71},
    {4, 256, Mechanism::kActMsg, false, 0.97},
    {4, 256, Mechanism::kAtomic, false, 1.22},
    {4, 256, Mechanism::kMao, false, 0.90},
    {4, 256, Mechanism::kAmo, false, 10.36},
    {4, 256, Mechanism::kAmo, true, 10.05},
};

/// Mean |ours - paper| / paper over the given cells, in percent.
/// `ours[i]` is our speedup for `refs[i]`.
inline double paper_error_pct(std::span<const PaperRef> refs,
                              std::span<const double> ours) {
  if (refs.empty() || refs.size() != ours.size()) return NAN;
  double sum = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    sum += std::abs(ours[i] - refs[i].paper) / refs[i].paper;
  }
  return 100.0 * sum / static_cast<double>(refs.size());
}

}  // namespace perfbench
