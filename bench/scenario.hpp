// The scenario layer: experiments as data. A SweepSpec is a declarative
// list of cells — (config-delta, kernel-params) pairs — that the runner
// feeds through SweepRunner/JsonReporter. Every former bench binary is a
// registered builder producing one of these; a JSON scenario file
// deserializes into exactly the same structure, so `amo_bench run
// --spec=file.json` and a named run share every code path after parsing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench/harness.hpp"
#include "sync/lock.hpp"
#include "sync/mechanism.hpp"

namespace amo::bench {

/// The simulation kernels a cell can run. The barrier kernels (kBarrier,
/// kBarrierStyle, kSpin, kHier) share one episode loop and the
/// lock kernels (kLock, kLockAlgo, kTicketBackoff, kMultiLock) one
/// passage loop; they differ only in the sync object and what they
/// report. kFig1Episode, kPairwiseFlags and kService run their own
/// thread programs.
enum class Kernel : std::uint8_t {
  kBarrier,        // the paper's central/tree barrier episodes
  kLock,           // the paper's ticket/array lock passages, fenced warm-up
  kLockAlgo,       // extension: tas/ticket/array/mcs algorithm matrix
  kTicketBackoff,  // ticket lock with TicketBackoff policy, total cycles
  kFig1Episode,    // the paper's Fig. 1 three-processor episode
  kMultiLock,      // K independent AMO ticket locks homed on node 0
  kPairwiseFlags,  // producer/consumer AMO flags (sparse sharing)
  kBarrierStyle,   // naive/optimized/dissemination/mcs-tree codings
  kSpin,           // spin-virtualization cost: barrier + idle busy-waiters
  kHier,           // hierarchy-aware barriers: root-link traffic + cycles
  kService,        // open-loop sharded service: tail latency vs offered load
};

enum class BarrierKind : std::uint8_t { kCentral, kTree };

enum class LockAlgo : std::uint8_t { kTas, kTicket, kArray, kMcs, kCna,
                                     kHmcs };

/// Which barrier the kHier kernel runs. The flat fixed-fanout tree is the
/// baseline the cluster variants are gated against; levels, thresholds,
/// and AMU aggregation for the cluster variants come from the `hier.*`
/// config knobs (set them per cell).
enum class HierBarrier : std::uint8_t { kFlatTree, kCluster, kClusterAmu };
enum class BarrierStyle : std::uint8_t {
  kNaive, kOptimized, kDissemination, kMcsTree,
};

[[nodiscard]] const char* to_string(Kernel k);
[[nodiscard]] const char* to_string(BarrierKind k);
[[nodiscard]] const char* to_string(LockAlgo a);
[[nodiscard]] const char* to_string(BarrierStyle s);
[[nodiscard]] const char* to_string(HierBarrier h);

/// Union of every kernel's parameters; each kernel reads its slice and
/// ignores the rest.
struct CellParams {
  Kernel kernel = Kernel::kBarrier;
  sync::Mechanism mech = sync::Mechanism::kLlSc;
  // Barrier kernels: warm-up then measured episodes, each after a random
  // skew in [0, max_skew)
  BarrierKind kind = BarrierKind::kCentral;  // kBarrier, kSpin
  std::uint32_t fanout = 4;                  // tree barriers
  int warmup_episodes = 2;
  int episodes = 8;
  std::uint64_t max_skew = 200;  // also the lock kernels' post-release skew
  // Lock kernels: passages with a cs_cycles critical section; only kLock
  // runs warm-up passages
  bool array = false;  // kLock: array lock instead of ticket
  int warmup_iters = 1;
  int iters = 6;
  sim::Cycle cs_cycles = 50;
  // The other lock kernels' algorithm; ticket locks take `backoff`
  LockAlgo algo = LockAlgo::kTicket;
  sync::TicketBackoff backoff = sync::TicketBackoff::kNone;
  // Lock kernels: CPU c takes lock c % locks (kMultiLock sets it)
  std::uint32_t locks = 1;
  // kPairwiseFlags
  int rounds = 10;
  // kBarrierStyle
  BarrierStyle style = BarrierStyle::kOptimized;
  // kSpin: cpus in the barrier set; the rest busy-wait. 0 = all.
  std::uint32_t active = 0;
  // kHier: barrier variant (flat tree baseline vs cluster-hierarchical)
  HierBarrier hier = HierBarrier::kFlatTree;
  // kService: requests per CPU (offered load comes from the
  // service.interarrival_cycles config knob, set per cell)
  std::uint64_t requests = 65536;
};

struct TrafficSnapshot {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// What every kernel reports. Which fields are meaningful depends on the
/// kernel; `primary` is always its headline cycles metric.
struct CellResult {
  double primary = 0;    // cycles per barrier / total cycles
  double secondary = 0;  // cycles per proc / per acquire (barrier/lock)
  TrafficSnapshot traffic;
  std::uint64_t aux = 0;  // fig1: one-way messages; pairwise: update msgs
};

/// One dotted-path config override, e.g. {"net.hop_cycles", 400}.
struct ConfigDelta {
  std::string key;
  sim::Json value;
};

struct Cell {
  std::vector<ConfigDelta> set;  // applied to the base config, in order
  CellParams params;
};

struct SweepSpec {
  std::string workload;     // registry name ("" for ad-hoc scenarios)
  std::string bench_name;   // JsonReporter document name
  sim::Json base_config;    // null, or overrides under every cell
  sim::Json meta;           // data the row/column formatter reads
  std::vector<Cell> cells;  // flat, in serial record order
};

/// Runs one cell's kernel on a fully-built config, emitting its --json
/// record (if the kernel has one) to the installed JsonReporter.
[[nodiscard]] CellResult run_cell(const core::SystemConfig& cfg,
                                  const CellParams& params);

/// Materializes each cell's config (base + deltas, validated — a
/// core::ConfigError here is prefixed with the cell index), then runs
/// every cell across `threads` workers in deterministic record order.
[[nodiscard]] std::vector<CellResult> run_spec(
    const SweepSpec& spec, const core::SystemConfig& base, unsigned threads);

/// Spec <-> JSON. to_json omits defaulted params; from_json rejects
/// unknown keys/enum tokens with messages naming the cell and field.
[[nodiscard]] sim::Json spec_to_json(const SweepSpec& spec);
[[nodiscard]] SweepSpec spec_from_json(const sim::Json& j);

/// One-line-per-cell formatter for ad-hoc scenario files.
void print_generic(const SweepSpec& spec, std::span<const CellResult> r);

}  // namespace amo::bench
