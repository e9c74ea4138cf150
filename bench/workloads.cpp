// The 24 built-in workloads as registry entries. The 14 whose output is
// rows of CPU counts (or of one knob) by columns of variants are
// TableSpecs, built and printed by table.cpp. The rest keep a builder
// (CLI options -> declarative SweepSpec) and a printer of their own.
// Paper reference cells are printed in the footers.
#include <algorithm>
#include <array>
#include <cstdio>

#include "bench/table.hpp"

namespace amo::bench {

namespace {

using sync::Mechanism;
using enum sync::Mechanism;
using enum Field;

Cell cell(std::uint32_t cpus, CellParams params) {
  Cell c;
  c.set.push_back({"num_cpus", sim::Json(cpus)});
  c.params = params;
  return c;
}

CellParams barrier(Mechanism m, BarrierKind kind = BarrierKind::kCentral) {
  return {.kernel = Kernel::kBarrier, .mech = m, .kind = kind};
}

CellParams lock(Mechanism m, bool array = false) {
  return {.kernel = Kernel::kLock, .mech = m, .array = array};
}

/// A tree barrier at each fanout below P; the columns read the best.
Variant tree(Mechanism m) {
  return {barrier(m, BarrierKind::kTree), {}, /*per_fanout=*/true};
}

template <typename... E>
std::vector<std::uint32_t> knobs(E... values) {
  return {static_cast<std::uint32_t>(values)...};
}

// ------------------------------------------------------------- fig1
SweepSpec build_fig1(const CliOptions& opt) {
  (void)opt;
  SweepSpec s{"fig1", "fig1_message_count", {}, {}, {}};
  for (Mechanism m : sync::kAllMechanisms) {
    s.cells.push_back(
        {{{"num_cpus", sim::Json(4u)},
          {"cpus_per_node", sim::Json(1u)},         // one cpu per node
          {"barrier_sw_overhead", sim::Json(0)}},  // protocol msgs only
         {.kernel = Kernel::kFig1Episode, .mech = m}});
  }
  return s;
}

void print_fig1(const SweepSpec& s, std::span<const CellResult> r) {
  std::printf("Figure 1: one 3-processor barrier episode, variable homed "
              "on a 4th node\n\n");
  std::printf("%-8s %16s %12s\n", "mech", "one-way msgs", "cycles");
  for (std::size_t i = 0; i < r.size(); ++i) {
    std::printf("%-8s %16llu %12llu\n",
                sync::to_string(s.cells[i].params.mech),
                static_cast<unsigned long long>(r[i].aux),
                static_cast<unsigned long long>(r[i].primary));
  }
  std::printf(
      "\npaper: conventional atomics need 18 one-way messages before all "
      "three processors proceed; AMOs need 6 (3 requests + 3 replies) "
      "plus the word-update wave that releases the spinners.\n");
}

// ------------------------------------------- the paper's tables/figures
const TableSpec kTable2{
    .name = "table2", .legacy_name = "table2_barriers",
    .description = "central barrier speedup over LL/SC, 4..256 CPUs (Table 2)",
    .title = "Table 2: barrier speedup over LL/SC",
    .cpus = paper_cpu_counts(4), .quick_cpus = {4, 8, 16, 32}, .episodes = 8,
    .variants = {{barrier(kLlSc)}, {barrier(kActMsg)}, {barrier(kAtomic)},
                 {barrier(kMao)}, {barrier(kAmo)}},
    .columns = {{"LLSC(cyc)", {0}, 2}, {"ActMsg", {0, 1}, 2},
                {"Atomic", {0, 2}, 2}, {"MAO", {0, 3}, 2}, {"AMO", {0, 4}, 2}},
    .footer = "\npaper:  4: 0.95/1.15/1.21/2.10   32: 2.38/1.36/4.20/15.14"
              "   256: 2.82/1.23/14.70/61.94\n"};

const TableSpec kFig5{
    .name = "fig5", .legacy_name = "fig5_barrier_cycles",
    .description = "central barrier cycles-per-processor vs P (Fig. 5)",
    .title = "Figure 5: barrier cycles-per-processor",
    .cpus = paper_cpu_counts(4), .quick_cpus = {4, 8, 16, 32}, .episodes = 8,
    .variants = kTable2.variants,
    .columns = {{"LL/SC", {0, -1, kSecondary}, 1},
                {"ActMsg", {1, -1, kSecondary}, 1},
                {"Atomic", {2, -1, kSecondary}, 1},
                {"MAO", {3, -1, kSecondary}, 1}, {"AMO", {4, -1, kSecondary}, 1}},
    .footer = "\nexpected shape: LL/SC per-proc time rises with P (superlinear "
              "total); AMO per-proc time is flat and slightly decreasing.\n"};

// Per row: the central LL/SC baseline, every (mechanism, fanout) tree run,
// then central AMO for the last column.
const TableSpec kTable3{
    .name = "table3", .legacy_name = "table3_tree_barriers",
    .description = "two-level tree barriers, best fanout per point (Table 3)",
    .title = "Table 3: tree barrier speedup over central LL/SC (best fanout)",
    .cpus = paper_cpu_counts(16), .quick_cpus = {16, 32}, .episodes = 8,
    .variants = {{barrier(kLlSc)}, tree(kLlSc), tree(kActMsg), tree(kAtomic),
                 tree(kMao), tree(kAmo), {barrier(kAmo)}},
    .columns = {{"LLSC+tree", {0, 1}, 2}, {"ActMsg+tree", {0, 2}, 2},
                {"Atomic+tree", {0, 3}, 2}, {"MAO+tree", {0, 4}, 2},
                {"AMO+tree", {0, 5}, 2}, {"AMO", {0, 6}, 2}},
    .footer = "\npaper: 16: 1.70/2.41/2.25/2.60/2.59/9.11"
              "   256: 8.38/14.72/11.22/20.37/22.62/61.94\n"};

const TableSpec kFig6{
    .name = "fig6", .legacy_name = "fig6_tree_cycles",
    .description = "tree barrier cycles-per-processor, best fanout (Fig. 6)",
    .title = "Figure 6: tree barrier cycles-per-processor (best fanout)",
    .cpus = paper_cpu_counts(16), .quick_cpus = {16, 32}, .episodes = 8,
    .variants = {tree(kLlSc), tree(kActMsg), tree(kAtomic), tree(kMao),
                 tree(kAmo)},
    .columns = {{"LLSC+tree", {0, -1, kSecondary}, 1},
                {"ActMsg+tree", {1, -1, kSecondary}, 1},
                {"Atomic+tree", {2, -1, kSecondary}, 1},
                {"MAO+tree", {3, -1, kSecondary}, 1},
                {"AMO+tree", {4, -1, kSecondary}, 1}},
    .footer = "\nexpected shape: per-processor time decreases with P for all "
              "tree barriers (overhead amortized over more branches).\n"};

// The LL/SC ticket baseline, then (mechanism, ticket/array) skipping the
// baseline combination; LLSC.t is the baseline over itself.
const TableSpec kTable4{
    .name = "table4", .legacy_name = "table4_locks",
    .description = "ticket/array lock speedups over LL/SC ticket (Table 4)",
    .title = "Table 4: lock speedups over the LL/SC ticket lock",
    .cpus = paper_cpu_counts(4), .quick_cpus = {4, 8, 16}, .iters = 6,
    .variants = {{lock(kLlSc)}, {lock(kLlSc, true)}, {lock(kActMsg)},
                 {lock(kActMsg, true)}, {lock(kAtomic)}, {lock(kAtomic, true)},
                 {lock(kMao)}, {lock(kMao, true)}, {lock(kAmo)},
                 {lock(kAmo, true)}},
    .columns = {{"LLSC(cyc)", {0}, 2}, {"LLSC.t", {0, 0}, 2},
                {"LLSC.a", {0, 1}, 2}, {"ActMsg.t", {0, 2}, 2},
                {"ActMsg.a", {0, 3}, 2}, {"Atomic.t", {0, 4}, 2},
                {"Atomic.a", {0, 5}, 2}, {"MAO.t", {0, 6}, 2},
                {"MAO.a", {0, 7}, 2}, {"AMO.t", {0, 8}, 2}, {"AMO.a", {0, 9}, 2}},
    .footer = "\npaper: 4: AMO 1.95/1.31   64: LLSC.a 1.42, AMO 4.90/5.45"
              "   256: AMO 10.36/10.05\n"};

// Variant 0 is a dedicated LL/SC baseline run, not printed; then one run
// per plotted mechanism.
const TableSpec kFig7{
    .name = "fig7", .legacy_name = "fig7_lock_traffic",
    .description = "ticket-lock network traffic normalized to LL/SC (Fig. 7)",
    .title = "Figure 7: ticket-lock network traffic (bytes, normalized to "
             "LL/SC)",
    .cpus = {128, 256}, .quick_cpus = {32}, .iters = 6,
    .variants = {{lock(kLlSc)}, {lock(kLlSc)}, {lock(kActMsg)},
                 {lock(kAtomic)}, {lock(kMao)}, {lock(kAmo)}},
    .columns = {{"LL/SC", {1, 0, kBytes}, 2}, {"ActMsg", {2, 0, kBytes}, 2},
                {"Atomic", {3, 0, kBytes}, 2}, {"MAO", {4, 0, kBytes}, 2},
                {"AMO", {5, 0, kBytes}, 2}},
    .footer = "\nexpected shape: AMO lowest by far; ActMsg highest (timeout "
              "retransmissions under contention).\n"};

// ------------------------------------------------ ablation_amu_cache
const std::array<std::uint32_t, 5> kLockCounts = {1, 2, 4, 8, 16};
const std::array<std::uint32_t, 5> kCacheWords = {2, 4, 8, 16, 32};

SweepSpec build_amu_cache(const CliOptions& opt) {
  SweepSpec s{"ablation_amu_cache", "ablation_amu_cache", {}, {}, {}};
  const std::uint32_t p = resolved_cpus(opt, {32}).front();
  const int iters = resolved_iters(opt);
  s.meta["cpus"] = json_array(std::vector{p});
  for (std::uint32_t nlocks : kLockCounts) {
    for (std::uint32_t words : kCacheWords) {
      Cell c = cell(p, {.kernel = Kernel::kMultiLock, .mech = kAmo,
                        .iters = iters, .locks = nlocks});
      c.set.push_back({"amu.cache_words", sim::Json(words)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_amu_cache(const SweepSpec& s, std::span<const CellResult> r) {
  check_cells(s.workload, kLockCounts.size() * kCacheWords.size(), r.size());
  const auto cpus = meta_cpus(s);
  std::printf("\n== Ablation: AMU cache size (P=%u, AMO ticket locks) ==\n",
              cpus.empty() ? 0u : cpus.front());
  std::printf("rows: concurrent locks; cols: AMU cache words; cells: total "
              "cycles (lower is better)\n");
  std::printf("%-8s", "locks");
  for (std::uint32_t w : kCacheWords) std::printf(" %10uw", w);
  std::printf("\n");
  for (std::size_t i = 0; i < kLockCounts.size(); ++i) {
    std::printf("%-8u", kLockCounts[i]);
    for (std::size_t j = 0; j < kCacheWords.size(); ++j) {
      std::printf(" %11llu", static_cast<unsigned long long>(
                                 r[i * kCacheWords.size() + j].primary));
    }
    std::printf("\n");
  }
  std::printf("\nexpected shape: cells worsen sharply once 2*locks exceeds "
              "the AMU cache words (sequencer + counter per lock).\n");
}

// -------------------------------------------- ablation_update_policy
SweepSpec build_update_policy(const CliOptions& opt) {
  SweepSpec s{"ablation_update_policy", "ablation_update_policy", {}, {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, {16, 64, 256}, {16, 32});
  const int episodes = resolved_episodes(opt);
  s.meta["cpus"] = json_array(cpus);
  s.meta["episodes"] = episodes;
  for (std::uint32_t p : cpus) {
    for (int policy = 0; policy < 3; ++policy) {
      Cell c = cell(p, {.kernel = Kernel::kBarrier, .mech = kAmo,
                        .episodes = episodes});
      c.set.push_back({"amu.eager_put_all", sim::Json(policy >= 1)});
      c.set.push_back({"dir.put_block_granularity", sim::Json(policy == 2)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_update_policy(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  check_cells(s.workload, cpus.size() * 3, r.size());
  const int episodes = static_cast<int>(s.meta.at("episodes").as_uint());
  std::printf(
      "\n== Ablation: AMO update policy (barrier cycles | net KB/episode) "
      "==\n%-6s %16s %16s %16s\n",
      "CPUs", "delayed", "eager", "block-update");
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::printf("%-6u", cpus[i]);
    for (std::size_t j = 0; j < 3; ++j) {
      const CellResult& c = r[i * 3 + j];
      std::printf(" %9.0f|%5.1fKB", c.primary,
                  static_cast<double>(c.traffic.bytes) / 1024.0 / episodes);
    }
    std::printf("\n");
  }
  std::printf(
      "\nexpected shape: delayed put is fastest with the least traffic; "
      "eager adds an update wave per arrival; block updates multiply "
      "bytes further.\n");
}

// ------------------------------------------------ table-shaped ablations
const TableSpec kMulticast{
    .name = "ablation_multicast", .legacy_name = "ablation_multicast",
    .description = "hardware multicast for AMO word-update waves",
    .title = "Ablation: hardware multicast for AMO updates",
    .cpus = {16, 64, 256}, .quick_cpus = {16, 32}, .episodes = 8,
    .variants = {{barrier(kAmo), {{"net.hardware_multicast", false}}},
                 {barrier(kAmo), {{"net.hardware_multicast", true}}}},
    .columns = {{"unicast(cyc)", {0}, 0, 14}, {"multicast(cyc)", {1}, 0, 14},
                {"gain", {0, 1}, 2, 10, true}},
    .footer = "\nexpected shape: gain grows with P (the serialized update "
              "injection is the AMO barrier's only O(P) term).\n"};

const TableSpec kHopLatency{
    .name = "ablation_hop_latency", .legacy_name = "ablation_hop_latency",
    .description = "AMO advantage as network hops slow down",
    .title = "Ablation: hop latency (P=%u central barriers)",
    .cpus = {64}, .episodes = 8, .knob = Knob::kHopCycles,
    .knobs = {25, 50, 100, 200, 400}, .key = "hop(cyc)", .key_width = 10,
    .variants = {{barrier(kLlSc)}, {barrier(kAmo)}},
    .columns = {{"LL/SC(cyc)", {0}, 0, 14}, {"AMO(cyc)", {1}, 0, 14},
                {"speedup", {0, 1}, 2, 10, true}},
    .footer = "\nexpected shape: AMO speedup grows with hop latency.\n"};

// Fanout == P degenerates to a central barrier through the tree code.
const TableSpec kTreeFanout{
    .name = "ablation_tree_fanout", .legacy_name = "ablation_tree_fanout",
    .description = "tree branching factor sweep per mechanism",
    .title = "Ablation: tree fanout (P=%u, cycles per barrier)",
    .cpus = {64}, .episodes = 8, .knob = Knob::kFanout, .key = "fanout",
    .key_width = 8,
    .variants = {{barrier(kLlSc, BarrierKind::kTree)},
                 {barrier(kAtomic, BarrierKind::kTree)},
                 {barrier(kAmo, BarrierKind::kTree)}},
    .columns = {{"LL/SC", {0}}, {"Atomic", {1}}, {"AMO", {2}}},
    .footer = "\nexpected shape: conventional mechanisms have a non-trivial "
              "optimum fanout; AMO is flat-to-worse with deeper trees (it "
              "does not need them).\n"};

const TableSpec kBackoff{
    .name = "ablation_backoff", .legacy_name = "ablation_backoff",
    .description = "proportional backoff for MAO ticket locks",
    .title = "Ablation: MAO ticket-lock backoff",
    .cpus = {8, 32, 128}, .iters = 6,
    .variants = {{{.kernel = Kernel::kTicketBackoff, .mech = kMao,
                   .backoff = sync::TicketBackoff::kNone}},
                 {{.kernel = Kernel::kTicketBackoff, .mech = kMao,
                   .backoff = sync::TicketBackoff::kProportional}}},
    .columns = {{"none(cyc)", {0}, 0, 16}, {"proportional(cyc)", {1}, 0, 16},
                {"gain", {0, 1}, 2, 10, true}},
    .footer = "\nexpected shape: backoff helps increasingly with P (less "
              "MC flooding), unlike on cache-coherent spinning where the "
              "paper notes it is largely moot.\n"};

// Variants in record order (protocol-major, mechanism-minor); the columns
// print LL/SC first.
const TableSpec kProtocol{
    .name = "ablation_protocol", .legacy_name = "ablation_protocol",
    .description = "home-centric 4-hop vs forwarding 3-hop directory",
    .title = "Ablation: 4-hop vs 3-hop protocol (central barriers)",
    .cpus = {16, 64, 256}, .quick_cpus = {16, 32}, .episodes = 8,
    .variants = {{barrier(kLlSc), {{"dir.three_hop", false}}},
                 {barrier(kAmo), {{"dir.three_hop", false}}},
                 {barrier(kLlSc), {{"dir.three_hop", true}}},
                 {barrier(kAmo), {{"dir.three_hop", true}}}},
    .columns = {{"LLSC/4hop", {0}}, {"LLSC/3hop", {2}}, {"AMO/4hop", {1}},
                {"AMO/3hop", {3}}, {"AMO spd 3h", {2, 3}, 2, 10, true}},
    .footer = "\nexpected shape: AMO numbers are insensitive to the protocol "
              "(AMOs rarely recall). For LL/SC, 3-hop cuts *isolated* "
              "migration latency (see ThreeHop.CutsOwnershipMigrationLatency),"
              " but under a hot-spot barrier our blocking fill-ack variant "
              "slightly lengthens per-transaction block occupancy, so "
              "throughput is a wash. Either way the paper's speedup story is "
              "unchanged — which is why the home-centric default is a safe "
              "substitution (DESIGN.md).\n"};

const TableSpec kBarrierStyles{
    .name = "ablation_barrier_styles",
    .legacy_name = "ablation_barrier_styles",
    .description = "naive/optimized/dissemination/mcs-tree codings",
    .title = "Ablation: barrier codings (cycles per episode)",
    .cpus = {16, 64}, .episodes = 8, .knob = Knob::kStyle,
    .knobs = knobs(BarrierStyle::kNaive, BarrierStyle::kOptimized,
                   BarrierStyle::kDissemination, BarrierStyle::kMcsTree),
    .per_p = true, .key = "style", .key_width = 10,
    .variants = {{{.kernel = Kernel::kBarrierStyle, .mech = kLlSc}},
                 {{.kernel = Kernel::kBarrierStyle, .mech = kAtomic}},
                 {{.kernel = Kernel::kBarrierStyle, .mech = kMao}},
                 {{.kernel = Kernel::kBarrierStyle, .mech = kAmo}}},
    .columns = {{"LL/SC", {0}}, {"Atomic", {1}}, {"MAO", {2}}, {"AMO", {3}}},
    .footer = "\nexpected shape: optimized beats naive for conventional "
              "mechanisms (the Fig. 3(b) trade); for AMO the two are within "
              "noise — the naive coding is already right.\n"};

// Lock algorithm rows by every mechanism, one sub-table per P.
const std::vector<Variant> kAlgoVariants = {
    {{.kernel = Kernel::kLockAlgo, .mech = kLlSc}},
    {{.kernel = Kernel::kLockAlgo, .mech = kAtomic}},
    {{.kernel = Kernel::kLockAlgo, .mech = kActMsg}},
    {{.kernel = Kernel::kLockAlgo, .mech = kMao}},
    {{.kernel = Kernel::kLockAlgo, .mech = kAmo}}};
const std::vector<Column> kAlgoColumns = {{"LL/SC", {0}}, {"Atomic", {1}},
                                          {"ActMsg", {2}}, {"MAO", {3}},
                                          {"AMO", {4}}};

const TableSpec kExtensionLocks{
    .name = "extension_locks", .legacy_name = "extension_locks",
    .description = "tas/ticket/array/mcs locks across every mechanism",
    .title = "Extension: lock algorithms x mechanisms (total cycles, lower "
             "is better)",
    .cpus = {8, 32, 128}, .iters = 5, .knob = Knob::kAlgo,
    .knobs = knobs(LockAlgo::kTas, LockAlgo::kTicket, LockAlgo::kArray,
                   LockAlgo::kMcs),
    .per_p = true, .key = "algo", .key_width = 8,
    .variants = kAlgoVariants, .columns = kAlgoColumns,
    .footer = "\nexpected shape: within a mechanism, mcs/array beat "
              "tas/ticket at scale; within an algorithm, AMO wins; AMO "
              "ticket rivals conventional MCS (the paper's simplicity "
              "argument).\n"};

// Queue locks with and without topology awareness: plain MCS vs the
// CNA-style subtree-first MCS vs the HMCS hierarchy of queues
// (thresholds from hier.*, defaults 64 and 8).
const TableSpec kHierLocks{
    .name = "ablation_hier_locks", .legacy_name = "ablation_hier_locks",
    .description = "mcs vs cna vs hmcs queue locks across every mechanism",
    .title = "Ablation: topology-aware queue locks (total cycles, lower is "
             "better)",
    .cpus = {32, 128}, .quick_cpus = {16}, .iters = 5, .knob = Knob::kAlgo,
    .knobs = knobs(LockAlgo::kMcs, LockAlgo::kCna, LockAlgo::kHmcs),
    .per_p = true, .key = "algo", .key_width = 8,
    .variants = kAlgoVariants, .columns = kAlgoColumns,
    .footer = "\nexpected shape: under multi-node contention cna/hmcs "
              "beat plain mcs (handoffs stay inside a cluster until the "
              "threshold), with the gap growing with node count; the "
              "bounded thresholds keep worst-case fairness.\n"};

// -------------------------------------------- ablation_dir_pointers
const std::array<std::uint32_t, 3> kPointerLimits = {0, 8, 1};

SweepSpec build_dir_pointers(const CliOptions& opt) {
  SweepSpec s{"ablation_dir_pointers", "ablation_dir_pointers", {}, {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {16, 64, 128});
  const int rounds = resolved_iters(opt, 10);
  s.meta["cpus"] = json_array(cpus);
  for (std::uint32_t p : cpus) {
    for (std::uint32_t limit : kPointerLimits) {
      Cell c = cell(
          p, {.kernel = Kernel::kPairwiseFlags, .mech = kAmo, .rounds = rounds});
      c.set.push_back({"dir.sharer_pointer_limit", sim::Json(limit)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_dir_pointers(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  check_cells(s.workload, cpus.size() * kPointerLimits.size(), r.size());
  std::printf("\n== Ablation: directory pointer capacity "
              "(pairwise AMO signalling, cycles | update msgs) ==\n");
  std::printf("%-6s %18s %18s %18s\n", "CPUs", "full", "8 pointers",
              "1 pointer");
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::printf("%-6u", cpus[i]);
    for (std::size_t j = 0; j < 3; ++j) {
      const CellResult& c = r[i * 3 + j];
      std::printf(" %11.0f|%5llu", c.primary,
                  static_cast<unsigned long long>(c.aux));
    }
    std::printf("\n");
  }
  std::printf(
      "\nexpected shape: with sparse sharing, a small pointer budget "
      "multiplies update-message counts (broadcast puts) and slows the "
      "run; a full bit-vector keeps puts at 1 message per signal. For "
      "fully-shared barrier variables the budget is irrelevant.\n");
}

// --------------------------------------------------- microbench_spin
// Spin-wait virtualization: an AMO central barrier among `active` cpus
// with every remaining cpu busy-waiting. One cell per active count: host
// events per episode track the active set, since parked waiters cost
// nothing until the flag they wait on flips.
SweepSpec build_microbench_spin(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {256}, {64});
  const std::uint32_t p = cpus.front();
  const int episodes = resolved_episodes(opt, 8);
  SweepSpec s{"microbench_spin", "microbench_spin", {}, {}, {}};
  std::vector<std::uint32_t> actives;
  for (std::uint32_t a = std::max(2u, p / 16); a < p; a *= 4) {
    actives.push_back(a);
  }
  actives.push_back(p);
  s.meta["cpus"] = json_array(std::vector{p});
  s.meta["actives"] = json_array(actives);
  for (std::uint32_t a : actives) {
    s.cells.push_back(cell(p, {.kernel = Kernel::kSpin, .mech = kAmo,
                               .episodes = episodes, .active = a}));
  }
  return s;
}

void print_microbench_spin(const SweepSpec& s,
                           std::span<const CellResult> r) {
  const auto actives = meta_uints(s, "actives");
  check_cells(s.workload, actives.size(), r.size());
  const auto cpus = meta_cpus(s);
  std::printf("\n== Microbench: spin-wait virtualization at P = %u "
              "(AMO central barrier + idle busy-waiters) ==\n",
              cpus.empty() ? 0u : cpus.front());
  std::printf("%-8s %12s %12s\n", "active", "events/ep", "cycles/ep");
  for (std::size_t i = 0; i < r.size(); ++i) {
    std::printf("%-8u %12.0f %12.0f\n", static_cast<std::uint32_t>(actives[i]),
                r[i].secondary, r[i].primary);
  }
  std::printf("\nexpected shape: events/episode track the active set "
              "(near-flat in total P): parked waiters cost no events until "
              "the flag flips.\n");
}

// --------------------------------------------------- microbench_hier
// Hierarchy-aware barriers: for each cpu count, the flat fixed-fanout
// AMO tree barrier (the PR-gate baseline) vs the cluster-hierarchical
// barrier with software fan-in and with AMU aggregation. The headline
// number is packets crossing the fat tree's ROOT links per episode —
// aggregation turns O(P) root-bound arrivals into O(clusters) combined
// fetch-adds.
const std::array<HierBarrier, 3> kHierVariants = {
    HierBarrier::kFlatTree, HierBarrier::kCluster, HierBarrier::kClusterAmu};

CellParams hier_params(HierBarrier variant, int episodes) {
  return {.kernel = Kernel::kHier, .mech = kAmo, .episodes = episodes,
          .hier = variant};
}

Cell hier_cell(std::uint32_t cpus, std::uint32_t levels, CellParams params) {
  Cell c = cell(cpus, params);
  if (params.hier != HierBarrier::kFlatTree) {
    c.set.push_back({"hier.levels", sim::Json(levels)});
  }
  return c;
}

SweepSpec build_microbench_hier(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {64, 256, 1024}, {64, 256});
  const int episodes = resolved_episodes(opt, 8);
  // Two physical tree levels of clustering: valid for every default cpu
  // count (64 cpus = 32 nodes is already height 2 at radix 8).
  const std::uint32_t levels = 2;
  SweepSpec s{"microbench_hier", "microbench_hier", {}, {}, {}};
  s.meta["cpus"] = json_array(cpus);
  s.meta["levels"] = levels;
  for (std::uint32_t p : cpus) {
    for (HierBarrier v : kHierVariants) {
      s.cells.push_back(hier_cell(p, levels, hier_params(v, episodes)));
    }
  }
  return s;
}

void print_microbench_hier(const SweepSpec& s,
                           std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  check_cells(s.workload, cpus.size() * kHierVariants.size(), r.size());
  std::printf("\n== Microbench: hierarchy-aware AMO barriers "
              "(cluster fan-in vs flat fanout-4 tree) ==\n");
  std::printf("%-8s %-12s %16s %14s %14s\n", "CPUs", "barrier",
              "cycles/episode", "rootmsg/ep", "root cut");
  std::size_t i = 0;
  for (std::uint32_t p : cpus) {
    double flat_root = 0;
    for (HierBarrier v : kHierVariants) {
      const CellResult& c = r[i++];
      if (v == HierBarrier::kFlatTree) flat_root = c.secondary;
      const double cut = c.secondary > 0 ? flat_root / c.secondary : 0.0;
      std::printf("%-8u %-12s %16.0f %14.1f %13.2fx\n", p, to_string(v),
                  c.primary, c.secondary, cut);
    }
  }
  std::printf("\nexpected shape: both cluster variants cut root-link "
              "messages; AMU aggregation cuts them to O(clusters) — at "
              "256+ CPUs >= 2x fewer than the flat tree, at lower "
              "cycles/episode (the CI gate).\n");
}

// ------------------------------------------------ ablation_hier_depth
// Topology shape x hierarchy depth: for each router radix, the flat AMO
// tree baseline and the aggregated cluster barrier at 1..3 folded
// levels. Skinny trees (radix 2) have many levels to fold; fat trees
// saturate early.
const std::array<std::uint32_t, 3> kHierRadixes = {2, 4, 8};
const std::array<std::uint32_t, 3> kHierDepths = {1, 2, 3};

/// Router levels of the fat tree derived for `nodes` leaves — the
/// validate() ceiling for hier.levels (kept in step with config_io).
std::uint32_t tree_height(std::uint32_t nodes, std::uint32_t radix) {
  std::uint32_t height = 0;
  for (std::uint32_t e = nodes; e > 1; e = (e + radix - 1) / radix) {
    ++height;
  }
  return height;
}

SweepSpec build_hier_depth(const CliOptions& opt) {
  SweepSpec s{"ablation_hier_depth", "ablation_hier_depth", {}, {}, {}};
  const std::uint32_t p = resolved_cpus(opt, {256}, {64}).front();
  const int episodes = resolved_episodes(opt, 4);
  s.meta["cpus"] = json_array(std::vector{p});
  for (std::uint32_t radix : kHierRadixes) {
    {
      Cell c = cell(p, hier_params(HierBarrier::kFlatTree, episodes));
      c.set.push_back({"net.radix", sim::Json(radix)});
      s.cells.push_back(std::move(c));
    }
    // A depth past the derived tree height is a config error, not a
    // deeper hierarchy; clamp so --quick (fewer nodes) stays valid.
    // Assumes the default cpus_per_node=2 (these cells never change it).
    const std::uint32_t height =
        std::max(1u, tree_height((p + 1) / 2, radix));
    for (std::uint32_t depth : kHierDepths) {
      Cell c = cell(p, hier_params(HierBarrier::kClusterAmu, episodes));
      c.set.push_back({"net.radix", sim::Json(radix)});
      c.set.push_back({"hier.levels", sim::Json(std::min(depth, height))});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_hier_depth(const SweepSpec& s, std::span<const CellResult> r) {
  const std::size_t cols = 1 + kHierDepths.size();
  check_cells(s.workload, kHierRadixes.size() * cols, r.size());
  const auto cpus = meta_cpus(s);
  std::printf("\n== Ablation: topology shape x hierarchy depth "
              "(P=%u AMO barriers, rootmsg/ep | cycles/ep) ==\n",
              cpus.empty() ? 0u : cpus.front());
  std::printf("%-8s %18s %18s %18s %18s\n", "radix", "flat tree",
              "agg depth 1", "agg depth 2", "agg depth 3");
  for (std::size_t i = 0; i < kHierRadixes.size(); ++i) {
    std::printf("%-8u", kHierRadixes[i]);
    for (std::size_t j = 0; j < cols; ++j) {
      const CellResult& c = r[i * cols + j];
      std::printf(" %9.1f|%7.0f", c.secondary, c.primary);
    }
    std::printf("\n");
  }
  std::printf("\nexpected shape: deeper folding keeps cutting root-link "
              "messages (each level combines one more tier of clusters); "
              "cycles are flat-to-better until the extra fan-in rounds "
              "outweigh the relieved root links. Depths past the tree "
              "height are clamped, so those columns repeat the deepest "
              "valid depth.\n");
}

// ----------------------------------------------- microbench_service
// The "millions of users" scenario: an open-loop sharded key-value
// service under Poisson arrivals, judged by tail latency. Each request
// takes its home shard's ticket lock, bumps the shard op counter
// through the swept mechanism, and round-trips the shard's AMO log
// queue; latency counts from the *scheduled* arrival, so backlog is
// charged to the tail. Sweeps offered load (mean interarrival cycles,
// descending = rising load) x mechanism. The headline is p999: LL/SC
// retry collapse sends it super-linear with load while AMO stays near
// its uncontended cost (the BENCH_service gate).
const std::array<Mechanism, 3> kServiceMechs = {
    Mechanism::kLlSc, Mechanism::kAtomic, Mechanism::kAmo};
// Mean interarrival cycles per cpu, descending = rising load. Tuned so
// at 16 cpus / 4 shards the lowest value sits past LL/SC's saturation
// point (its open-loop backlog grows without bound) but inside AMO's
// stable region (p999 within 2x of its low-load value — the CI gate).
const std::array<std::uint64_t, 3> kServiceLoads = {64000, 32000, 24000};

Cell service_cell(std::uint32_t cpus, Mechanism mech, std::uint64_t load,
                  std::uint64_t requests) {
  Cell c = cell(cpus, {.kernel = Kernel::kService, .mech = mech,
                       .requests = requests});
  c.set.push_back({"service.interarrival_cycles", sim::Json(load)});
  return c;
}

/// Per-cpu request count: the default 16-cpu cell serves 16 x 65536 =
/// 1,048,576 requests; --quick trims for CI identity checks.
std::uint64_t service_requests(const CliOptions& opt) {
  if (opt.iters > 0) return static_cast<std::uint64_t>(opt.iters);
  return opt.quick ? 1024 : 65536;
}

SweepSpec build_microbench_service(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {16}, {16});
  const std::uint64_t requests = service_requests(opt);
  SweepSpec s{"microbench_service", "microbench_service", {}, {}, {}};
  s.meta["cpus"] = json_array(cpus);
  s.meta["loads"] = json_array(kServiceLoads);
  for (std::uint32_t p : cpus) {
    for (std::uint64_t load : kServiceLoads) {
      for (Mechanism mech : kServiceMechs) {
        s.cells.push_back(service_cell(p, mech, load, requests));
      }
    }
  }
  return s;
}

void print_microbench_service(const SweepSpec& s,
                              std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  const auto loads = meta_uints(s, "loads");
  check_cells(s.workload, cpus.size() * loads.size() * kServiceMechs.size(),
              r.size());
  std::printf("\n== Microbench: open-loop sharded service "
              "(p999 request latency, cycles) ==\n");
  std::size_t i = 0;
  for (std::uint32_t p : cpus) {
    std::printf("\nP = %u\n%-14s", p, "interarrival");
    for (Mechanism m : kServiceMechs) {
      std::printf(" %12s", sync::to_string(m));
    }
    std::printf(" %12s\n", "LL/SC / AMO");
    for (std::uint64_t load : loads) {
      std::printf("%-14llu", static_cast<unsigned long long>(load));
      double llsc = 0;
      double amo = 0;
      for (Mechanism m : kServiceMechs) {
        const CellResult& c = r[i++];
        if (m == Mechanism::kLlSc) llsc = c.primary;
        if (m == Mechanism::kAmo) amo = c.primary;
        std::printf(" %12.0f", c.primary);
      }
      std::printf(" %11.2fx\n", amo > 0 ? llsc / amo : 0.0);
    }
  }
  std::printf("\nexpected shape: as interarrival shrinks (load rises), "
              "LL/SC p999 grows super-linearly (retry collapse under "
              "backlog) while AMO p999 stays within ~2x of its "
              "low-load value.\n");
}

// ------------------------------------------------ ablation_service_load
// Finer offered-load grid for the two extremes (LL/SC vs AMO): the
// saturation knee. Same kernel and sharding as microbench_service.
const std::array<Mechanism, 2> kServiceAblMechs = {Mechanism::kLlSc,
                                                   Mechanism::kAmo};
const std::array<std::uint64_t, 5> kServiceLoadGrid = {32000, 16000, 8000,
                                                       4000, 2000};

SweepSpec build_service_load(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {16}, {16});
  const std::uint64_t requests =
      opt.iters > 0 ? static_cast<std::uint64_t>(opt.iters)
                    : (opt.quick ? 512 : 16384);
  SweepSpec s{"ablation_service_load", "ablation_service_load", {}, {}, {}};
  s.meta["cpus"] = json_array(cpus);
  s.meta["loads"] = json_array(kServiceLoadGrid);
  for (std::uint32_t p : cpus) {
    for (std::uint64_t load : kServiceLoadGrid) {
      for (Mechanism mech : kServiceAblMechs) {
        s.cells.push_back(service_cell(p, mech, load, requests));
      }
    }
  }
  return s;
}

void print_service_load(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  const auto loads = meta_uints(s, "loads");
  check_cells(s.workload,
              cpus.size() * loads.size() * kServiceAblMechs.size(), r.size());
  std::printf("\n== Ablation: offered load vs mechanism "
              "(open-loop service tail latency) ==\n");
  std::size_t i = 0;
  for (std::uint32_t p : cpus) {
    std::printf("\nP = %u\n%-14s %12s %12s %12s %12s\n", p, "interarrival",
                "LL/SC p999", "AMO p999", "LL/SC mean", "AMO mean");
    for (std::uint64_t load : loads) {
      double p999[2] = {0, 0};
      double mean[2] = {0, 0};
      for (std::size_t k = 0; k < kServiceAblMechs.size(); ++k) {
        p999[k] = r[i].primary;
        mean[k] = r[i].secondary;
        ++i;
      }
      std::printf("%-14llu %12.0f %12.0f %12.0f %12.0f\n",
                  static_cast<unsigned long long>(load), p999[0], p999[1],
                  mean[0], mean[1]);
    }
  }
  std::printf("\nexpected shape: a saturation knee — below it the two "
              "mechanisms track each other; past it LL/SC's p999 "
              "diverges while AMO's stays flat.\n");
}

}  // namespace

void register_builtin_workloads(WorkloadRegistry& reg) {
  reg.add({"fig1", "fig1_message_count",
           "one-way message count for a 3-processor barrier (paper Fig. 1)",
           build_fig1, print_fig1});
  for (const TableSpec* t : {&kTable2, &kFig5, &kTable3, &kFig6, &kTable4,
                             &kFig7}) {
    reg.add(table_workload(*t));
  }
  reg.add({"ablation_amu_cache", "ablation_amu_cache",
           "AMU cache size vs concurrent AMO locks", build_amu_cache,
           print_amu_cache});
  reg.add({"ablation_update_policy", "ablation_update_policy",
           "delayed vs eager vs block-update put policies", build_update_policy,
           print_update_policy});
  for (const TableSpec* t : {&kMulticast, &kHopLatency, &kTreeFanout,
                             &kBackoff, &kProtocol}) {
    reg.add(table_workload(*t));
  }
  reg.add({"ablation_dir_pointers", "ablation_dir_pointers",
           "limited directory pointers under sparse sharing",
           build_dir_pointers, print_dir_pointers});
  reg.add(table_workload(kBarrierStyles));
  reg.add(table_workload(kExtensionLocks));
  reg.add({"microbench_spin", "microbench_spin",
           "spin-wait virtualization: events/episode vs active cpus",
           build_microbench_spin, print_microbench_spin});
  reg.add({"microbench_hier", "microbench_hier",
           "cluster-hierarchical barriers: root-link traffic vs flat tree",
           build_microbench_hier, print_microbench_hier});
  reg.add({"ablation_hier_depth", "ablation_hier_depth",
           "router radix x folded hierarchy depth for aggregated barriers",
           build_hier_depth, print_hier_depth});
  reg.add(table_workload(kHierLocks));
  reg.add({"microbench_service", "microbench_service",
           "open-loop sharded service: p999 latency vs offered load",
           build_microbench_service, print_microbench_service});
  reg.add({"ablation_service_load", "ablation_service_load",
           "offered-load grid for LL/SC vs AMO service tail latency",
           build_service_load, print_service_load});
}

}  // namespace amo::bench
