// The 24 built-in workloads (the 17 former bench binaries plus
// microbench_spin, microbench_pdes, microbench_hier, the two hierarchy
// ablations, and the open-loop service pair) as registry entries. Each
// entry is a
// builder (CLI options -> declarative SweepSpec) and a printer (cells ->
// the exact table the old binary printed). Paper reference values live in
// the printers' footers, where the old mains kept them.
#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>

#include "bench/registry.hpp"

namespace amo::bench {

namespace {

using sync::Mechanism;

// The tables' column order (ActMsg before Atomic, as in the paper).
const std::array<Mechanism, 5> kTableMechs = {
    Mechanism::kLlSc, Mechanism::kActMsg, Mechanism::kAtomic,
    Mechanism::kMao, Mechanism::kAmo};

sim::Json cpus_json(const std::vector<std::uint32_t>& cpus) {
  sim::Json a = sim::Json::array();
  for (std::uint32_t c : cpus) a.push_back(c);
  return a;
}

std::vector<std::uint32_t> meta_cpus(const SweepSpec& s) {
  std::vector<std::uint32_t> out;
  if (const sim::Json* a = s.meta.find("cpus"); a != nullptr) {
    for (const sim::Json& v : a->elements()) {
      out.push_back(static_cast<std::uint32_t>(v.as_uint()));
    }
  }
  return out;
}

Cell cell(std::uint32_t cpus, CellParams params) {
  Cell c;
  c.set.push_back({"num_cpus", sim::Json(cpus)});
  c.params = params;
  return c;
}

CellParams barrier_params(Mechanism m, int episodes,
                          BarrierKind kind = BarrierKind::kCentral,
                          std::uint32_t fanout = 4) {
  CellParams p;
  p.kernel = Kernel::kBarrier;
  p.mech = m;
  p.episodes = episodes;
  p.kind = kind;
  p.fanout = fanout;
  return p;
}

CellParams lock_params(Mechanism m, bool array, int iters) {
  CellParams p;
  p.kernel = Kernel::kLock;
  p.mech = m;
  p.array = array;
  p.iters = iters;
  return p;
}

std::vector<std::uint32_t> tree_fanouts(std::uint32_t p,
                                        bool inclusive = false) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t f = 2; inclusive ? f <= p : f < p; f *= 2) {
    out.push_back(f);
  }
  return out;
}

// ------------------------------------------------------------- fig1
SweepSpec build_fig1(const CliOptions& opt) {
  (void)opt;
  SweepSpec s{"fig1", "fig1_message_count", {}, {}, {}};
  for (Mechanism m : sync::kAllMechanisms) {
    Cell c;
    c.set = {{"num_cpus", sim::Json(4u)},
             {"cpus_per_node", sim::Json(1u)},   // one cpu per node
             {"barrier_sw_overhead", sim::Json(0)}};  // protocol msgs only
    c.params.kernel = Kernel::kFig1Episode;
    c.params.mech = m;
    s.cells.push_back(std::move(c));
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

// ---------------------------------------------------- table2 / fig5
SweepSpec build_central_sweep(const CliOptions& opt, const char* name,
                              const char* legacy) {
  SweepSpec s{name, legacy, {}, {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, paper_cpu_counts(4), {4, 8, 16, 32});
  const int episodes = resolved_episodes(opt);
  s.meta["cpus"] = cpus_json(cpus);
  for (std::uint32_t p : cpus) {
    for (Mechanism m : kTableMechs) {
      s.cells.push_back(cell(p, barrier_params(m, episodes)));
    }
  }
  return s;
}

SweepSpec build_table2(const CliOptions& opt) {
  return build_central_sweep(opt, "table2", "table2_barriers");
}

void print_table2(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  print_header("Table 2: barrier speedup over LL/SC", "CPUs",
               {"LLSC(cyc)", "ActMsg", "Atomic", "MAO", "AMO"});
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::vector<double> row{r[i * 5].primary};
    for (std::size_t j = 1; j < 5; ++j) {
      row.push_back(r[i * 5].primary / r[i * 5 + j].primary);
    }
    print_row(cpus[i], row);
  }
  std::printf(
      "\npaper:  4: 0.95/1.15/1.21/2.10   32: 2.38/1.36/4.20/15.14"
      "   256: 2.82/1.23/14.70/61.94\n");
}

SweepSpec build_fig5(const CliOptions& opt) {
  return build_central_sweep(opt, "fig5", "fig5_barrier_cycles");
}

void print_fig5(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  print_header("Figure 5: barrier cycles-per-processor", "CPUs",
               {"LL/SC", "ActMsg", "Atomic", "MAO", "AMO"});
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::vector<double> row;
    for (std::size_t j = 0; j < 5; ++j) row.push_back(r[i * 5 + j].secondary);
    print_row(cpus[i], row, 1);
  }
  std::printf(
      "\nexpected shape: LL/SC per-proc time rises with P (superlinear "
      "total); AMO per-proc time is flat and slightly decreasing.\n");
}

// ---------------------------------------------------- table3 / fig6
SweepSpec build_table3(const CliOptions& opt) {
  SweepSpec s{"table3", "table3_tree_barriers", {}, {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, paper_cpu_counts(16), {16, 32});
  const int episodes = resolved_episodes(opt);
  s.meta["cpus"] = cpus_json(cpus);
  // Per row (serial record order): the central LL/SC baseline, every
  // (mechanism, fanout) tree run, then central AMO for the last column.
  for (std::uint32_t p : cpus) {
    s.cells.push_back(cell(p, barrier_params(Mechanism::kLlSc, episodes)));
    for (Mechanism m : kTableMechs) {
      for (std::uint32_t f : tree_fanouts(p)) {
        s.cells.push_back(
            cell(p, barrier_params(m, episodes, BarrierKind::kTree, f)));
      }
    }
    s.cells.push_back(cell(p, barrier_params(Mechanism::kAmo, episodes)));
  }
  return s;
}

void print_table3(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  print_header(
      "Table 3: tree barrier speedup over central LL/SC (best fanout)",
      "CPUs",
      {"LLSC+tree", "ActMsg+tree", "Atomic+tree", "MAO+tree", "AMO+tree",
       "AMO"});
  std::size_t idx = 0;
  for (std::uint32_t p : cpus) {
    const double base = r[idx++].primary;
    std::vector<double> row;
    const std::size_t fanouts = tree_fanouts(p).size();
    for (std::size_t j = 0; j < 5; ++j) {
      double best = std::numeric_limits<double>::max();
      for (std::size_t k = 0; k < fanouts; ++k) {
        best = std::min(best, r[idx++].primary);
      }
      row.push_back(base / best);
    }
    row.push_back(base / r[idx++].primary);
    print_row(p, row);
  }
  std::printf(
      "\npaper: 16: 1.70/2.41/2.25/2.60/2.59/9.11"
      "   256: 8.38/14.72/11.22/20.37/22.62/61.94\n");
}

SweepSpec build_fig6(const CliOptions& opt) {
  SweepSpec s{"fig6", "fig6_tree_cycles", {}, {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, paper_cpu_counts(16), {16, 32});
  const int episodes = resolved_episodes(opt);
  s.meta["cpus"] = cpus_json(cpus);
  for (std::uint32_t p : cpus) {
    for (Mechanism m : kTableMechs) {
      for (std::uint32_t f : tree_fanouts(p)) {
        s.cells.push_back(
            cell(p, barrier_params(m, episodes, BarrierKind::kTree, f)));
      }
    }
  }
  return s;
}

void print_fig6(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  print_header(
      "Figure 6: tree barrier cycles-per-processor (best fanout)", "CPUs",
      {"LLSC+tree", "ActMsg+tree", "Atomic+tree", "MAO+tree", "AMO+tree"});
  std::size_t idx = 0;
  for (std::uint32_t p : cpus) {
    std::vector<double> row;
    const std::size_t fanouts = tree_fanouts(p).size();
    for (std::size_t j = 0; j < 5; ++j) {
      double best = std::numeric_limits<double>::max();
      for (std::size_t k = 0; k < fanouts; ++k) {
        best = std::min(best, r[idx++].secondary);
      }
      row.push_back(best);
    }
    print_row(p, row, 1);
  }
  std::printf(
      "\nexpected shape: per-processor time decreases with P for all "
      "tree barriers (overhead amortized over more branches).\n");
}

// ----------------------------------------------------- table4 / fig7
// Variants in the serial run/record order: the LL/SC ticket baseline,
// then (mechanism, ticket/array) skipping the baseline combination.
std::vector<std::pair<Mechanism, bool>> table4_variants() {
  std::vector<std::pair<Mechanism, bool>> variants;
  variants.emplace_back(Mechanism::kLlSc, false);
  for (Mechanism m : kTableMechs) {
    for (bool array : {false, true}) {
      if (m == Mechanism::kLlSc && !array) continue;
      variants.emplace_back(m, array);
    }
  }
  return variants;
}

SweepSpec build_table4(const CliOptions& opt) {
  SweepSpec s{"table4", "table4_locks", {}, {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, paper_cpu_counts(4), {4, 8, 16});
  const int iters = resolved_iters(opt);
  s.meta["cpus"] = cpus_json(cpus);
  for (std::uint32_t p : cpus) {
    for (const auto& [m, array] : table4_variants()) {
      s.cells.push_back(cell(p, lock_params(m, array, iters)));
    }
  }
  return s;
}

void print_table4(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  const std::size_t nv = table4_variants().size();
  print_header(
      "Table 4: lock speedups over the LL/SC ticket lock", "CPUs",
      {"LLSC(cyc)", "LLSC.t", "LLSC.a", "ActMsg.t", "ActMsg.a", "Atomic.t",
       "Atomic.a", "MAO.t", "MAO.a", "AMO.t", "AMO.a"});
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const double base = r[i * nv].primary;
    std::vector<double> row{base, 1.0};  // base cycles, LLSC.t speedup
    for (std::size_t j = 1; j < nv; ++j) {
      row.push_back(base / r[i * nv + j].primary);
    }
    print_row(cpus[i], row);
  }
  std::printf(
      "\npaper: 4: AMO 1.95/1.31   64: LLSC.a 1.42, AMO 4.90/5.45"
      "   256: AMO 10.36/10.05\n");
}

SweepSpec build_fig7(const CliOptions& opt) {
  SweepSpec s{"fig7", "fig7_lock_traffic", {}, {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, {128, 256}, {32});
  const int iters = resolved_iters(opt);
  s.meta["cpus"] = cpus_json(cpus);
  // Slot 0 is a dedicated LL/SC baseline run (as in the serial version),
  // then one run per plotted mechanism.
  for (std::uint32_t p : cpus) {
    s.cells.push_back(cell(p, lock_params(Mechanism::kLlSc, false, iters)));
    for (Mechanism m : kTableMechs) {
      s.cells.push_back(cell(p, lock_params(m, false, iters)));
    }
  }
  return s;
}

void print_fig7(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  print_header(
      "Figure 7: ticket-lock network traffic (bytes, normalized to LL/SC)",
      "CPUs", {"LL/SC", "ActMsg", "Atomic", "MAO", "AMO"});
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const double base = static_cast<double>(r[i * 6].traffic.bytes);
    std::vector<double> row;
    for (std::size_t j = 1; j < 6; ++j) {
      row.push_back(static_cast<double>(r[i * 6 + j].traffic.bytes) / base);
    }
    print_row(cpus[i], row);
  }
  std::printf(
      "\nexpected shape: AMO lowest by far; ActMsg highest (timeout "
      "retransmissions under contention).\n");
}

// ------------------------------------------------ ablation_amu_cache
const std::array<std::uint32_t, 5> kLockCounts = {1, 2, 4, 8, 16};
const std::array<std::uint32_t, 5> kCacheWords = {2, 4, 8, 16, 32};

SweepSpec build_amu_cache(const CliOptions& opt) {
  SweepSpec s{"ablation_amu_cache", "ablation_amu_cache", {}, {}, {}};
  const std::uint32_t p = resolved_cpus(opt, {32}).front();
  const int iters = resolved_iters(opt);
  s.meta["cpus"] = cpus_json({p});
  for (std::uint32_t nlocks : kLockCounts) {
    for (std::uint32_t words : kCacheWords) {
      Cell c = cell(p, {});
      c.set.push_back({"amu.cache_words", sim::Json(words)});
      c.params.kernel = Kernel::kMultiLock;
      c.params.mech = Mechanism::kAmo;
      c.params.locks = nlocks;
      c.params.iters = iters;
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_amu_cache(const SweepSpec& s, std::span<const CellResult> r) {
  std::printf("\n== Ablation: AMU cache size (P=%u, AMO ticket locks) ==\n",
              meta_cpus(s).front());
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
  s.meta["cpus"] = cpus_json(cpus);
  s.meta["episodes"] = episodes;
  for (std::uint32_t p : cpus) {
    for (int policy = 0; policy < 3; ++policy) {
      Cell c = cell(p, barrier_params(Mechanism::kAmo, episodes));
      c.set.push_back({"amu.eager_put_all", sim::Json(policy >= 1)});
      c.set.push_back({"dir.put_block_granularity", sim::Json(policy == 2)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_update_policy(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
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

// ----------------------------------------------- ablation_multicast
SweepSpec build_multicast(const CliOptions& opt) {
  SweepSpec s{"ablation_multicast", "ablation_multicast", {}, {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, {16, 64, 256}, {16, 32});
  const int episodes = resolved_episodes(opt);
  s.meta["cpus"] = cpus_json(cpus);
  for (std::uint32_t p : cpus) {
    for (int mc = 0; mc < 2; ++mc) {
      Cell c = cell(p, barrier_params(Mechanism::kAmo, episodes));
      c.set.push_back({"net.hardware_multicast", sim::Json(mc == 1)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_multicast(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  std::printf("\n== Ablation: hardware multicast for AMO updates ==\n");
  std::printf("%-6s %14s %14s %10s\n", "CPUs", "unicast(cyc)",
              "multicast(cyc)", "gain");
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::printf("%-6u %14.0f %14.0f %9.2fx\n", cpus[i], r[i * 2].primary,
                r[i * 2 + 1].primary, r[i * 2].primary / r[i * 2 + 1].primary);
  }
  std::printf("\nexpected shape: gain grows with P (the serialized update "
              "injection is the AMO barrier's only O(P) term).\n");
}

// --------------------------------------------- ablation_hop_latency
const std::array<sim::Cycle, 5> kHops = {25, 50, 100, 200, 400};

SweepSpec build_hop_latency(const CliOptions& opt) {
  SweepSpec s{"ablation_hop_latency", "ablation_hop_latency", {}, {}, {}};
  const std::uint32_t p = resolved_cpus(opt, {64}).front();
  const int episodes = resolved_episodes(opt);
  s.meta["cpus"] = cpus_json({p});
  for (sim::Cycle hop : kHops) {
    for (Mechanism m : {Mechanism::kLlSc, Mechanism::kAmo}) {
      Cell c = cell(p, barrier_params(m, episodes));
      c.set.push_back({"net.hop_cycles", sim::Json(hop)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_hop_latency(const SweepSpec& s, std::span<const CellResult> r) {
  std::printf("\n== Ablation: hop latency (P=%u central barriers) ==\n",
              meta_cpus(s).front());
  std::printf("%-10s %14s %14s %10s\n", "hop(cyc)", "LL/SC(cyc)", "AMO(cyc)",
              "speedup");
  for (std::size_t i = 0; i < kHops.size(); ++i) {
    const double base = r[i * 2].primary;
    const double amo = r[i * 2 + 1].primary;
    std::printf("%-10llu %14.0f %14.0f %9.2fx\n",
                static_cast<unsigned long long>(kHops[i]), base, amo,
                base / amo);
  }
  std::printf("\nexpected shape: AMO speedup grows with hop latency.\n");
}

// --------------------------------------------- ablation_tree_fanout
SweepSpec build_tree_fanout(const CliOptions& opt) {
  SweepSpec s{"ablation_tree_fanout", "ablation_tree_fanout", {}, {}, {}};
  const std::uint32_t p = resolved_cpus(opt, {64}).front();
  const int episodes = resolved_episodes(opt);
  s.meta["cpus"] = cpus_json({p});
  // fanout == p degenerates to a central barrier through the tree code.
  for (std::uint32_t f : tree_fanouts(p, /*inclusive=*/true)) {
    for (Mechanism m :
         {Mechanism::kLlSc, Mechanism::kAtomic, Mechanism::kAmo}) {
      s.cells.push_back(
          cell(p, barrier_params(m, episodes, BarrierKind::kTree, f)));
    }
  }
  return s;
}

void print_tree_fanout(const SweepSpec& s, std::span<const CellResult> r) {
  const std::uint32_t p = meta_cpus(s).front();
  std::printf("\n== Ablation: tree fanout (P=%u, cycles per barrier) ==\n",
              p);
  std::printf("%-8s %12s %12s %12s\n", "fanout", "LL/SC", "Atomic", "AMO");
  const auto fanouts = tree_fanouts(p, /*inclusive=*/true);
  for (std::size_t i = 0; i < fanouts.size(); ++i) {
    std::printf("%-8u", fanouts[i]);
    for (std::size_t j = 0; j < 3; ++j) {
      std::printf(" %12.0f", r[i * 3 + j].primary);
    }
    std::printf("\n");
  }
  std::printf(
      "\nexpected shape: conventional mechanisms have a non-trivial "
      "optimum fanout; AMO is flat-to-worse with deeper trees (it does "
      "not need them).\n");
}

// ------------------------------------------------- ablation_backoff
SweepSpec build_backoff(const CliOptions& opt) {
  SweepSpec s{"ablation_backoff", "ablation_backoff", {}, {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {8, 32, 128});
  const int iters = resolved_iters(opt);
  s.meta["cpus"] = cpus_json(cpus);
  for (std::uint32_t p : cpus) {
    for (sync::TicketBackoff b :
         {sync::TicketBackoff::kNone, sync::TicketBackoff::kProportional}) {
      Cell c = cell(p, {});
      c.params.kernel = Kernel::kTicketBackoff;
      c.params.mech = Mechanism::kMao;
      c.params.backoff = b;
      c.params.iters = iters;
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_backoff(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  std::printf("\n== Ablation: MAO ticket-lock backoff ==\n");
  std::printf("%-6s %16s %16s %10s\n", "CPUs", "none(cyc)",
              "proportional(cyc)", "gain");
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::printf("%-6u %16.0f %16.0f %9.2fx\n", cpus[i], r[i * 2].primary,
                r[i * 2 + 1].primary, r[i * 2].primary / r[i * 2 + 1].primary);
  }
  std::printf("\nexpected shape: backoff helps increasingly with P (less "
              "MC flooding), unlike on cache-coherent spinning where the "
              "paper notes it is largely moot.\n");
}

// ------------------------------------------------ ablation_protocol
SweepSpec build_protocol(const CliOptions& opt) {
  SweepSpec s{"ablation_protocol", "ablation_protocol", {}, {}, {}};
  const std::vector<std::uint32_t> cpus =
      resolved_cpus(opt, {16, 64, 256}, {16, 32});
  const int episodes = resolved_episodes(opt);
  s.meta["cpus"] = cpus_json(cpus);
  // Per row: {llsc/4hop, amo/4hop, llsc/3hop, amo/3hop} in serial JSON
  // record order (mode-major, mechanism-minor).
  for (std::uint32_t p : cpus) {
    for (int mode = 0; mode < 2; ++mode) {
      for (Mechanism m : {Mechanism::kLlSc, Mechanism::kAmo}) {
        Cell c = cell(p, barrier_params(m, episodes));
        c.set.push_back({"dir.three_hop", sim::Json(mode == 1)});
        s.cells.push_back(std::move(c));
      }
    }
  }
  return s;
}

void print_protocol(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  std::printf("\n== Ablation: 4-hop vs 3-hop protocol (central barriers) ==\n");
  std::printf("%-6s %12s %12s %12s %12s %10s\n", "CPUs", "LLSC/4hop",
              "LLSC/3hop", "AMO/4hop", "AMO/3hop", "AMO spd 3h");
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const double llsc4 = r[i * 4].primary;
    const double amo4 = r[i * 4 + 1].primary;
    const double llsc3 = r[i * 4 + 2].primary;
    const double amo3 = r[i * 4 + 3].primary;
    std::printf("%-6u %12.0f %12.0f %12.0f %12.0f %9.2fx\n", cpus[i], llsc4,
                llsc3, amo4, amo3, llsc3 / amo3);
  }
  std::printf(
      "\nexpected shape: AMO numbers are insensitive to the protocol "
      "(AMOs rarely recall). For LL/SC, 3-hop cuts *isolated* migration "
      "latency (see ThreeHop.CutsOwnershipMigrationLatency), but under a "
      "hot-spot barrier our blocking fill-ack variant slightly lengthens "
      "per-transaction block occupancy, so throughput is a wash. Either "
      "way the paper's speedup story is unchanged — which is why the "
      "home-centric default is a safe substitution (DESIGN.md).\n");
}

// -------------------------------------------- ablation_dir_pointers
const std::array<std::uint32_t, 3> kPointerLimits = {0, 8, 1};

SweepSpec build_dir_pointers(const CliOptions& opt) {
  SweepSpec s{"ablation_dir_pointers", "ablation_dir_pointers", {}, {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {16, 64, 128});
  const int rounds = resolved_iters(opt, 10);
  s.meta["cpus"] = cpus_json(cpus);
  for (std::uint32_t p : cpus) {
    for (std::uint32_t limit : kPointerLimits) {
      Cell c = cell(p, {});
      c.set.push_back({"dir.sharer_pointer_limit", sim::Json(limit)});
      c.params.kernel = Kernel::kPairwiseFlags;
      c.params.mech = Mechanism::kAmo;
      c.params.rounds = rounds;
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_dir_pointers(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
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

// ----------------------------------------- ablation_barrier_styles
const std::array<BarrierStyle, 4> kStyles = {
    BarrierStyle::kNaive, BarrierStyle::kOptimized,
    BarrierStyle::kDissemination, BarrierStyle::kMcsTree};
const std::array<Mechanism, 4> kStyleMechs = {
    Mechanism::kLlSc, Mechanism::kAtomic, Mechanism::kMao, Mechanism::kAmo};

SweepSpec build_barrier_styles(const CliOptions& opt) {
  SweepSpec s{"ablation_barrier_styles", "ablation_barrier_styles",
              {}, {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {16, 64});
  const int episodes = resolved_episodes(opt);
  s.meta["cpus"] = cpus_json(cpus);
  for (std::uint32_t p : cpus) {
    for (BarrierStyle style : kStyles) {
      for (Mechanism m : kStyleMechs) {
        Cell c = cell(p, {});
        c.params.kernel = Kernel::kBarrierStyle;
        c.params.mech = m;
        c.params.style = style;
        c.params.episodes = episodes;
        s.cells.push_back(std::move(c));
      }
    }
  }
  return s;
}

void print_barrier_styles(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  const std::array<const char*, 4> styles = {"naive", "optimized", "dissem",
                                             "mcs-tree"};
  std::printf("\n== Ablation: barrier codings (cycles per episode) ==\n");
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::printf("\nP = %u\n%-10s %12s %12s %12s %12s\n", cpus[i], "style",
                "LL/SC", "Atomic", "MAO", "AMO");
    for (std::size_t st = 0; st < styles.size(); ++st) {
      std::printf("%-10s", styles[st]);
      for (std::size_t j = 0; j < 4; ++j) {
        std::printf(" %12.0f", r[(i * 4 + st) * 4 + j].primary);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nexpected shape: optimized beats naive for conventional "
      "mechanisms (the Fig. 3(b) trade); for AMO the two are within "
      "noise — the naive coding is already right.\n");
}

// -------------------------------------------------- extension_locks
const std::array<LockAlgo, 4> kAlgos = {LockAlgo::kTas, LockAlgo::kTicket,
                                        LockAlgo::kArray, LockAlgo::kMcs};

SweepSpec build_extension_locks(const CliOptions& opt) {
  SweepSpec s{"extension_locks", "extension_locks", {}, {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {8, 32, 128});
  const int iters = resolved_iters(opt, 5);
  s.meta["cpus"] = cpus_json(cpus);
  for (std::uint32_t p : cpus) {
    for (LockAlgo algo : kAlgos) {
      for (Mechanism m : sync::kAllMechanisms) {
        Cell c = cell(p, {});
        c.params.kernel = Kernel::kLockAlgo;
        c.params.mech = m;
        c.params.algo = algo;
        c.params.iters = iters;
        s.cells.push_back(std::move(c));
      }
    }
  }
  return s;
}

void print_extension_locks(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  constexpr std::size_t kMechs = std::size(sync::kAllMechanisms);
  std::printf("\n== Extension: lock algorithms x mechanisms "
              "(total cycles, lower is better) ==\n");
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::printf("\nP = %u\n%-8s", cpus[i], "algo");
    for (Mechanism m : sync::kAllMechanisms) {
      std::printf(" %12s", sync::to_string(m));
    }
    std::printf("\n");
    for (std::size_t k = 0; k < kAlgos.size(); ++k) {
      std::printf("%-8s", to_string(kAlgos[k]));
      for (std::size_t j = 0; j < kMechs; ++j) {
        std::printf(" %12.0f", r[(i * kAlgos.size() + k) * kMechs + j].primary);
      }
      std::printf("\n");
    }
  }
  std::printf("\nexpected shape: within a mechanism, mcs/array beat "
              "tas/ticket at scale; within an algorithm, AMO wins; AMO "
              "ticket rivals conventional MCS (the paper's simplicity "
              "argument).\n");
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
  sim::Json ja = sim::Json::array();
  for (std::uint32_t a : actives) ja.push_back(a);
  s.meta["cpus"] = cpus_json({p});
  s.meta["actives"] = std::move(ja);
  for (std::uint32_t a : actives) {
    Cell c = cell(p, {});
    c.params.kernel = Kernel::kSpin;
    c.params.mech = Mechanism::kAmo;
    c.params.episodes = episodes;
    c.params.active = a;
    s.cells.push_back(std::move(c));
  }
  return s;
}

void print_microbench_spin(const SweepSpec& s,
                           std::span<const CellResult> r) {
  std::uint32_t p = 0;
  if (const sim::Json* a = s.meta.find("cpus"); a != nullptr) {
    p = static_cast<std::uint32_t>(a->elements().front().as_uint());
  }
  std::printf("\n== Microbench: spin-wait virtualization at P = %u "
              "(AMO central barrier + idle busy-waiters) ==\n", p);
  std::printf("%-8s %12s %12s\n", "active", "events/ep", "cycles/ep");
  for (std::size_t i = 0; i < r.size(); ++i) {
    std::uint32_t a = 0;
    if (const sim::Json* ja = s.meta.find("actives"); ja != nullptr) {
      a = static_cast<std::uint32_t>(ja->elements()[i].as_uint());
    }
    std::printf("%-8u %12.0f %12.0f\n", a, r[i].secondary, r[i].primary);
  }
  std::printf("\nexpected shape: events/episode track the active set "
              "(near-flat in total P): parked waiters cost no events until "
              "the flag flips.\n");
}

// --------------------------------------------------- microbench_pdes
// Host-parallel scaling: the same tree-barrier episode workload run at
// sim_threads (PDES domains) K = 1, 2, 4 for each cpu count. Simulated
// cycles are deterministic per K; wall-clock and events/s are host
// measurements, reported for the BENCH_pdes artifact. K = 1 is the
// serial engine; each K > 1 is its own deterministic mode, so cycles may
// differ across columns (see DESIGN.md §10) but never across reruns.
SweepSpec build_microbench_pdes(const CliOptions& opt) {
  const auto cpus = resolved_cpus(opt, {64, 256}, {64});
  const int episodes = resolved_episodes(opt, 8);
  SweepSpec s{"microbench_pdes", "microbench_pdes", {}, {}, {}};
  // --sim-threads pins the sweep to that single domain count (the CI
  // 4096-CPU smoke runs one K per invocation to stay inside its budget).
  std::vector<std::uint32_t> threads = {1, 2, 4};
  if (opt.sim_threads != 0) threads = {opt.sim_threads};
  sim::Json jt = sim::Json::array();
  for (std::uint32_t k : threads) jt.push_back(k);
  s.meta["cpus"] = cpus_json(cpus);
  s.meta["sim_threads"] = std::move(jt);
  for (std::uint32_t p : cpus) {
    for (std::uint32_t k : threads) {
      Cell c = cell(p, {});
      c.params.kernel = Kernel::kPdes;
      c.params.mech = Mechanism::kAmo;
      c.params.kind = BarrierKind::kTree;
      c.params.episodes = episodes;
      c.set.push_back({"sim_threads", sim::Json(k)});
      s.cells.push_back(std::move(c));
    }
  }
  return s;
}

void print_microbench_pdes(const SweepSpec& s,
                           std::span<const CellResult> r) {
  std::printf("\n== Microbench: conservative PDES host scaling "
              "(AMO tree barrier) ==\n");
  std::printf("%-8s %-6s %16s %14s %12s %10s\n", "CPUs", "K",
              "cycles/episode", "host events", "wall ms", "speedup");
  const auto cpus = meta_cpus(s);
  // The sim_threads axis comes from the spec, not a hardcoded list, so a
  // --sim-threads-pinned run prints exactly the cells it ran.
  std::vector<std::uint32_t> threads;
  if (const sim::Json* jt = s.meta.find("sim_threads"); jt != nullptr) {
    for (const sim::Json& v : jt->elements()) {
      threads.push_back(static_cast<std::uint32_t>(v.as_uint()));
    }
  } else {
    threads = {1, 2, 4};
  }
  std::size_t i = 0;
  for (std::uint32_t p : cpus) {
    double wall_first = 0;
    for (std::uint32_t k : threads) {
      if (i >= r.size()) return;
      const CellResult& c = r[i++];
      if (k == threads.front()) wall_first = c.secondary;
      const double speedup =
          c.secondary > 0 ? wall_first / c.secondary : 0.0;
      std::printf("%-8u %-6u %16.0f %14llu %12.1f %9.2fx\n", p, k,
                  c.primary, static_cast<unsigned long long>(c.aux),
                  c.secondary, speedup);
    }
  }
  std::printf("\nexpected shape: cycles/episode stable within a column "
              "across reruns (deterministic per K); wall-clock speedup "
              "approaches the domain count on a host with that many "
              "cores.\n");
}

// --------------------------------------------------- microbench_hier
// Hierarchy-aware barriers: for each cpu count, the flat fixed-fanout
// AMO tree barrier (the PR-gate baseline) vs the cluster-hierarchical
// barrier with software fan-in and with AMU aggregation. The headline
// number is packets crossing the fat tree's ROOT links per episode —
// aggregation turns O(P) root-bound arrivals into O(clusters) combined
// fetch-adds. The largest cpu count also runs the aggregated variant at
// sim_threads = 2 and 4 for the BENCH_hier scaling curve (skipped when
// --sim-threads already pins the whole sweep to one K).
const std::array<HierBarrier, 3> kHierVariants = {
    HierBarrier::kFlatTree, HierBarrier::kCluster, HierBarrier::kClusterAmu};

CellParams hier_params(HierBarrier variant, int episodes) {
  CellParams p;
  p.kernel = Kernel::kHier;
  p.mech = Mechanism::kAmo;
  p.hier = variant;
  p.episodes = episodes;
  return p;
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
  s.meta["cpus"] = cpus_json(cpus);
  s.meta["levels"] = levels;
  std::vector<std::uint32_t> scale_ks;
  if (opt.sim_threads == 0) scale_ks = {2, 4};
  sim::Json jk = sim::Json::array();
  for (std::uint32_t k : scale_ks) jk.push_back(k);
  s.meta["scale_ks"] = std::move(jk);
  for (std::uint32_t p : cpus) {
    for (HierBarrier v : kHierVariants) {
      s.cells.push_back(hier_cell(p, levels, hier_params(v, episodes)));
    }
  }
  for (std::uint32_t k : scale_ks) {
    Cell c = hier_cell(cpus.back(), levels,
                       hier_params(HierBarrier::kClusterAmu, episodes));
    c.set.push_back({"sim_threads", sim::Json(k)});
    s.cells.push_back(std::move(c));
  }
  return s;
}

void print_microbench_hier(const SweepSpec& s,
                           std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  std::printf("\n== Microbench: hierarchy-aware AMO barriers "
              "(cluster fan-in vs flat fanout-4 tree) ==\n");
  std::printf("%-8s %-12s %16s %14s %14s\n", "CPUs", "barrier",
              "cycles/episode", "rootmsg/ep", "root cut");
  std::size_t i = 0;
  for (std::uint32_t p : cpus) {
    double flat_root = 0;
    for (HierBarrier v : kHierVariants) {
      if (i >= r.size()) return;
      const CellResult& c = r[i++];
      if (v == HierBarrier::kFlatTree) flat_root = c.secondary;
      const double cut = c.secondary > 0 ? flat_root / c.secondary : 0.0;
      std::printf("%-8u %-12s %16.0f %14.1f %13.2fx\n", p, to_string(v),
                  c.primary, c.secondary, cut);
    }
  }
  if (const sim::Json* jk = s.meta.find("scale_ks");
      jk != nullptr && jk->size() > 0) {
    std::printf("\ncluster_amu host scaling at P = %u:\n", cpus.back());
    for (const sim::Json& v : jk->elements()) {
      if (i >= r.size()) return;
      const CellResult& c = r[i++];
      std::printf("  K=%llu: %16.0f cycles/episode\n",
                  static_cast<unsigned long long>(v.as_uint()), c.primary);
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
  s.meta["cpus"] = cpus_json({p});
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
  std::printf("\n== Ablation: topology shape x hierarchy depth "
              "(P=%u AMO barriers, rootmsg/ep | cycles/ep) ==\n",
              meta_cpus(s).front());
  std::printf("%-8s %18s %18s %18s %18s\n", "radix", "flat tree",
              "agg depth 1", "agg depth 2", "agg depth 3");
  const std::size_t cols = 1 + kHierDepths.size();
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

// ------------------------------------------------ ablation_hier_locks
// Queue locks with and without topology awareness, across mechanisms:
// plain MCS vs the CNA-style subtree-first MCS vs the HMCS hierarchy of
// queues (thresholds from hier.*, defaults 64 and 8).
const std::array<LockAlgo, 3> kHierLockAlgos = {LockAlgo::kMcs,
                                                LockAlgo::kCna,
                                                LockAlgo::kHmcs};

SweepSpec build_hier_locks(const CliOptions& opt) {
  SweepSpec s{"ablation_hier_locks", "ablation_hier_locks", {}, {}, {}};
  const std::vector<std::uint32_t> cpus = resolved_cpus(opt, {32, 128}, {16});
  const int iters = resolved_iters(opt, 5);
  s.meta["cpus"] = cpus_json(cpus);
  for (std::uint32_t p : cpus) {
    for (LockAlgo algo : kHierLockAlgos) {
      for (Mechanism m : sync::kAllMechanisms) {
        Cell c = cell(p, {});
        c.params.kernel = Kernel::kLockAlgo;
        c.params.mech = m;
        c.params.algo = algo;
        c.params.iters = iters;
        s.cells.push_back(std::move(c));
      }
    }
  }
  return s;
}

void print_hier_locks(const SweepSpec& s, std::span<const CellResult> r) {
  const auto cpus = meta_cpus(s);
  constexpr std::size_t kMechs = std::size(sync::kAllMechanisms);
  std::printf("\n== Ablation: topology-aware queue locks "
              "(total cycles, lower is better) ==\n");
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::printf("\nP = %u\n%-8s", cpus[i], "algo");
    for (Mechanism m : sync::kAllMechanisms) {
      std::printf(" %12s", sync::to_string(m));
    }
    std::printf("\n");
    for (std::size_t k = 0; k < kHierLockAlgos.size(); ++k) {
      std::printf("%-8s", to_string(kHierLockAlgos[k]));
      for (std::size_t j = 0; j < kMechs; ++j) {
        std::printf(" %12.0f",
                    r[(i * kHierLockAlgos.size() + k) * kMechs + j].primary);
      }
      std::printf("\n");
    }
  }
  std::printf("\nexpected shape: under multi-node contention cna/hmcs "
              "beat plain mcs (handoffs stay inside a cluster until the "
              "threshold), with the gap growing with node count; the "
              "bounded thresholds keep worst-case fairness.\n");
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
  Cell c = cell(cpus, {});
  c.params.kernel = Kernel::kService;
  c.params.mech = mech;
  c.params.requests = requests;
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
  s.meta["cpus"] = cpus_json(cpus);
  sim::Json jl = sim::Json::array();
  for (std::uint64_t l : kServiceLoads) jl.push_back(l);
  s.meta["loads"] = std::move(jl);
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
  std::printf("\n== Microbench: open-loop sharded service "
              "(p999 request latency, cycles) ==\n");
  std::size_t i = 0;
  for (std::uint32_t p : cpus) {
    std::printf("\nP = %u\n%-14s", p, "interarrival");
    for (Mechanism m : kServiceMechs) {
      std::printf(" %12s", sync::to_string(m));
    }
    std::printf(" %12s\n", "LL/SC / AMO");
    if (const sim::Json* jl = s.meta.find("loads"); jl != nullptr) {
      for (const sim::Json& v : jl->elements()) {
        std::printf("%-14llu",
                    static_cast<unsigned long long>(v.as_uint()));
        double llsc = 0;
        double amo = 0;
        for (Mechanism m : kServiceMechs) {
          if (i >= r.size()) return;
          const CellResult& c = r[i++];
          if (m == Mechanism::kLlSc) llsc = c.primary;
          if (m == Mechanism::kAmo) amo = c.primary;
          std::printf(" %12.0f", c.primary);
        }
        std::printf(" %11.2fx\n", amo > 0 ? llsc / amo : 0.0);
      }
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
  s.meta["cpus"] = cpus_json(cpus);
  sim::Json jl = sim::Json::array();
  for (std::uint64_t l : kServiceLoadGrid) jl.push_back(l);
  s.meta["loads"] = std::move(jl);
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
  std::printf("\n== Ablation: offered load vs mechanism "
              "(open-loop service tail latency) ==\n");
  std::size_t i = 0;
  for (std::uint32_t p : cpus) {
    std::printf("\nP = %u\n%-14s %12s %12s %12s %12s\n", p, "interarrival",
                "LL/SC p999", "AMO p999", "LL/SC mean", "AMO mean");
    if (const sim::Json* jl = s.meta.find("loads"); jl != nullptr) {
      for (const sim::Json& v : jl->elements()) {
        if (i + 1 >= r.size() + 1) return;
        double p999[2] = {0, 0};
        double mean[2] = {0, 0};
        for (std::size_t k = 0; k < kServiceAblMechs.size(); ++k) {
          if (i >= r.size()) return;
          p999[k] = r[i].primary;
          mean[k] = r[i].secondary;
          ++i;
        }
        std::printf("%-14llu %12.0f %12.0f %12.0f %12.0f\n",
                    static_cast<unsigned long long>(v.as_uint()), p999[0],
                    p999[1], mean[0], mean[1]);
      }
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
  reg.add({"table2", "table2_barriers",
           "central barrier speedup over LL/SC, 4..256 CPUs (Table 2)",
           build_table2, print_table2});
  reg.add({"fig5", "fig5_barrier_cycles",
           "central barrier cycles-per-processor vs P (Fig. 5)", build_fig5,
           print_fig5});
  reg.add({"table3", "table3_tree_barriers",
           "two-level tree barriers, best fanout per point (Table 3)",
           build_table3, print_table3});
  reg.add({"fig6", "fig6_tree_cycles",
           "tree barrier cycles-per-processor, best fanout (Fig. 6)",
           build_fig6, print_fig6});
  reg.add({"table4", "table4_locks",
           "ticket/array lock speedups over LL/SC ticket (Table 4)",
           build_table4, print_table4});
  reg.add({"fig7", "fig7_lock_traffic",
           "ticket-lock network traffic normalized to LL/SC (Fig. 7)",
           build_fig7, print_fig7});
  reg.add({"ablation_amu_cache", "ablation_amu_cache",
           "AMU cache size vs concurrent AMO locks", build_amu_cache,
           print_amu_cache});
  reg.add({"ablation_update_policy", "ablation_update_policy",
           "delayed vs eager vs block-update put policies", build_update_policy,
           print_update_policy});
  reg.add({"ablation_multicast", "ablation_multicast",
           "hardware multicast for AMO word-update waves", build_multicast,
           print_multicast});
  reg.add({"ablation_hop_latency", "ablation_hop_latency",
           "AMO advantage as network hops slow down", build_hop_latency,
           print_hop_latency});
  reg.add({"ablation_tree_fanout", "ablation_tree_fanout",
           "tree branching factor sweep per mechanism", build_tree_fanout,
           print_tree_fanout});
  reg.add({"ablation_backoff", "ablation_backoff",
           "proportional backoff for MAO ticket locks", build_backoff,
           print_backoff});
  reg.add({"ablation_protocol", "ablation_protocol",
           "home-centric 4-hop vs forwarding 3-hop directory",
           build_protocol, print_protocol});
  reg.add({"ablation_dir_pointers", "ablation_dir_pointers",
           "limited directory pointers under sparse sharing",
           build_dir_pointers, print_dir_pointers});
  reg.add({"ablation_barrier_styles", "ablation_barrier_styles",
           "naive/optimized/dissemination/mcs-tree codings",
           build_barrier_styles, print_barrier_styles});
  reg.add({"extension_locks", "extension_locks",
           "tas/ticket/array/mcs locks across every mechanism",
           build_extension_locks, print_extension_locks});
  reg.add({"microbench_spin", "microbench_spin",
           "spin-wait virtualization: events/episode vs active cpus",
           build_microbench_spin, print_microbench_spin});
  reg.add({"microbench_pdes", "microbench_pdes",
           "host-parallel PDES scaling: wall-clock at sim_threads=1/2/4",
           build_microbench_pdes, print_microbench_pdes});
  reg.add({"microbench_hier", "microbench_hier",
           "cluster-hierarchical barriers: root-link traffic vs flat tree",
           build_microbench_hier, print_microbench_hier});
  reg.add({"ablation_hier_depth", "ablation_hier_depth",
           "router radix x folded hierarchy depth for aggregated barriers",
           build_hier_depth, print_hier_depth});
  reg.add({"ablation_hier_locks", "ablation_hier_locks",
           "mcs vs cna vs hmcs queue locks across every mechanism",
           build_hier_locks, print_hier_locks});
  reg.add({"microbench_service", "microbench_service",
           "open-loop sharded service: p999 latency vs offered load",
           build_microbench_service, print_microbench_service});
  reg.add({"ablation_service_load", "ablation_service_load",
           "offered-load grid for LL/SC vs AMO service tail latency",
           build_service_load, print_service_load});
}

}  // namespace amo::bench
