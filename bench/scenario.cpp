#include "bench/scenario.hpp"

#include <cstdio>
#include <stdexcept>

#include "core/config_io.hpp"

namespace amo::bench {

namespace {

template <typename E>
struct EnumEntry {
  E value;
  const char* name;
};

constexpr EnumEntry<Kernel> kKernelNames[] = {
    {Kernel::kBarrier, "barrier"},
    {Kernel::kLock, "lock"},
    {Kernel::kLockAlgo, "lock_algo"},
    {Kernel::kTicketBackoff, "ticket_backoff"},
    {Kernel::kFig1Episode, "fig1_episode"},
    {Kernel::kMultiLock, "multilock"},
    {Kernel::kPairwiseFlags, "pairwise_flags"},
    {Kernel::kBarrierStyle, "barrier_style"},
    {Kernel::kSpin, "spin"},
    {Kernel::kHier, "hier"},
    {Kernel::kService, "service"},
};
constexpr EnumEntry<LockAlgo> kAlgoNames[] = {
    {LockAlgo::kTas, "tas"},
    {LockAlgo::kTicket, "ticket"},
    {LockAlgo::kArray, "array"},
    {LockAlgo::kMcs, "mcs"},
    {LockAlgo::kCna, "cna"},
    {LockAlgo::kHmcs, "hmcs"},
};
constexpr EnumEntry<HierBarrier> kHierNames[] = {
    {HierBarrier::kFlatTree, "flat_tree"},
    {HierBarrier::kCluster, "cluster"},
    {HierBarrier::kClusterAmu, "cluster_amu"},
};
constexpr EnumEntry<BarrierStyle> kStyleNames[] = {
    {BarrierStyle::kNaive, "naive"},
    {BarrierStyle::kOptimized, "optimized"},
    {BarrierStyle::kDissemination, "dissem"},
    {BarrierStyle::kMcsTree, "mcs-tree"},
};
constexpr EnumEntry<BarrierKind> kKindNames[] = {
    {BarrierKind::kCentral, "central"},
    {BarrierKind::kTree, "tree"},
};
constexpr EnumEntry<sync::TicketBackoff> kBackoffNames[] = {
    {sync::TicketBackoff::kNone, "none"},
    {sync::TicketBackoff::kProportional, "proportional"},
};

template <typename E, std::size_t N>
const char* enum_name(const EnumEntry<E> (&table)[N], E v) {
  for (const auto& e : table) {
    if (e.value == v) return e.name;
  }
  return "?";
}

template <typename E, std::size_t N>
E enum_value(const EnumEntry<E> (&table)[N], const std::string& field,
             const sim::Json& j) {
  if (j.is_string()) {
    for (const auto& e : table) {
      if (j.as_string() == e.name) return e.value;
    }
  }
  std::string names;
  for (const auto& e : table) {
    names += names.empty() ? e.name : std::string(", ") + e.name;
  }
  throw std::runtime_error(field + ": expected one of [" + names +
                           "], got " + j.dump());
}

int int_value(const std::string& field, const sim::Json& j) {
  if (!j.is_number()) {
    throw std::runtime_error(field + ": expected a number, got " + j.dump());
  }
  try {
    return static_cast<int>(j.as_uint());
  } catch (const std::exception&) {
    throw std::runtime_error(field + ": expected a non-negative integer");
  }
}

std::uint64_t uint_value(const std::string& field, const sim::Json& j) {
  if (!j.is_number()) {
    throw std::runtime_error(field + ": expected a number, got " + j.dump());
  }
  try {
    return j.as_uint();
  } catch (const std::exception&) {
    throw std::runtime_error(field + ": expected a non-negative integer");
  }
}

bool bool_value(const std::string& field, const sim::Json& j) {
  if (!j.is_bool()) {
    throw std::runtime_error(field + ": expected a bool, got " + j.dump());
  }
  return j.as_bool();
}

sim::Json params_to_json(const CellParams& p) {
  const CellParams d;  // defaults are omitted
  sim::Json j = sim::Json::object();
  j["kernel"] = enum_name(kKernelNames, p.kernel);
  j["mech"] = sync::to_string(p.mech);
  if (p.kind != d.kind) j["kind"] = enum_name(kKindNames, p.kind);
  if (p.fanout != d.fanout) j["fanout"] = p.fanout;
  if (p.warmup_episodes != d.warmup_episodes) {
    j["warmup_episodes"] = p.warmup_episodes;
  }
  if (p.episodes != d.episodes) j["episodes"] = p.episodes;
  if (p.max_skew != d.max_skew) j["max_skew"] = p.max_skew;
  if (p.array != d.array) j["array"] = p.array;
  if (p.warmup_iters != d.warmup_iters) j["warmup_iters"] = p.warmup_iters;
  if (p.iters != d.iters) j["iters"] = p.iters;
  if (p.cs_cycles != d.cs_cycles) j["cs_cycles"] = p.cs_cycles;
  if (p.algo != d.algo) j["algo"] = enum_name(kAlgoNames, p.algo);
  if (p.backoff != d.backoff) {
    j["backoff"] = enum_name(kBackoffNames, p.backoff);
  }
  if (p.locks != d.locks) j["locks"] = p.locks;
  if (p.rounds != d.rounds) j["rounds"] = p.rounds;
  if (p.style != d.style) j["style"] = enum_name(kStyleNames, p.style);
  if (p.active != d.active) j["active"] = p.active;
  if (p.hier != d.hier) j["hier"] = enum_name(kHierNames, p.hier);
  if (p.requests != d.requests) j["requests"] = p.requests;
  return j;
}

CellParams params_from_json(const sim::Json& j) {
  if (!j.is_object()) {
    throw std::runtime_error("params: expected an object");
  }
  CellParams p;
  for (const auto& [key, v] : j.items()) {
    const std::string f = "params." + key;
    if (key == "kernel") {
      p.kernel = enum_value(kKernelNames, f, v);
    } else if (key == "mech") {
      const auto m = v.is_string()
                         ? sync::mechanism_from_string(v.as_string())
                         : std::nullopt;
      if (!m) {
        throw std::runtime_error(
            f + ": expected one of [LL/SC, Atomic, ActMsg, MAO, AMO], got " +
            v.dump());
      }
      p.mech = *m;
    } else if (key == "kind") {
      p.kind = enum_value(kKindNames, f, v);
    } else if (key == "fanout") {
      p.fanout = static_cast<std::uint32_t>(uint_value(f, v));
    } else if (key == "warmup_episodes") {
      p.warmup_episodes = int_value(f, v);
    } else if (key == "episodes") {
      p.episodes = int_value(f, v);
    } else if (key == "max_skew") {
      p.max_skew = uint_value(f, v);
    } else if (key == "array") {
      p.array = bool_value(f, v);
    } else if (key == "warmup_iters") {
      p.warmup_iters = int_value(f, v);
    } else if (key == "iters") {
      p.iters = int_value(f, v);
    } else if (key == "cs_cycles") {
      p.cs_cycles = uint_value(f, v);
    } else if (key == "algo") {
      p.algo = enum_value(kAlgoNames, f, v);
    } else if (key == "backoff") {
      p.backoff = enum_value(kBackoffNames, f, v);
    } else if (key == "locks") {
      p.locks = static_cast<std::uint32_t>(uint_value(f, v));
    } else if (key == "rounds") {
      p.rounds = int_value(f, v);
    } else if (key == "style") {
      p.style = enum_value(kStyleNames, f, v);
    } else if (key == "active") {
      p.active = static_cast<std::uint32_t>(uint_value(f, v));
    } else if (key == "hier") {
      p.hier = enum_value(kHierNames, f, v);
    } else if (key == "requests") {
      p.requests = uint_value(f, v);
    } else {
      throw std::runtime_error(
          f + ": unknown parameter; candidates: kernel, mech, kind, fanout, "
              "warmup_episodes, episodes, max_skew, array, warmup_iters, "
              "iters, cs_cycles, algo, backoff, locks, rounds, style, "
              "active, hier, requests");
    }
  }
  return p;
}

}  // namespace

const char* to_string(Kernel k) { return enum_name(kKernelNames, k); }
const char* to_string(BarrierKind k) { return enum_name(kKindNames, k); }
const char* to_string(LockAlgo a) { return enum_name(kAlgoNames, a); }
const char* to_string(BarrierStyle s) { return enum_name(kStyleNames, s); }
const char* to_string(HierBarrier h) { return enum_name(kHierNames, h); }

sim::Json spec_to_json(const SweepSpec& spec) {
  sim::Json j = sim::Json::object();
  if (!spec.workload.empty()) j["workload"] = spec.workload;
  if (!spec.bench_name.empty()) j["bench"] = spec.bench_name;
  if (!spec.base_config.is_null()) j["config"] = spec.base_config;
  if (!spec.meta.is_null()) j["meta"] = spec.meta;
  sim::Json cells = sim::Json::array();
  for (const Cell& c : spec.cells) {
    sim::Json jc = sim::Json::object();
    if (!c.set.empty()) {
      sim::Json s = sim::Json::object();
      for (const ConfigDelta& d : c.set) s[d.key] = d.value;
      jc["set"] = std::move(s);
    }
    jc["params"] = params_to_json(c.params);
    cells.push_back(std::move(jc));
  }
  j["cells"] = std::move(cells);
  return j;
}

SweepSpec spec_from_json(const sim::Json& j) {
  if (!j.is_object()) {
    throw std::runtime_error("scenario: expected a top-level object");
  }
  SweepSpec spec;
  bool have_cells = false;
  for (const auto& [key, v] : j.items()) {
    if (key == "workload") {
      spec.workload = v.as_string();
    } else if (key == "bench") {
      spec.bench_name = v.as_string();
    } else if (key == "config") {
      spec.base_config = v;
    } else if (key == "meta") {
      spec.meta = v;
    } else if (key == "cells") {
      have_cells = true;
      if (!v.is_array()) {
        throw std::runtime_error("cells: expected an array");
      }
      for (std::size_t i = 0; i < v.size(); ++i) {
        const std::string at = "cells[" + std::to_string(i) + "]";
        const sim::Json& jc = v[i];
        if (!jc.is_object()) {
          throw std::runtime_error(at + ": expected an object");
        }
        Cell cell;
        try {
          for (const auto& [ck, cv] : jc.items()) {
            if (ck == "set") {
              if (!cv.is_object()) {
                throw std::runtime_error("set: expected an object");
              }
              for (const auto& [dk, dv] : cv.items()) {
                cell.set.push_back(ConfigDelta{dk, dv});
              }
            } else if (ck == "params") {
              cell.params = params_from_json(cv);
            } else {
              throw std::runtime_error(
                  ck + ": unknown cell key; candidates: set, params");
            }
          }
        } catch (const std::exception& e) {
          throw std::runtime_error(at + "." + e.what());
        }
        spec.cells.push_back(std::move(cell));
      }
    } else {
      throw std::runtime_error(
          key + ": unknown scenario key; candidates: workload, bench, "
                "config, meta, cells");
    }
  }
  if (spec.bench_name.empty()) {
    spec.bench_name = spec.workload.empty() ? "scenario" : spec.workload;
  }
  if (!have_cells) {
    throw std::runtime_error("scenario: missing 'cells' array");
  }
  return spec;
}

std::vector<CellResult> run_spec(const SweepSpec& spec,
                                 const core::SystemConfig& base,
                                 unsigned threads) {
  const std::size_t n = spec.cells.size();
  // Materialize and validate every cell's config up front, serially, so
  // config errors surface deterministically before any simulation runs.
  std::vector<core::SystemConfig> cfgs(n, base);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      for (const ConfigDelta& d : spec.cells[i].set) {
        core::set_field(cfgs[i], d.key, d.value);
      }
      core::validate(cfgs[i]);
    } catch (const std::exception& e) {
      throw core::ConfigError("cells[" + std::to_string(i) + "]: " +
                              e.what());
    }
  }

  std::vector<CellResult> results(n);
  SweepRunner sweep(threads);
  for (std::size_t i = 0; i < n; ++i) {
    const Cell* cell = &spec.cells[i];
    const core::SystemConfig* cfg = &cfgs[i];
    CellResult* out = &results[i];
    sweep.add([cell, cfg, out] { *out = run_cell(*cfg, cell->params); });
  }
  sweep.run();
  return results;
}

void print_generic(const SweepSpec& spec, std::span<const CellResult> r) {
  std::printf("\n== scenario: %s (%zu cells) ==\n%-5s %-14s %-8s %14s %14s "
              "%10s %12s\n",
              spec.bench_name.c_str(), spec.cells.size(), "cell", "kernel",
              "mech", "primary", "secondary", "packets", "bytes");
  for (std::size_t i = 0; i < r.size(); ++i) {
    const CellParams& p = spec.cells[i].params;
    std::printf("%-5zu %-14s %-8s %14.2f %14.2f %10llu %12llu\n", i,
                to_string(p.kernel), sync::to_string(p.mech), r[i].primary,
                r[i].secondary,
                static_cast<unsigned long long>(r[i].traffic.packets),
                static_cast<unsigned long long>(r[i].traffic.bytes));
  }
}

}  // namespace amo::bench
