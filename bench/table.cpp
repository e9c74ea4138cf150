#include "bench/table.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace amo::bench {

namespace {

std::vector<std::uint32_t> tree_fanouts(std::uint32_t p, bool inclusive) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t f = 2; inclusive ? f <= p : f < p; f *= 2) {
    out.push_back(f);
  }
  return out;
}

struct Row {
  std::string label;
  std::uint32_t knob;
};

std::vector<Row> rows_of(const TableSpec& t, std::uint32_t p) {
  if (t.knob == Knob::kCpus) return {{std::to_string(p), p}};
  std::vector<Row> rows;
  for (std::uint32_t k :
       t.knob == Knob::kFanout ? tree_fanouts(p, true) : t.knobs) {
    rows.push_back({t.knob == Knob::kStyle  ? to_string(BarrierStyle(k))
                    : t.knob == Knob::kAlgo ? to_string(LockAlgo(k))
                                            : std::to_string(k),
                    k});
  }
  return rows;
}

std::size_t group_size(const Variant& v, std::uint32_t p) {
  return v.per_fanout ? tree_fanouts(p, false).size() : 1;
}

double field(const CellResult& c, Field f) {
  switch (f) {
    case Field::kPrimary: return c.primary;
    case Field::kSecondary: return c.secondary;
    case Field::kAux: return static_cast<double>(c.aux);
    case Field::kBytes: return static_cast<double>(c.traffic.bytes);
  }
  return 0;
}

}  // namespace

std::vector<std::uint64_t> meta_uints(const SweepSpec& s,
                                      const std::string& key) {
  std::vector<std::uint64_t> out;
  if (const sim::Json* a = s.meta.find(key); a != nullptr) {
    for (const sim::Json& v : a->elements()) out.push_back(v.as_uint());
  }
  return out;
}

std::vector<std::uint32_t> meta_cpus(const SweepSpec& s) {
  std::vector<std::uint32_t> out;
  for (std::uint64_t p : meta_uints(s, "cpus")) {
    out.push_back(static_cast<std::uint32_t>(p));
  }
  return out;
}

void check_cells(std::string_view workload, std::size_t need,
                 std::size_t have) {
  if (need != have) {
    throw std::runtime_error(std::string(workload) + ": the table needs " +
                             std::to_string(need) + " cells, the spec has " +
                             std::to_string(have));
  }
}

SweepSpec build_table(const TableSpec& t, const CliOptions& opt) {
  SweepSpec s{.workload = t.name};
  std::vector<std::uint32_t> cpus = resolved_cpus(opt, t.cpus, t.quick_cpus);
  if (t.knob != Knob::kCpus && !t.per_p) cpus.resize(1);
  s.meta["cpus"] = json_array(cpus);
  for (std::uint32_t p : cpus) {
    for (const Row& row : rows_of(t, p)) {
      for (const Variant& v : t.variants) {
        for (std::size_t k = 0; k < group_size(v, p); ++k) {
          Cell c{{{"num_cpus", sim::Json(p)}}, v.params};
          c.set.insert(c.set.end(), v.set.begin(), v.set.end());
          if (v.per_fanout) c.params.fanout = tree_fanouts(p, false)[k];
          if (t.episodes != 0) {
            c.params.episodes = resolved_episodes(opt, t.episodes);
          }
          if (t.iters != 0) c.params.iters = resolved_iters(opt, t.iters);
          switch (t.knob) {
            case Knob::kCpus: break;
            case Knob::kFanout: c.params.fanout = row.knob; break;
            case Knob::kHopCycles:
              c.set.push_back({"net.hop_cycles", sim::Json(row.knob)});
              break;
            case Knob::kStyle: c.params.style = BarrierStyle(row.knob); break;
            case Knob::kAlgo: c.params.algo = LockAlgo(row.knob); break;
          }
          s.cells.push_back(std::move(c));
        }
      }
    }
  }
  return s;
}

void print_table(const TableSpec& t, const SweepSpec& s,
                 std::span<const CellResult> r, std::FILE* out) {
  const std::vector<std::uint32_t> cpus = meta_cpus(s);
  std::size_t need = 0;
  for (std::uint32_t p : cpus) {
    for (const Variant& v : t.variants) {
      need += rows_of(t, p).size() * group_size(v, p);
    }
  }
  check_cells(t.name, need, r.size());
  const auto header = [&] {
    std::fprintf(out, "%-*s", t.key_width, t.key);
    for (const Column& col : t.columns) {
      std::fprintf(out, " %*s", col.width, col.label);
    }
    std::fprintf(out, "\n");
  };
  std::fprintf(out, "\n== ");
  std::fprintf(out, t.title, cpus.empty() ? 0u : cpus.front());
  std::fprintf(out, " ==\n");
  if (!t.per_p) header();
  const CellResult* c = r.data();
  for (std::uint32_t p : cpus) {
    if (t.per_p) {
      std::fprintf(out, "\nP = %u\n", p);
      header();
    }
    // Variant g's cells are c[first[g], first[g + 1]) within a row.
    std::vector<std::size_t> first{0};
    for (const Variant& v : t.variants) {
      first.push_back(first.back() + group_size(v, p));
    }
    const auto best = [&](int g, Field f) {
      double m = std::numeric_limits<double>::max();
      for (std::size_t k = first[g]; k < first[g + 1]; ++k) {
        m = std::min(field(c[k], f), m);  // one cell passes through as is
      }
      return m;
    };
    for (const Row& row : rows_of(t, p)) {
      std::fprintf(out, "%-*s", t.key_width, row.label.c_str());
      for (const Column& col : t.columns) {
        double x = best(col.value.num, col.value.field);
        if (col.value.den >= 0) x /= best(col.value.den, col.value.field);
        std::fprintf(out, " %*.*f%s", col.width - (col.times ? 1 : 0),
                     col.precision, x, col.times ? "x" : "");
      }
      std::fprintf(out, "\n");
      c += first.back();
    }
  }
  std::fprintf(out, "%s", t.footer);
}

Workload table_workload(const TableSpec& t) {
  return {t.name, t.description,
          [&t](const CliOptions& opt) { return build_table(t, opt); },
          [&t](const SweepSpec& s, std::span<const CellResult> r) {
            print_table(t, s, r);
          }};
}

}  // namespace amo::bench
