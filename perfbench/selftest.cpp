// Self-test of the benchmark's arithmetic and names: paper_error_pct over
// the 48 cells EXPERIMENTS.md lists must come to about 27.2%, and every
// metric name and unit must use only the characters BENCHMARK.json
// allows. Exits 0 when every check passes; --list prints the catalogue.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

bool valid_chars(const char* s, const char* extra) {
  for (const char* p = s; *p != '\0'; ++p) {
    if (!is_alnum(*p) && std::strchr(extra, *p) == nullptr) return false;
  }
  return true;
}

bool valid_name(const char* s) {
  const std::size_t n = std::strlen(s);
  return n > 0 && n <= 64 && is_alnum(s[0]) && valid_chars(s, "_.-");
}

bool valid_unit(const char* s) {
  const std::size_t n = std::strlen(s);
  return n > 0 && n <= 16 && valid_chars(s, "_/%.-");
}

// Our speedups as EXPERIMENTS.md prints them, in kPaperRefs order.
constexpr double kExperimentsOurs[] = {
    1.24, 1.26, 2.09,  4.12,  1.41, 1.25, 3.15, 6.89,  1.87, 1.25,
    4.88, 13.45, 2.24, 1.29,  7.24, 23.64, 2.45, 1.29, 9.02, 35.23,
    2.77, 1.23, 10.88, 46.23, 0.73, 0.72, 1.01, 1.43,  2.48, 1.63,
    0.89, 0.93, 0.97,  1.33,  3.25, 2.08, 1.66, 1.02,  0.98, 1.34,
    5.22, 3.95, 4.47,  1.01,  0.99, 2.50, 7.38, 10.71,
};

}  // namespace

int main(int argc, char** argv) {
  using perfbench::kEndToEnd;
  using perfbench::kPaperRefs;
  using perfbench::kPerLayer;

  // --list: the metric catalogue, for comparison with BENCHMARK.json.
  if (argc > 1 && std::strcmp(argv[1], "--list") == 0) {
    for (const perfbench::MetricDef& m : kEndToEnd) {
      std::printf("end_to_end %s %s\n", m.name, m.unit);
    }
    for (const perfbench::MetricDef& m : kPerLayer) {
      std::printf("per_layer %s %s\n", m.name, m.unit);
    }
    return 0;
  }

  static_assert(std::size(kExperimentsOurs) == std::size(kPaperRefs));
  expect(std::size(kPaperRefs) == 48, "48 paper cells");
  const double err = perfbench::paper_error_pct(kPaperRefs, kExperimentsOurs);
  expect(std::abs(err - 27.234) < 0.01,
         "paper_error_pct over EXPERIMENTS.md's cells is 27.23% (got " +
             std::to_string(err) + ")");
  const double exact[] = {1.0};
  expect(std::abs(perfbench::paper_error_pct(std::span(kPaperRefs, 1),
                                             std::span(exact, 1)) -
                 100.0 * 0.70 / 1.70) < 1e-9,
         "paper_error_pct of one cell is |ours - paper| / paper");
  expect(std::isnan(perfbench::paper_error_pct({}, {})),
         "paper_error_pct of no cells is undefined");

  std::set<std::string> names;
  std::vector<perfbench::MetricDef> all(std::begin(kEndToEnd),
                                        std::end(kEndToEnd));
  all.insert(all.end(), std::begin(kPerLayer), std::end(kPerLayer));
  for (const perfbench::MetricDef& m : all) {
    expect(valid_name(m.name), std::string("name '") + m.name + "' is valid");
    expect(valid_unit(m.unit), std::string("unit '") + m.unit + "' of " +
                                   m.name + " is valid");
    expect(names.insert(m.name).second,
           std::string("name '") + m.name + "' is used once");
  }
  expect(names.count("setup_s") == 1, "setup_s is an end-to-end metric");

  std::printf("%s\n", g_failures == 0 ? "all checks passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
