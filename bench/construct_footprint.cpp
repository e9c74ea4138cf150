// Machine construction cost: wall time of core::Machine's constructor and
// the resident memory it adds, for default machines of the given CPU
// counts (Linux only: resident size is read from /proc/self/statm).
//
//   ./build/bench/construct_footprint [cpus...]   (default: 256 1024 4096)
//
// Prints one line per CPU count: the first constructor's time (it pays
// the page faults), min and median over five constructions, and the
// resident memory the first machine added. Later constructions reuse
// memory the allocator kept, as a sweep that builds one machine after
// another does. Run one size per invocation for figures free of memory
// kept from a machine built earlier:
//
//   for n in 256 1024 4096; do ./build/bench/construct_footprint $n; done
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <vector>

#include <unistd.h>

#include "core/machine.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Constructs one default machine of `cpus` CPUs; returns the
/// constructor's wall time in ms and keeps the machine alive in `out`.
double construct_ms(std::uint32_t cpus,
                    std::unique_ptr<amo::core::Machine>& out) {
  amo::core::SystemConfig cfg;
  cfg.num_cpus = cpus;
  const Clock::time_point t0 = Clock::now();
  out = std::make_unique<amo::core::Machine>(cfg);
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kReps = 5;
  std::vector<std::uint32_t> sizes;
  for (int i = 1; i < argc; ++i) {
    const unsigned long cpus = std::strtoul(argv[i], nullptr, 10);
    if (cpus == 0) {
      std::fprintf(stderr, "usage: %s [cpus...]\n", argv[0]);
      return 2;
    }
    sizes.push_back(static_cast<std::uint32_t>(cpus));
  }
  if (sizes.empty()) sizes = {256, 1024, 4096};

  for (const std::uint32_t cpus : sizes) {
    std::vector<double> ms;
    std::unique_ptr<amo::core::Machine> m;
    const double before = resident_mb();
    ms.push_back(construct_ms(cpus, m));
    const double added = resident_mb() - before;
    for (int r = 1; r < kReps; ++r) {
      m.reset();
      ms.push_back(construct_ms(cpus, m));
    }
    const double first = ms.front();
    std::sort(ms.begin(), ms.end());
    std::printf(
        "cpus=%u ctor_ms_first=%.1f ctor_ms_min=%.1f ctor_ms_median=%.1f "
        "added_rss_mb=%.1f (%.1f KB/cpu)\n",
        cpus, first, ms.front(), ms[ms.size() / 2], added,
        added * 1024.0 / cpus);
  }
  return 0;
}
