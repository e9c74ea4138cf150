// A bulk-synchronous 1-D heat diffusion solver: the workload class the
// paper's introduction motivates (data-parallel iterations separated by
// barriers, where barrier cost bounds scaling).
//
// The grid lives in simulated memory, partitioned across processors;
// every iteration each processor updates its chunk and then joins a
// barrier. We run the same computation twice — once over the LL/SC
// barrier, once over the AMO barrier — verify the numeric results match,
// and report how much of the runtime each barrier consumed.
#include <cstdio>
#include <vector>

#include "core/machine.hpp"
#include "sync/barrier.hpp"

namespace {

using namespace amo;

constexpr std::uint32_t kCpus = 16;
constexpr std::uint32_t kCells = 256;   // fixed-point temperatures
constexpr int kIters = 12;

struct RunResult {
  sim::Cycle total_cycles = 0;
  std::vector<std::uint64_t> grid;
};

RunResult run(sync::Mechanism mech) {
  core::SystemConfig cfg;
  cfg.num_cpus = kCpus;
  core::Machine m(cfg);

  // Two grids (current + next), distributed round-robin across nodes so
  // each processor's chunk is mostly local.
  std::vector<sim::Addr> grid[2];
  for (int g = 0; g < 2; ++g) {
    for (std::uint32_t i = 0; i < kCells; ++i) {
      const sim::NodeId home = (i * m.num_nodes()) / kCells;
      grid[g].push_back(m.galloc().alloc(home, 8, 8));
    }
  }
  // Initial condition: a hot spike in the middle.
  m.backing().write_word(grid[0][kCells / 2], 1u << 20);

  auto barrier = sync::make_central_barrier(m, mech, kCpus);

  const std::uint32_t chunk = kCells / kCpus;
  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      const std::uint32_t lo = c * chunk;
      const std::uint32_t hi = lo + chunk;
      for (int it = 0; it < kIters; ++it) {
        const auto& cur = grid[it % 2];
        const auto& nxt = grid[(it + 1) % 2];
        for (std::uint32_t i = lo; i < hi; ++i) {
          const std::uint64_t left =
              i == 0 ? 0 : co_await t.load(cur[i - 1]);
          const std::uint64_t right =
              i == kCells - 1 ? 0 : co_await t.load(cur[i + 1]);
          const std::uint64_t self = co_await t.load(cur[i]);
          co_await t.store(nxt[i], (left + right + 2 * self) / 4);
          co_await t.compute(4);  // the FLOPs
        }
        co_await barrier->wait(t);
      }
    });
  }
  m.run();

  RunResult r;
  r.total_cycles = m.engine().now();
  for (std::uint32_t i = 0; i < kCells; ++i) {
    r.grid.push_back(m.peek_word(grid[kIters % 2][i]));
  }
  return r;
}

}  // namespace

int main() {
  std::printf("1-D heat diffusion, %u cells, %d iterations, %u cpus\n",
              kCells, kIters, kCpus);

  const RunResult llsc = run(sync::Mechanism::kLlSc);
  const RunResult amo = run(sync::Mechanism::kAmo);

  bool match = llsc.grid == amo.grid;
  std::printf("results identical across barrier implementations: %s\n",
              match ? "yes" : "NO (bug!)");

  std::printf("LL/SC barrier:  %10llu cycles total\n",
              static_cast<unsigned long long>(llsc.total_cycles));
  std::printf("AMO barrier:    %10llu cycles total  (%.2fx speedup)\n",
              static_cast<unsigned long long>(amo.total_cycles),
              static_cast<double>(llsc.total_cycles) /
                  static_cast<double>(amo.total_cycles));

  // Print a coarse temperature profile as a sanity check.
  std::printf("\nfinal profile (sampled):\n");
  for (std::uint32_t i = 0; i < kCells; i += 32) {
    std::printf("  cell %3u: %llu\n", i,
                static_cast<unsigned long long>(amo.grid[i]));
  }
  return match ? 0 : 1;
}
