// Parallel histogram: AMOs beyond synchronization primitives.
//
// Every processor classifies a private stream of samples into shared
// bins. With conventional atomics each bin update migrates the bin's
// cache line; with amo.fetchadd the update happens at the bin's home
// memory controller — one message, no ownership ping-pong. This is the
// paper's general thesis ("ship the computation to the data") applied to
// a data-parallel kernel.
#include <cstdio>
#include <vector>

#include "core/machine.hpp"
#include "sync/mechanism.hpp"

namespace {

using namespace amo;

constexpr std::uint32_t kCpus = 16;
constexpr std::uint32_t kBins = 16;
constexpr std::uint32_t kSamplesPerCpu = 64;

struct RunResult {
  sim::Cycle cycles = 0;
  std::vector<std::uint64_t> bins;
  std::uint64_t net_packets = 0;
};

RunResult run(sync::Mechanism mech) {
  core::SystemConfig cfg;
  cfg.num_cpus = kCpus;
  core::Machine m(cfg);

  // Bins spread round-robin over the nodes, each in its own line.
  std::vector<sim::Addr> bins;
  for (std::uint32_t b = 0; b < kBins; ++b) {
    bins.push_back(m.galloc().alloc_word_line_rr());
  }

  for (sim::CpuId c = 0; c < kCpus; ++c) {
    m.spawn(c, [&, mech](core::ThreadCtx& t) -> sim::Task<void> {
      for (std::uint32_t i = 0; i < kSamplesPerCpu; ++i) {
        co_await t.compute(20);  // classify the sample
        const std::size_t bin = t.rng().below(kBins);
        (void)co_await sync::rmw(mech, t, amu::AmoOpcode::kFetchAdd, bins[bin],
                                 1);
      }
    });
  }
  m.run();

  RunResult r;
  r.cycles = m.engine().now();
  r.net_packets = m.network().stats().packets;
  for (std::uint32_t b = 0; b < kBins; ++b) {
    r.bins.push_back(m.peek_word(bins[b]));
  }
  return r;
}

}  // namespace

int main() {
  std::printf("parallel histogram: %u cpus x %u samples into %u bins\n\n",
              kCpus, kSamplesPerCpu, kBins);
  std::printf("%-8s %12s %12s %8s\n", "mech", "cycles", "net pkts", "total");
  const std::uint64_t expect = kCpus * kSamplesPerCpu;
  bool all_ok = true;
  for (sync::Mechanism mech : sync::kAllMechanisms) {
    const RunResult r = run(mech);
    std::uint64_t total = 0;
    for (std::uint64_t b : r.bins) total += b;
    all_ok &= (total == expect);
    std::printf("%-8s %12llu %12llu %8llu%s\n", sync::to_string(mech),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.net_packets),
                static_cast<unsigned long long>(total),
                total == expect ? "" : "  <-- LOST UPDATES");
  }
  std::printf("\nevery histogram sums to %llu: %s\n",
              static_cast<unsigned long long>(expect),
              all_ok ? "yes" : "NO (bug!)");
  return all_ok ? 0 : 1;
}
