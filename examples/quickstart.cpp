// Quickstart: build a 32-processor CC-NUMA machine, run one AMO barrier
// across all processors (the paper's Fig. 3(c) naive coding), and print
// what happened. Start here.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "core/machine.hpp"
#include "sync/barrier.hpp"

int main() {
  using namespace amo;

  // 1. Configure the machine. Defaults follow the paper's Table 1
  //    (2 GHz cores, 2 per node, 128B lines, 100-cycle network hops).
  core::SystemConfig cfg;
  cfg.num_cpus = 32;

  core::Machine m(cfg);

  // 2. Allocate a synchronization variable. Placement is explicit: this
  //    one lives on node 0, alone in its cache line.
  const sim::Addr barrier_var = m.galloc().alloc_word_line(0);

  // 3. Spawn one simulated thread per processor. Each does some local
  //    work, then performs the AMO barrier: amo.inc with a test value of
  //    P, then spins on its *cached* copy — the AMU pushes one word-update
  //    wave when the count hits P.
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      co_await t.compute(t.rng().below(1000));  // skewed arrival
      const sim::Cycle before = t.now();

      (void)co_await t.amo(amu::AmoOpcode::kInc, barrier_var, 0,
                           /*test=*/cfg.num_cpus);
      while (co_await t.load(barrier_var) != cfg.num_cpus) {
        co_await t.delay(100);
      }

      std::printf("cpu %3u passed the barrier at cycle %llu (waited %llu)\n",
                  c, static_cast<unsigned long long>(t.now()),
                  static_cast<unsigned long long>(t.now() - before));
    });
  }

  // 4. Run to completion and inspect the machine.
  m.run();

  std::printf("\nbarrier value: %llu\n",
              static_cast<unsigned long long>(m.peek_word(barrier_var)));
  std::printf("total simulated cycles: %llu\n\n",
              static_cast<unsigned long long>(m.engine().now()));

  // Every counter is indexed in the stats registry under a dotted name.
  // The interesting numbers: exactly one amo op per processor (no
  // retries), and one word-update wave instead of an invalidation storm.
  const sim::StatsRegistry& reg = m.registry();
  for (const char* name : {"node0.amu.amo_ops", "node0.amu.puts",
                           "node0.dir.invals_sent", "net.packets"}) {
    std::printf("%-22s %llu\n", name,
                static_cast<unsigned long long>(reg.value(name).as_uint()));
  }
  return 0;
}
