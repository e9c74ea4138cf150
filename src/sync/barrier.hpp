// Barrier interface + factories.
//
// All barriers are episode-based and reusable: counters grow
// monotonically (episode k waits for count == k * P), so no reset or
// sense-reversal race exists. Threads are identified by their CpuId;
// a barrier built for P participants serves CPUs 0..P-1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "core/thread_ctx.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sync/mechanism.hpp"

namespace amo::sync {

/// The shell every barrier episode runs through. wait() pays half of
/// barrier_sw_overhead on each side of the algorithm's episode() (a zero
/// half schedules nothing), numbers the calling cpu's episodes from 1,
/// and records the whole call into sync.barrier_episode_hist when
/// stats.histograms is on.
class Barrier {
 public:
  virtual ~Barrier() = default;
  /// Blocks the calling thread until all participants arrive.
  sim::Task<void> wait(core::ThreadCtx& t);

 protected:
  explicit Barrier(core::Machine& m);

 private:
  /// Episode `ep` (1, 2, ...) of the calling cpu.
  virtual sim::Task<void> episode(core::ThreadCtx& t, std::uint64_t ep) = 0;

  sim::Cycle sw_half_;
  sim::LogHistogram* hist_;  // nullptr when histograms are off
  std::vector<std::uint64_t> episodes_;  // per cpu: the last one begun
};

/// Centralized barrier over the given mechanism:
///   * conventional mechanisms use the paper's Fig. 3(b) "optimized"
///     coding (fetch-add + spin on a separate release word): the
///     combining barrier with a root group only
///   * AMO uses the Fig. 3(a) naive coding (amo.inc with a test value,
///     spin on the barrier variable itself): make_naive_barrier
std::unique_ptr<Barrier> make_central_barrier(core::Machine& m,
                                              Mechanism mech,
                                              std::uint32_t participants);

/// Two-level software combining tree (Yew et al.) with leaf groups of
/// `fanout` threads under a root group; group counters are homed near
/// their members.
std::unique_ptr<Barrier> make_tree_barrier(core::Machine& m, Mechanism mech,
                                           std::uint32_t participants,
                                           std::uint32_t fanout);

/// The paper's Fig. 3(a) *naive* coding: fetch-inc the barrier variable
/// and spin on it directly. For conventional mechanisms every arrival now
/// fights the spinners (the inefficiency Fig. 3(b) fixes); for AMO this
/// is identical to the optimized coding — that is the paper's point.
std::unique_ptr<Barrier> make_naive_barrier(core::Machine& m, Mechanism mech,
                                            std::uint32_t participants);

/// MCS tree barrier (Mellor-Crummey & Scott): 4-ary arrival tree +
/// binary wake-up tree, every flag single-writer — zero atomic
/// operations. The strongest conventional software baseline.
std::unique_ptr<Barrier> make_mcs_tree_barrier(core::Machine& m,
                                               Mechanism mech,
                                               std::uint32_t participants);

/// Dissemination barrier (Hensgen/Finkel/Manber): ceil(log2 P) rounds of
/// point-to-point signals, no hot spot at all (extension baseline). The
/// mechanism selects how signals are written (AMO uses eager-put swaps).
std::unique_ptr<Barrier> make_dissemination_barrier(core::Machine& m,
                                                    Mechanism mech,
                                                    std::uint32_t participants);

/// Cluster-hierarchical combining barrier: the combining tree follows the
/// machine's fat-tree `Topology` (node groups, then `levels` tree levels
/// of `radix` clusters, then a root), with every counter/release word
/// homed at the first node of its subtree. `amu_aggregation` (kAmo only;
/// ignored for other mechanisms) moves the whole combining tree
/// memory-side: intermediate home-node AMUs merge partial counts and
/// forward one fetch-add per cluster per episode, and the root AMU drives
/// the release wave back down — root-link traffic drops from O(P) to
/// O(clusters).
std::unique_ptr<Barrier> make_cluster_barrier(core::Machine& m,
                                              Mechanism mech,
                                              std::uint32_t participants,
                                              std::uint32_t levels,
                                              bool amu_aggregation = false);

}  // namespace amo::sync
