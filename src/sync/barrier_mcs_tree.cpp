// The MCS tree barrier (Mellor-Crummey & Scott 1991): a 4-ary arrival
// tree and a binary wake-up tree, with every flag written by exactly one
// thread — no atomic operations anywhere. The canonical contention-free
// software barrier, included as the strongest conventional baseline.
//
// Episode counters replace the original booleans so the barrier is
// reusable without reinitialization: thread X "sets" a flag by storing
// the episode number; waiters spin for `>= episode`.
//
// The mechanism parameter only changes how flags are written: AMO uses
// eager-put amo.swap (the waiter's cached copy is patched in place);
// everything else uses ordinary coherent stores (one invalidation + one
// refetch per signal — already cheap, since each flag has one spinner).
#include <cassert>
#include <vector>

#include "sync/barrier.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

class McsTreeBarrier final : public Barrier {
 public:
  static constexpr std::uint32_t kArrivalFan = 4;

  McsTreeBarrier(core::Machine& m, Mechanism mech, std::uint32_t participants)
      : Barrier(m), mech_(mech), p_(participants) {
    assert(participants >= 1 && participants <= m.num_cpus());
    nodes_.resize(p_);
    for (std::uint32_t i = 0; i < p_; ++i) {
      const sim::NodeId home = i / m.config().cpus_per_node;
      for (std::uint32_t s = 0; s < kArrivalFan; ++s) {
        // Child-arrival slots live with the *parent* (thread i) so its
        // arrival spin is local.
        nodes_[i].child_arrived[s] = m.galloc().alloc_word_line(home);
      }
      nodes_[i].wakeup = m.galloc().alloc_word_line(home);
    }
  }

 private:
  sim::Task<void> episode(core::ThreadCtx& t, std::uint64_t ep) override {
    const std::uint32_t me = t.cpu();

    // ---- arrival phase: 4-ary tree, children signal parents ----
    for (std::uint32_t s = 0; s < kArrivalFan; ++s) {
      const std::uint32_t child = kArrivalFan * me + s + 1;
      if (child >= p_) continue;
      (void)co_await spin_cached_until(
          t, nodes_[me].child_arrived[s],
          [ep](std::uint64_t v) { return v >= ep; });
    }
    if (me != 0) {
      const std::uint32_t parent = (me - 1) / kArrivalFan;
      const std::uint32_t slot = (me - 1) % kArrivalFan;
      co_await WordWrite(mech_, t, nodes_[parent].child_arrived[slot], ep);
      // ---- wake-up phase: wait for the parent's release ----
      (void)co_await spin_cached_until(
          t, nodes_[me].wakeup, [ep](std::uint64_t v) { return v >= ep; });
    }
    // Release own wake-up children (binary tree).
    for (std::uint32_t s = 1; s <= 2; ++s) {
      const std::uint32_t child = 2 * me + s;
      if (child >= p_) continue;
      co_await WordWrite(mech_, t, nodes_[child].wakeup, ep);
    }
  }

  struct Node {
    sim::Addr child_arrived[kArrivalFan] = {};
    sim::Addr wakeup = 0;
  };

  Mechanism mech_;
  std::uint32_t p_;
  std::vector<Node> nodes_;
};

}  // namespace

std::unique_ptr<Barrier> make_mcs_tree_barrier(core::Machine& m,
                                               Mechanism mech,
                                               std::uint32_t participants) {
  return std::make_unique<McsTreeBarrier>(m, mech, participants);
}

}  // namespace amo::sync
