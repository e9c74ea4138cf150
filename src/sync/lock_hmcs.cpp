#include <algorithm>
#include <cassert>
#include <vector>

#include "net/topology.hpp"
#include "sync/lock.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

/// Granted spin value meaning "you are the queue head here, but the
/// parent tier was released — acquire it yourself".
inline constexpr std::uint64_t kAcquireParent = ~std::uint64_t{0};

// Hierarchical MCS lock, after Chabbi, Fagan & Mellor-Crummey: a stack of
// MCS queues that mirrors the machine's fat tree. Tier 0 queues the cpus
// of each node; tier t (1..depth) queues the level-(t-1) entities under
// their level-t ancestor; a root queue joins the level-depth entities.
// Holding the lock means holding the whole chain. A releaser passes
// WITHIN its tier-0 queue (one cached-line handoff, no network) up to
// `threshold` consecutive times before it must release the parent tier —
// which likewise passes within its cluster up to `threshold` times — so
// handoffs overwhelmingly stay inside the smallest cluster that has a
// waiter, and cross-root handoffs happen at most once per threshold^depth
// local ones.
//
// The pass count of each tier's current streak lives in the *simulated*
// spin word of the tier's queue head (granted value 1..threshold;
// kAcquireParent = the streak ended below you). That word is written only
// by the granter and read only by the grantee/owner, so cluster state
// needs no host-side arrays. A thread that wins a
// tier uncontended (or via kAcquireParent) writes its own spin word to 1:
// a fresh streak.
class HmcsLock final : public Lock {
 public:
  HmcsLock(core::Machine& m, Mechanism mech, std::uint32_t levels,
           std::uint32_t threshold)
      : Lock(m),
        mech_(mech),
        cpn_(m.config().cpus_per_node),
        threshold_(threshold),
        topo_(&m.network().topology()) {
    assert(threshold_ >= 1);
    depth_ = std::min(levels, topo_->levels());
    top_ = depth_ + 1;
    const std::uint32_t nodes =
        (m.num_cpus() + cpn_ - 1) / cpn_;
    tiers_.resize(top_ + 1);
    // Tier 0: one queue per node, one slot per cpu.
    {
      Tier& t0 = tiers_[0];
      for (std::uint32_t n = 0; n < nodes; ++n) {
        t0.tail.push_back(m.galloc().alloc_word_line(n));
      }
      for (sim::CpuId c = 0; c < m.num_cpus(); ++c) {
        const sim::NodeId home = c / cpn_;
        t0.next.push_back(m.galloc().alloc_word_line(home));
        t0.spin.push_back(m.galloc().alloc_word_line(home));
      }
    }
    // Tier t: one queue per level-t entity, one slot per level-(t-1)
    // entity; every word is homed at the first node of its subtree.
    for (std::uint32_t t = 1; t <= depth_; ++t) {
      Tier& tier = tiers_[t];
      const std::uint32_t queues = topo_->ancestor_of(nodes - 1, t) + 1;
      for (std::uint32_t e = 0; e < queues; ++e) {
        tier.tail.push_back(
            m.galloc().alloc_word_line(topo_->subtree_first_node(t, e)));
      }
      const std::uint32_t slots = topo_->ancestor_of(nodes - 1, t - 1) + 1;
      for (std::uint32_t s = 0; s < slots; ++s) {
        const sim::NodeId home = topo_->subtree_first_node(t - 1, s);
        tier.next.push_back(m.galloc().alloc_word_line(home));
        tier.spin.push_back(m.galloc().alloc_word_line(home));
      }
    }
    // Root: a single queue over the level-depth entities.
    {
      Tier& root = tiers_[top_];
      root.tail.push_back(m.galloc().alloc_word_line(0));
      const std::uint32_t slots = topo_->ancestor_of(nodes - 1, depth_) + 1;
      for (std::uint32_t s = 0; s < slots; ++s) {
        const sim::NodeId home = topo_->subtree_first_node(depth_, s);
        root.next.push_back(m.galloc().alloc_word_line(home));
        root.spin.push_back(m.galloc().alloc_word_line(home));
      }
    }
  }

 private:
  sim::Task<void> lock(core::ThreadCtx& t) override {
    const sim::CpuId me = t.cpu();
    for (std::uint32_t tier = 0; tier <= top_; ++tier) {
      const Tier& q = tiers_[tier];
      const std::uint32_t slot = slot_of(me, tier);
      co_await WordWrite(mech_, t, q.next[slot], 0);
      co_await WordWrite(mech_, t, q.spin[slot], 0);
      const std::uint64_t pred =
          co_await rmw(mech_, t, amu::AmoOpcode::kSwap,
                       q.tail[queue_of(me, tier)], slot + 1);
      if (pred != 0) {
        co_await WordWrite(mech_, t, q.next[pred - 1], slot + 1);
        const std::uint64_t v = co_await spin_cached_until(
            t, q.spin[slot], [](std::uint64_t x) { return x != 0; });
        if (v != kAcquireParent) co_return;  // inherited the whole chain
      }
      // Queue head with no parent held: start a fresh streak and ascend.
      co_await WordWrite(mech_, t, q.spin[slot], 1);
    }
  }

  sim::Task<void> unlock(core::ThreadCtx& t) override {
    return release_tier(t, 0);
  }

  struct Tier {
    std::vector<sim::Addr> tail;  // one queue per entity at this tier
    std::vector<sim::Addr> next;  // one slot per contender (child entity)
    std::vector<sim::Addr> spin;
  };

  [[nodiscard]] std::uint32_t slot_of(sim::CpuId cpu,
                                      std::uint32_t tier) const {
    if (tier == 0) return cpu;
    return topo_->ancestor_of(cpu / cpn_, tier == top_ ? depth_ : tier - 1);
  }

  [[nodiscard]] std::uint32_t queue_of(sim::CpuId cpu,
                                       std::uint32_t tier) const {
    if (tier == top_) return 0;
    return topo_->ancestor_of(cpu / cpn_, tier);
  }

  sim::Task<void> release_tier(core::ThreadCtx& t, std::uint32_t tier) {
    const Tier& q = tiers_[tier];
    const std::uint32_t slot = slot_of(t.cpu(), tier);
    const std::uint64_t count = co_await t.load(q.spin[slot]);
    std::uint64_t succ = co_await t.load(q.next[slot]);
    // Pass within this tier while the streak allows: the successor
    // inherits every tier above (root streaks are unbounded — there is
    // nothing above to be fair to).
    if (succ != 0 && (tier == top_ || count < threshold_)) {
      co_await WordWrite(mech_, t, q.spin[succ - 1], count + 1);
      co_return;
    }
    // Streak over (or queue empty): surrender the parent chain first so a
    // waiting cluster can take it, then unblock this tier.
    if (tier < top_) co_await release_tier(t, tier + 1);
    if (succ == 0) {
      const std::uint32_t queue = queue_of(t.cpu(), tier);
      if (co_await rmw(mech_, t, amu::AmoOpcode::kCas, q.tail[queue],
                       slot + 1, 0) == slot + 1) {
        co_return;
      }
      // A contender is between the tail swap and the link: wait it out.
      succ = co_await spin_cached_until(
          t, q.next[slot], [](std::uint64_t v) { return v != 0; });
    }
    co_await WordWrite(mech_, t, q.spin[succ - 1], kAcquireParent);
  }

  Mechanism mech_;
  std::uint32_t cpn_;
  std::uint32_t threshold_;
  const net::Topology* topo_;
  std::uint32_t depth_ = 0;
  std::uint32_t top_ = 1;  // root tier index (== depth_ + 1)
  std::vector<Tier> tiers_;
};

}  // namespace

std::unique_ptr<Lock> make_hmcs_lock(core::Machine& m, Mechanism mech,
                                     std::uint32_t levels,
                                     std::uint32_t threshold) {
  return std::make_unique<HmcsLock>(m, mech, levels, threshold);
}

}  // namespace amo::sync
