#include <cassert>
#include <vector>

#include "net/topology.hpp"
#include "sync/lock.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

// Compact NUMA-aware (CNA) queue lock, after Dice & Kogan: an MCS queue
// whose releaser prefers a successor in its own cluster (the holder's
// topology subtree at `hier.levels`). Remote waiters the releaser scans
// over are detached onto a secondary queue; a per-handoff starvation
// counter bounds how long they can sit there — once `threshold`
// consecutive handoffs bypass a non-empty secondary queue, it is spliced
// back in FRONT of the main queue.
//
// Queue words (tail, per-cpu next/spin) go through the chosen mechanism
// exactly like the MCS lock. The secondary-queue head/tail and the
// starvation counter are holder-only state — written only while holding
// the lock — so they are plain loads/stores whose cache line migrates
// with the lock itself (that is the "compact" in CNA: no per-cluster
// lock structures).
//
// Invariants:
//   * main queue: tail_ reaches every linked waiter from the holder's
//     next_ chain; a waiter with next_ == 0 may have an in-flight linker
//     (classic MCS), which the releaser only waits out when it holds the
//     tail.
//   * secondary queue: sec_head_..sec_tail_ is a next_-linked chain,
//     terminated (next_[sec_tail_] == 0), disjoint from the main queue.
//   * bounded starvation: streak_ counts consecutive handoffs made while
//     the secondary queue was non-empty; it can never exceed threshold,
//     at which point the splice drains the secondary queue first.
class CnaLock final : public Lock {
 public:
  CnaLock(core::Machine& m, Mechanism mech, std::uint32_t level,
          std::uint32_t threshold)
      : Lock(m),
        mech_(mech),
        threshold_(threshold) {
    assert(threshold_ >= 1);
    const net::Topology& topo = m.network().topology();
    const std::uint32_t lvl = std::min(level, topo.levels());
    const std::uint32_t cpn = m.config().cpus_per_node;
    tail_ = m.galloc().alloc_word_line(0);
    sec_head_ = m.galloc().alloc_word_line(0);
    sec_tail_ = m.galloc().alloc_word_line(0);
    streak_ = m.galloc().alloc_word_line(0);
    const std::uint32_t cpus = m.num_cpus();
    next_.reserve(cpus);
    spin_.reserve(cpus);
    cluster_.reserve(cpus);
    for (sim::CpuId c = 0; c < cpus; ++c) {
      const sim::NodeId home = c / cpn;
      next_.push_back(m.galloc().alloc_word_line(home));
      spin_.push_back(m.galloc().alloc_word_line(home));
      cluster_.push_back(topo.ancestor_of(home, lvl));
    }
  }

 private:
  sim::Task<void> lock(core::ThreadCtx& t) override {
    const sim::CpuId me = t.cpu();
    co_await WordWrite(mech_, t, next_[me], 0);
    co_await WordWrite(mech_, t, spin_[me], 0);
    const std::uint64_t pred =
        co_await rmw(mech_, t, amu::AmoOpcode::kSwap, tail_, me + 1);
    if (pred == 0) co_return;  // lock was free
    co_await WordWrite(mech_, t, next_[pred - 1], me + 1);
    (void)co_await spin_cached_until(
        t, spin_[me], [](std::uint64_t v) { return v != 0; });
  }

  sim::Task<void> unlock(core::ThreadCtx& t) override {
    const sim::CpuId me = t.cpu();
    std::uint64_t succ = co_await t.load(next_[me]);
    if (succ == 0) {
      const std::uint64_t sec = co_await t.load(sec_head_);
      if (sec == 0) {
        // Queue truly empty: swing the tail back to nil.
        if (co_await rmw(mech_, t, amu::AmoOpcode::kCas, tail_, me + 1, 0) ==
            me + 1) {
          co_return;
        }
      } else {
        // Main queue looks empty but remote waiters are parked on the
        // secondary queue: promote it to BE the main queue.
        const std::uint64_t stail = co_await t.load(sec_tail_);
        if (co_await rmw(mech_, t, amu::AmoOpcode::kCas, tail_, me + 1,
                         stail) == me + 1) {
          co_await t.store(sec_head_, 0);
          co_await t.store(sec_tail_, 0);
          co_await t.store(streak_, 0);
          co_await WordWrite(mech_, t, spin_[sec - 1], 1);
          co_return;
        }
      }
      // A contender is between the tail swap and the link: wait it out.
      succ = co_await spin_cached_until(
          t, next_[me], [](std::uint64_t v) { return v != 0; });
    }

    const std::uint64_t sec = co_await t.load(sec_head_);
    if (sec != 0) {
      const std::uint64_t streak = co_await t.load(streak_);
      if (streak >= threshold_) {
        // Starvation bound hit: splice the secondary queue in front of
        // the main queue and hand off to its head.
        const std::uint64_t stail = co_await t.load(sec_tail_);
        co_await WordWrite(mech_, t, next_[stail - 1], succ);
        co_await t.store(sec_head_, 0);
        co_await t.store(sec_tail_, 0);
        co_await t.store(streak_, 0);
        co_await WordWrite(mech_, t, spin_[sec - 1], 1);
        co_return;
      }
    }

    // Scan the linked prefix of the main queue for a waiter in the
    // holder's cluster. The scan stops at an unlinked next_ — in-flight
    // linkers keep their place; CNA only reorders what is visible.
    const std::uint32_t my_cluster = cluster_[me];
    std::uint64_t cur = succ;
    std::uint64_t prev = 0;
    std::uint64_t local = 0;
    while (cur != 0) {
      if (cluster_[cur - 1] == my_cluster) {
        local = cur;
        break;
      }
      prev = cur;
      cur = co_await t.load(next_[cur - 1]);
    }

    if (local == 0) {
      if (sec != 0) {
        // No local waiter: drain the aged secondary queue first, keeping
        // the (all-remote) main queue behind it.
        const std::uint64_t stail = co_await t.load(sec_tail_);
        co_await WordWrite(mech_, t, next_[stail - 1], succ);
        co_await t.store(sec_head_, 0);
        co_await t.store(sec_tail_, 0);
        co_await t.store(streak_, 0);
        co_await WordWrite(mech_, t, spin_[sec - 1], 1);
        co_return;
      }
      // FIFO handoff; nothing bypassed, no preference recorded.
      co_await WordWrite(mech_, t, spin_[succ - 1], 1);
      co_return;
    }

    if (local != succ) {
      // Detach the scanned-over remote prefix [succ .. prev] onto the
      // secondary queue (append, preserving age order).
      if (sec == 0) {
        co_await t.store(sec_head_, succ);
      } else {
        const std::uint64_t stail = co_await t.load(sec_tail_);
        co_await WordWrite(mech_, t, next_[stail - 1], succ);
      }
      co_await t.store(sec_tail_, prev);
      co_await WordWrite(mech_, t, next_[prev - 1], 0);
    }
    if (sec != 0 || local != succ) {
      // This handoff bypasses a (now) non-empty secondary queue.
      const std::uint64_t streak = co_await t.load(streak_);
      co_await t.store(streak_, streak + 1);
    }
    co_await WordWrite(mech_, t, spin_[local - 1], 1);
  }

  Mechanism mech_;
  std::uint32_t threshold_;
  sim::Addr tail_ = 0;
  sim::Addr sec_head_ = 0;  // holder-only words
  sim::Addr sec_tail_ = 0;
  sim::Addr streak_ = 0;
  std::vector<sim::Addr> next_;
  std::vector<sim::Addr> spin_;
  std::vector<std::uint32_t> cluster_;  // cluster id per cpu (host-side)
};

}  // namespace

std::unique_ptr<Lock> make_cna_lock(core::Machine& m, Mechanism mech,
                                    std::uint32_t level,
                                    std::uint32_t threshold) {
  return std::make_unique<CnaLock>(m, mech, level, threshold);
}

}  // namespace amo::sync
