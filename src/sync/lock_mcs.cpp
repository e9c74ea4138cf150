#include <cassert>
#include <vector>

#include "sync/lock.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

// MCS queue lock (Mellor-Crummey & Scott, 1991): contenders form an
// explicit linked queue of per-thread nodes; each waiter spins on its own
// flag (purely local), and the releaser writes exactly one remote word.
//
// Queue-node pointers are encoded as (cpu + 1); 0 means "nil". Each
// per-cpu node has two words — `next` and `locked` — in separate cache
// lines, homed on the cpu's own node so spinning is local.
//
// Per mechanism: the tail swap / CAS and the cross-thread word writes
// (pred->next, successor->locked) go through the chosen mechanism; AMO
// uses eager-put amo.swap so the remote cached copies are patched in
// place rather than invalidated.
class McsLock final : public Lock {
 public:
  McsLock(core::Machine& m, Mechanism mech)
      : Lock(m), mech_(mech) {
    tail_ = m.galloc().alloc_word_line(0);
    const std::uint32_t cpus = m.num_cpus();
    next_.reserve(cpus);
    locked_.reserve(cpus);
    for (sim::CpuId c = 0; c < cpus; ++c) {
      const sim::NodeId home = c / m.config().cpus_per_node;
      next_.push_back(m.galloc().alloc_word_line(home));
      locked_.push_back(m.galloc().alloc_word_line(home));
    }
  }

 private:
  sim::Task<void> lock(core::ThreadCtx& t) override {
    const sim::CpuId me = t.cpu();
    co_await WordWrite(mech_, t, next_[me], 0);
    co_await WordWrite(mech_, t, locked_[me], 1);
    const std::uint64_t pred =
        co_await rmw(mech_, t, amu::AmoOpcode::kSwap, tail_, me + 1);
    if (pred == 0) co_return;  // lock was free
    // Link behind the predecessor, then spin on our own flag.
    co_await WordWrite(mech_, t, next_[pred - 1], me + 1);
    (void)co_await spin_cached_until(
        t, locked_[me], [](std::uint64_t v) { return v == 0; });
  }

  sim::Task<void> unlock(core::ThreadCtx& t) override {
    const sim::CpuId me = t.cpu();
    std::uint64_t succ = co_await t.load(next_[me]);
    if (succ == 0) {
      // No visible successor: try to swing the tail back to nil.
      if (co_await rmw(mech_, t, amu::AmoOpcode::kCas, tail_, me + 1, 0) ==
          me + 1) {
        co_return;
      }
      // A contender is between the tail swap and the link: wait for it.
      succ = co_await spin_cached_until(
          t, next_[me], [](std::uint64_t v) { return v != 0; });
    }
    co_await WordWrite(mech_, t, locked_[succ - 1], 0);  // hand off
  }

  Mechanism mech_;
  sim::Addr tail_ = 0;
  std::vector<sim::Addr> next_;
  std::vector<sim::Addr> locked_;
};

}  // namespace

std::unique_ptr<Lock> make_mcs_lock(core::Machine& m, Mechanism mech) {
  return std::make_unique<McsLock>(m, mech);
}

}  // namespace amo::sync
