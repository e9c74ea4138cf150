// Additional barrier algorithms: the paper's Fig. 3(a) naive coding and
// a dissemination barrier (extension baseline).
#include <cassert>
#include <vector>

#include "sync/barrier.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

// Fig. 3(a):
//   atomic_inc(&barrier_variable);
//   spin_until(barrier_variable == num_procs);
// Spinning on the barrier variable itself means every later increment
// competes with the spinners' reads — the interference the "optimized"
// coding exists to avoid. With AMOs, this coding IS the efficient one.
class NaiveBarrier final : public Barrier {
 public:
  NaiveBarrier(core::Machine& m, Mechanism mech, std::uint32_t participants)
      : Barrier(m), mech_(mech), p_(participants) {
    assert(participants >= 1 && participants <= m.num_cpus());
    counter_ = m.galloc().alloc_word_line(0);
  }

 private:
  sim::Task<void> episode(core::ThreadCtx& t, std::uint64_t ep) override {
    const std::uint64_t target = ep * p_;

    if (mech_ == Mechanism::kAmo) {
      (void)co_await t.amo(amu::AmoOpcode::kFetchAdd, counter_, 1, target);
    } else {
      (void)co_await rmw(mech_, t, amu::AmoOpcode::kFetchAdd, counter_, 1);
    }
    if (mech_ == Mechanism::kMao) {
      // MAO variables must not be cached: spin with uncached polls.
      (void)co_await spin_uncached_until(
          t, counter_, [target](std::uint64_t v) { return v >= target; },
          [](std::uint64_t) { return sim::Cycle{200}; });
    } else {
      (void)co_await spin_cached_until(
          t, counter_, [target](std::uint64_t v) { return v >= target; });
    }
  }

  Mechanism mech_;
  std::uint32_t p_;
  sim::Addr counter_ = 0;
};

// Dissemination barrier: in round k (k = 0..ceil(log2 P)-1), thread i
// signals thread (i + 2^k) mod P and waits for its own signal. Every
// flag has exactly one writer per round, so plain stores of the episode
// number suffice; there is no hot spot by construction.
class DisseminationBarrier final : public Barrier {
 public:
  DisseminationBarrier(core::Machine& m, Mechanism mech,
                       std::uint32_t participants)
      : Barrier(m), mech_(mech), p_(participants) {
    assert(participants >= 1 && participants <= m.num_cpus());
    rounds_ = 0;
    for (std::uint32_t span = 1; span < p_; span *= 2) ++rounds_;
    flags_.resize(p_);
    for (std::uint32_t i = 0; i < p_; ++i) {
      const sim::NodeId home = i / m.config().cpus_per_node;
      for (std::uint32_t k = 0; k < rounds_; ++k) {
        // Waiter-local placement: thread i spins on flags_[i][k].
        flags_[i].push_back(m.galloc().alloc_word_line(home));
      }
    }
  }

 private:
  sim::Task<void> episode(core::ThreadCtx& t, std::uint64_t ep) override {
    const std::uint32_t me = t.cpu();
    std::uint32_t span = 1;
    for (std::uint32_t k = 0; k < rounds_; ++k, span *= 2) {
      const std::uint32_t partner = (me + span) % p_;
      co_await WordWrite(mech_, t, flags_[partner][k], ep);
      (void)co_await spin_cached_until(
          t, flags_[me][k], [ep](std::uint64_t v) { return v >= ep; });
    }
  }

  Mechanism mech_;
  std::uint32_t p_;
  std::uint32_t rounds_ = 0;
  std::vector<std::vector<sim::Addr>> flags_;  // [thread][round]
};

}  // namespace

std::unique_ptr<Barrier> make_naive_barrier(core::Machine& m, Mechanism mech,
                                            std::uint32_t participants) {
  return std::make_unique<NaiveBarrier>(m, mech, participants);
}

std::unique_ptr<Barrier> make_dissemination_barrier(
    core::Machine& m, Mechanism mech, std::uint32_t participants) {
  return std::make_unique<DisseminationBarrier>(m, mech, participants);
}

}  // namespace amo::sync
