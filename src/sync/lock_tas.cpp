#include <algorithm>

#include "sync/lock.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

constexpr sim::Cycle kBackoffMin = 64;    // first backoff after a failure
constexpr sim::Cycle kBackoffMax = 8192;  // exponential cap

// Test-and-test-and-set lock with exponential backoff: the classic
// baseline every queue lock is measured against. Readers spin on a cached
// copy; an acquisition attempt is an atomic swap; contention produces the
// textbook invalidation storm that backoff dampens.
class TasLock final : public Lock {
 public:
  TasLock(core::Machine& m, Mechanism mech)
      : Lock(m), mech_(mech) {
    word_ = m.galloc().alloc_word_line(0);
  }

 private:
  sim::Task<void> lock(core::ThreadCtx& t) override {
    sim::Cycle backoff = kBackoffMin;
    for (;;) {
      // Test: wait until the lock looks free. MAO variables must never be
      // cached, so the MAO flavour polls uncached; everyone else spins on
      // a cached copy.
      if (mech_ == Mechanism::kMao) {
        (void)co_await spin_uncached_until(
            t, word_, [](std::uint64_t v) { return v == 0; },
            [&backoff](std::uint64_t) { return backoff; });
      } else {
        (void)co_await spin_cached_until(
            t, word_, [](std::uint64_t v) { return v == 0; });
      }
      // Test-and-set: one attempt; on failure, back off exponentially.
      if (co_await rmw(mech_, t, amu::AmoOpcode::kSwap, word_, 1) == 0) {
        co_return;
      }
      co_await t.delay(t.rng().below(backoff) + 1);
      backoff = std::min<sim::Cycle>(backoff * 2, kBackoffMax);
    }
  }

  sim::Task<void> unlock(core::ThreadCtx& t) override {
    switch (mech_) {
      case Mechanism::kAmo:
        // Eager-put release: spinners' copies flip to 0 in place.
        (void)co_await t.amo(amu::AmoOpcode::kSwap, word_, 0);
        co_return;
      case Mechanism::kMao:
        // Stay out of the coherent domain end to end.
        (void)co_await t.core().mao(amu::AmoOpcode::kSwap, word_, 0);
        co_return;
      default:
        co_await t.store(word_, 0);
    }
  }

  Mechanism mech_;
  sim::Addr word_ = 0;
};

}  // namespace

std::unique_ptr<Lock> make_tas_lock(core::Machine& m, Mechanism mech) {
  return std::make_unique<TasLock>(m, mech);
}

}  // namespace amo::sync
