#include <vector>

#include "sync/lock.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

constexpr sim::Cycle kBackoffUnit = 400;  // cycles per position in line

// FIFO ticket lock (Mellor-Crummey & Scott). Acquire: fetch-add the
// sequencer, wait until now_serving reaches the ticket. Release: advance
// now_serving.
//
// Per mechanism:
//   LL/SC, Atomic  sequencer via LL/SC / atomic; cached spin; release by
//                  plain store (invalidates all spinners).
//   ActMsg         sequencer and release via AMs on the home processor;
//                  cached spin (the handler's coherent RMW invalidates).
//   MAO            sequencer via memory-side atomic; now_serving is a MAO
//                  variable too, so spinning is *uncached* remote polling
//                  (with optional proportional backoff).
//   AMO            sequencer via amo.fetchadd; release via amo.fetchadd on
//                  now_serving — its eager word-put patches every
//                  spinner's cached copy in place (no invalidation storm).
class TicketLock final : public Lock {
 public:
  TicketLock(core::Machine& m, Mechanism mech, TicketBackoff backoff)
      : Lock(m),
        mech_(mech),
        backoff_(backoff),
        my_ticket_(m.num_cpus(), 0) {
    next_ticket_ = m.galloc().alloc_word_line(0);
    now_serving_ = m.galloc().alloc_word_line(0);
  }

 private:
  sim::Task<void> lock(core::ThreadCtx& t) override {
    const std::uint64_t my =
        co_await rmw(mech_, t, amu::AmoOpcode::kFetchAdd, next_ticket_, 1);
    my_ticket_[t.cpu()] = my;
    if (mech_ == Mechanism::kMao) {
      const auto backoff = [this, my](std::uint64_t v) -> sim::Cycle {
        if (backoff_ == TicketBackoff::kNone) return 0;
        return kBackoffUnit * (my - v);
      };
      (void)co_await spin_uncached_until(
          t, now_serving_, [my](std::uint64_t v) { return v == my; },
          backoff);
      co_return;
    }
    (void)co_await spin_cached_until(
        t, now_serving_, [my](std::uint64_t v) { return v == my; });
  }

  sim::Task<void> unlock(core::ThreadCtx& t) override {
    const std::uint64_t next = my_ticket_[t.cpu()] + 1;
    switch (mech_) {
      case Mechanism::kLlSc:
      case Mechanism::kAtomic:
        // Only the holder writes now_serving: a plain store suffices.
        co_await t.store(now_serving_, next);
        co_return;
      case Mechanism::kActMsg:
        (void)co_await t.am_fetch_add(now_serving_, 1);
        co_return;
      case Mechanism::kMao:
        (void)co_await t.mao_fetch_add(now_serving_, 1);
        co_return;
      case Mechanism::kAmo:
        (void)co_await t.amo_fetch_add(now_serving_, 1);
        co_return;
    }
  }

  Mechanism mech_;
  TicketBackoff backoff_;
  sim::Addr next_ticket_ = 0;
  sim::Addr now_serving_ = 0;
  std::vector<std::uint64_t> my_ticket_;
};

}  // namespace

std::unique_ptr<Lock> make_ticket_lock(core::Machine& m, Mechanism mech,
                                       TicketBackoff backoff) {
  return std::make_unique<TicketLock>(m, mech, backoff);
}

}  // namespace amo::sync
