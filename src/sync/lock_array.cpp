#include <cassert>
#include <string>
#include <vector>

#include "sync/lock.hpp"
#include "sync/recording.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

// Anderson's array-based queuing lock: a fetch-add sequencer hands out
// slots; each waiter spins on its own flag (own cache line), so a release
// touches exactly one remote cache.
//
// The sequencer uses the chosen mechanism; flags are ordinary coherent
// variables for conventional mechanisms and MAO (the paper applies MAO to
// the counter only), while AMO also drives the flag writes through
// amo.swap so the winner's cached copy is patched in place.
class ArrayLock final : public Lock {
 public:
  ArrayLock(core::Machine& m, Mechanism mech, std::uint32_t slots)
      : mech_(mech),
        nslots_(slots),
        sw_half_(m.config().lock_sw_overhead / 2),
        my_slot_(m.num_cpus(), 0),
        name_(std::string(to_string(mech)) + " array lock") {
    assert(slots >= 1);
    sequencer_ = m.galloc().alloc_word_line(0);
    flags_.reserve(slots);
    for (std::uint32_t i = 0; i < slots; ++i) {
      flags_.push_back(m.galloc().alloc_word_line(0));
    }
    // Cold-start state: slot 0 holds the grant.
    m.backing().write_word(flags_[0], 1);
  }

  sim::Task<void> acquire(core::ThreadCtx& t) override {
    if (sw_half_ > 0) co_await t.compute(sw_half_);
    // Keep the co_await in its own statement: GCC 12 with
    // -fsanitize=undefined miscompiles arithmetic applied directly to a
    // co_await result (it yielded s == nslots_ here).
    const std::uint64_t ticket = co_await fetch_add(mech_, t, sequencer_, 1);
    const std::uint64_t s = ticket % nslots_;
    my_slot_[t.cpu()] = static_cast<std::uint32_t>(s);
    (void)co_await spin_cached_until(
        t, flags_[s], [](std::uint64_t v) { return v != 0; });
    // Consume the grant so the slot is clean when the sequencer wraps.
    co_await write_flag(t, flags_[s], 0);
  }

  sim::Task<void> release(core::ThreadCtx& t) override {
    if (sw_half_ > 0) co_await t.compute(sw_half_);
    const std::uint32_t next = (my_slot_[t.cpu()] + 1) % nslots_;
    co_await write_flag(t, flags_[next], 1);
  }

  [[nodiscard]] const char* name() const override { return name_.c_str(); }
  [[nodiscard]] std::uint32_t slot_of(sim::CpuId cpu) const {
    return my_slot_[cpu];
  }

 private:
  sim::Task<void> write_flag(core::ThreadCtx& t, sim::Addr flag,
                             std::uint64_t v) {
    if (mech_ == Mechanism::kAmo) {
      return drop_result(t.amo(amu::AmoOpcode::kSwap, flag, v));
    }
    return t.store(flag, v);
  }

  static sim::Task<void> drop_result(sim::Task<std::uint64_t> task) {
    (void)co_await std::move(task);
  }

  Mechanism mech_;
  std::uint32_t nslots_;
  sim::Cycle sw_half_;
  sim::Addr sequencer_ = 0;
  std::vector<sim::Addr> flags_;
  std::vector<std::uint32_t> my_slot_;
  std::string name_;
};

}  // namespace

std::unique_ptr<Lock> make_array_lock(core::Machine& m, Mechanism mech,
                                      std::uint32_t slots) {
  return with_acquire_hist(m, std::make_unique<ArrayLock>(m, mech, slots));
}

std::uint32_t array_lock_slot(const Lock& lock, sim::CpuId cpu) {
  const auto* array = dynamic_cast<const ArrayLock*>(&lock);
  assert(array != nullptr && "not an unwrapped array lock");
  return array->slot_of(cpu);
}

}  // namespace amo::sync
