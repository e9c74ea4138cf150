#include "sync/lock.hpp"

namespace amo::sync {

Lock::Lock(core::Machine& m)
    : sw_half_(m.config().lock_sw_overhead / 2),
      hist_(m.sync_hists().lock_acquire) {}

sim::Task<void> Lock::acquire(core::ThreadCtx& t) {
  const sim::Cycle start = t.now();
  if (sw_half_ > 0) co_await t.compute(sw_half_);
  co_await lock(t);
  if (hist_ != nullptr) hist_->record(t.now() - start);
}

sim::Task<void> Lock::release(core::ThreadCtx& t) {
  if (sw_half_ > 0) co_await t.compute(sw_half_);
  co_await unlock(t);
}

}  // namespace amo::sync
