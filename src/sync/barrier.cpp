#include "sync/barrier.hpp"

namespace amo::sync {

Barrier::Barrier(core::Machine& m)
    : sw_half_(m.config().barrier_sw_overhead / 2),
      hist_(m.sync_hists().barrier_episode),
      episodes_(m.num_cpus(), 0) {}

sim::Task<void> Barrier::wait(core::ThreadCtx& t) {
  const sim::Cycle start = t.now();
  if (sw_half_ > 0) co_await t.compute(sw_half_);
  co_await episode(t, ++episodes_[t.cpu()]);
  if (sw_half_ > 0) co_await t.compute(sw_half_);
  if (hist_ != nullptr) hist_->record(t.now() - start);
}

}  // namespace amo::sync
