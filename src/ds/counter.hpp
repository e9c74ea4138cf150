// A shared statistics counter built on AMOs — the paper's observation
// that memory-side atomics suit data "not accessed many times between
// when [it is] loaded into a cache and later evicted" applied beyond
// synchronization: increments never migrate the line; readers get the
// coherent value through the AMU merge path.
#pragma once

#include <cstdint>

#include "core/machine.hpp"
#include "core/thread_ctx.hpp"
#include "sim/task.hpp"

namespace amo::ds {

class Counter {
 public:
  /// Allocates the counter cell on `home` (its AMU does the work).
  Counter(core::Machine& m, sim::NodeId home)
      : cell_(m.galloc().alloc_word_line(home)) {}

  /// Atomically adds `delta`; returns the previous value. One message
  /// pair regardless of contention. Await at once.
  cpu::Core::AmoAwaiter add(core::ThreadCtx& t, std::uint64_t delta) {
    return t.amo_fetch_add(cell_, delta);
  }

  /// Coherent read (may briefly cache; AMU merges keep it current).
  /// Await at once.
  coh::CacheCtrl::LoadAwaiter read(core::ThreadCtx& t) {
    return t.load(cell_);
  }

  [[nodiscard]] sim::Addr address() const { return cell_; }

 private:
  sim::Addr cell_;
};

}  // namespace amo::ds
