#include "svc/service.hpp"

namespace amo::svc {

ShardedService::ShardedService(core::Machine& m, sync::Mechanism mech)
    : mech_(mech),
      work_(m.config().service.work_cycles),
      key_space_(m.config().service.key_space) {
  const core::ServiceConfig& cfg = m.config().service;
  shards_.reserve(cfg.shards);
  for (std::uint32_t s = 0; s < cfg.shards; ++s) {
    const sim::NodeId home = s % m.num_nodes();
    Shard sh;
    sh.lock = sync::make_ticket_lock(m, mech);
    sh.ops = std::make_unique<ds::Counter>(m, home);
    sh.log = std::make_unique<ds::MpmcQueue>(m, home, cfg.queue_capacity);
    shards_.push_back(std::move(sh));
  }
}

sim::Task<void> ShardedService::handle(core::ThreadCtx& t,
                                       std::uint64_t key) {
  Shard& sh = shards_[shard_of(key)];
  co_await sh.lock->acquire(t);
  if (work_ > 0) co_await t.compute(work_);
  // The op count is part of the critical section's state update; bump it
  // through the swept mechanism so its cost rides the comparison too.
  (void)co_await sync::rmw(mech_, t, amu::AmoOpcode::kFetchAdd,
                           sh.ops->address(), 1);
  co_await sh.lock->release(t);
  co_await sh.log->enqueue(t, key);
  (void)co_await sh.log->dequeue(t);
}

sim::Task<std::uint64_t> ShardedService::total_ops(core::ThreadCtx& t) {
  std::uint64_t total = 0;
  for (Shard& sh : shards_) {
    // MAO bumps live outside the coherent domain (O2K/T3E semantics), so
    // read them back through the uncached path they were written by.
    // if/else, not `?:`: GCC 12 evaluates both arms (DESIGN.md §8).
    std::uint64_t ops = 0;
    if (mech_ == sync::Mechanism::kMao) {
      ops = co_await t.uncached_load(sh.ops->address());
    } else {
      ops = co_await sh.ops->read(t);
    }
    total += ops;
  }
  co_return total;
}

}  // namespace amo::svc
