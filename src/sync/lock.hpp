// Spin-lock interface + factories: TAS, ticket, Anderson's array, MCS,
// CNA and HMCS locks, each over all five mechanisms.
#pragma once

#include <cstdint>
#include <memory>

#include "core/machine.hpp"
#include "core/thread_ctx.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sync/mechanism.hpp"

namespace amo::sync {

/// The shell every lock passage runs through. acquire() and release()
/// each pay half of lock_sw_overhead (a zero half schedules nothing)
/// around the algorithm's lock() / unlock(); acquire() records its
/// latency, overhead included, into sync.lock_acquire_hist when
/// stats.histograms is on.
class Lock {
 public:
  virtual ~Lock() = default;
  sim::Task<void> acquire(core::ThreadCtx& t);
  sim::Task<void> release(core::ThreadCtx& t);

 protected:
  explicit Lock(core::Machine& m);

 private:
  virtual sim::Task<void> lock(core::ThreadCtx& t) = 0;
  virtual sim::Task<void> unlock(core::ThreadCtx& t) = 0;

  sim::Cycle sw_half_;
  sim::LogHistogram* hist_;  // nullptr when histograms are off
};

/// Spin policy while waiting for now_serving (ticket lock). MAO always
/// spins uncached; this selects its inter-poll backoff (Mellor-Crummey &
/// Scott's proportional backoff vs none — an ablation the paper discusses).
enum class TicketBackoff : std::uint8_t { kNone, kProportional };

/// FIFO ticket lock. Default: no backoff — the paper's evaluated ticket
/// locks spin without it (backoff is "less effective" and "not risk-free"
/// on CC machines, §3.3.2); MAO's uncached polling then floods the home
/// MC, which is why the paper's MAO ticket lock barely beats LL/SC. The
/// proportional policy is exercised by the ablation_backoff workload.
std::unique_ptr<Lock> make_ticket_lock(
    core::Machine& m, Mechanism mech,
    TicketBackoff backoff = TicketBackoff::kNone);

/// Anderson's array-based queuing lock: `slots` must be at least the
/// maximum number of concurrent contenders (usually num_cpus).
std::unique_ptr<Lock> make_array_lock(core::Machine& m, Mechanism mech,
                                      std::uint32_t slots);

/// The slot `cpu`'s latest acquire of `lock` drew; `lock` must come from
/// make_array_lock. For tests: every slot must lie in [0, slots).
std::uint32_t array_lock_slot(const Lock& lock, sim::CpuId cpu);

/// Mellor-Crummey & Scott's MCS queue lock (extension beyond the paper's
/// evaluation): per-thread queue nodes, purely local spinning, swap/CAS
/// through the chosen mechanism. AMO mode drives the handoff flags with
/// amo.swap so the successor's cached copy is patched in place.
std::unique_ptr<Lock> make_mcs_lock(core::Machine& m, Mechanism mech);

/// Compact NUMA-aware queue lock (Dice & Kogan): an MCS queue whose
/// releaser prefers a successor inside its own cluster — the holder's
/// topology subtree at `level` — parking scanned-over remote waiters on a
/// secondary queue. `threshold` bounds starvation: after that many
/// consecutive handoffs bypassing a non-empty secondary queue, it is
/// spliced back in front.
std::unique_ptr<Lock> make_cna_lock(core::Machine& m, Mechanism mech,
                                    std::uint32_t level,
                                    std::uint32_t threshold);

/// Hierarchical MCS lock (Chabbi et al.): a stack of MCS queues following
/// the machine's fat tree (node tier, `levels` cluster tiers, a root).
/// Handoffs stay inside the smallest cluster with a waiter for up to
/// `threshold` consecutive passes per tier before the parent tier is
/// surrendered.
std::unique_ptr<Lock> make_hmcs_lock(core::Machine& m, Mechanism mech,
                                     std::uint32_t levels,
                                     std::uint32_t threshold);

/// Test-and-test-and-set lock with exponential backoff (classic baseline).
std::unique_ptr<Lock> make_tas_lock(core::Machine& m, Mechanism mech);

}  // namespace amo::sync
