// Interfaces between the directory and the agents it steers. They break
// the dependency cycle directory <-> cache controller <-> AMU: the
// directory only sees these narrow views, wired up by core::Machine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace amo::coh {

class Directory;

/// Directory-facing side of a per-core cache controller.
class CacheIface {
 public:
  virtual ~CacheIface() = default;

  /// Line data response for an outstanding GetS/GetX (exclusive =>
  /// E-state grant). Completes the MSHR and wakes waiters. The payload is
  /// a view into the sender's buffer, valid only for the duration of the
  /// call; the cache copies it into its own line storage.
  virtual void on_data(sim::Addr block, bool exclusive,
                       std::span<const std::uint64_t> data) = 0;

  /// Upgrade succeeded: promote the resident S line to M.
  virtual void on_upgrade_ack(sim::Addr block) = 0;

  /// Invalidate the line (if present) and acknowledge to home.
  virtual void on_inval(sim::Addr block) = 0;

  /// Home recalls the line: respond with data (downgrading to S, or
  /// invalidating when `exclusive`), or report that the line is gone.
  /// In three-hop mode `fwd_to` names the requesting cpu: the owner sends
  /// the data directly to it (plus a revision to home); kInvalidCpu means
  /// home-centric (data travels through home).
  virtual void on_recall(sim::Addr block, bool exclusive,
                         sim::CpuId fwd_to) = 0;

  /// Fine-grained word update (the AMO "put" wave): patch the word in
  /// place if the line is resident; otherwise drop.
  virtual void on_word_update(sim::Addr addr, std::uint64_t value) = 0;
};

/// Directory-facing side of the node's Active Memory Unit.
class AmuIface {
 public:
  virtual ~AmuIface() = default;

  /// True if the AMU cache holds this (aligned) word.
  [[nodiscard]] virtual bool holds_word(sim::Addr addr) const = 0;

  /// Current value of an AMU-resident word (merge on coherent reads).
  [[nodiscard]] virtual std::uint64_t peek_word(sim::Addr addr) const = 0;

  /// Writes an AMU-resident word in place. Nothing in the simulator calls
  /// it since uncached stores went; perfbench/probes.cpp's stub AMU
  /// overrides it, so it stays until that harness may change.
  virtual void store_word(sim::Addr addr, std::uint64_t value) = 0;

  /// Forced invalidation of all words in `block` (a processor is taking
  /// exclusive ownership). The directory merges values first.
  virtual void drop_block(sim::Addr block) = 0;
};

/// Registry of every protocol agent in the machine, indexed by CpuId /
/// NodeId. Populated by core::Machine before the first cycle.
struct Agents {
  std::vector<CacheIface*> caches;  // [cpu]
  std::vector<Directory*> dirs;     // [node]
  std::vector<AmuIface*> amus;      // [node]
};

}  // namespace amo::coh
