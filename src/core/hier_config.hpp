// Hierarchy-aware synchronization knobs.
//
// The fat tree already encodes locality; these knobs let the sync
// library exploit it. `levels` selects how many physical tree levels the
// cluster mechanisms (CNA lock, HMCS lock, cluster barrier) fold into
// their hierarchy; the thresholds bound intra-cluster favoritism so
// remote waiters cannot starve.
#pragma once

#include <cstdint>

namespace amo::core {

struct HierConfig {
  /// Tree levels the hierarchical mechanisms span: cluster-of-cpu is the
  /// node's ancestor entity at this level. Must be >= 1 and at most the
  /// height of the derived topology (validate() enforces this).
  std::uint32_t levels = 1;

  /// CNA lock: consecutive same-cluster handoffs before the detached
  /// remote queue is spliced back in (starvation bound). Must be nonzero.
  std::uint32_t cna_threshold = 64;

  /// HMCS lock: consecutive intra-cluster passes per hierarchy level
  /// before the parent lock is released. Must be nonzero.
  std::uint32_t hmcs_threshold = 8;
};

}  // namespace amo::core
