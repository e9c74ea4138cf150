// Shared protocol constants and limits for the directory coherence layer.
//
// The protocol is a home-centric blocking MESI directory (SGI Origin
// flavoured, simplified to route all data through the home):
//
//   * one transaction per block at a time; later requests queue at home
//   * GetS:    Uncached -> DataE (MESI clean-exclusive) | Shared -> Data(S)
//              Exclusive -> Recall-S owner, data via home
//   * GetX:    invalidate sharers (acks to home), recall owner, DataE
//   * Upgrade: ack-only if the requestor still shares, else degenerates
//              to GetX (the requestor lost its copy to a crossing inval)
//   * PutM/PutE: eviction notices; a putback crossing a recall is consumed
//              as the recall's data (per-(src,dst) FIFO makes this safe)
//
// Fine-grained extension (the paper's get/put):
//   * WordGet:  the local AMU becomes a word-granular sharer that may
//               modify without ownership
//   * WordPut:  word updates pushed to memory and every sharer's cache
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace amo::coh {

/// Upper bound on processors (paper max: 256; headroom for the 4096-CPU
/// smoke and the 1024–4096 CPU hierarchy sweeps beyond the paper's
/// table). Directory entries embed a kMaxCpus-wide SharerSet
/// (512 B at 4096); update waves carry only its words in use, so raising
/// this further mostly costs directory slab bytes.
inline constexpr std::uint32_t kMaxCpus = 4096;

/// Physical address layout: the top bits name the home node. The global
/// allocator (core::GAlloc) hands out addresses as (node << shift) | offset.
inline constexpr std::uint32_t kNodeAddrShift = 32;

[[nodiscard]] inline sim::NodeId home_of(sim::Addr a) {
  return static_cast<sim::NodeId>(a >> kNodeAddrShift);
}

/// Network message payload sizing. Headers are 32 bytes (the NUMALink
/// minimum packet); data messages add the cache line; word messages add
/// one 8-byte word.
struct MsgSizes {
  std::uint32_t line_bytes;
  [[nodiscard]] static std::uint32_t ctrl() { return 32; }
  [[nodiscard]] std::uint32_t data() const { return 32 + line_bytes; }
  [[nodiscard]] static std::uint32_t word() { return 32 + 8; }
};

}  // namespace amo::coh
