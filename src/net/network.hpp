// The network fabric: routes packets over the fat tree, modelling per-link
// bandwidth contention (FIFO busy-until reservation) and per-hop latency.
//
// Latency model (cut-through flavored):
//   for each link on the path:  depart = max(t, link_busy);
//                               link_busy = depart + serialization;
//                               t = depart + link_latency(level);
//   arrival = t + serialization   (full packet received once)
//
// Because link reservations are made atomically at injection time and
// busy-until values only grow, packets between the same (src, dst) pair are
// delivered in send order — the coherence layer relies on this FIFO
// property.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/message.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/stats.hpp"
#include "sim/stats_registry.hpp"

namespace amo::net {

struct NetConfig {
  std::uint32_t num_nodes = 2;
  std::uint32_t radix = 8;               // fat-tree router radix
  sim::Cycle hop_cycles = 100;           // per-hop latency (CPU cycles)
  std::uint32_t link_cycles_per_16b = 10;  // serialization: 16 bytes / 10 cyc
  std::uint32_t min_packet_bytes = 32;   // NUMALink minimum packet
  bool hardware_multicast = false;       // ablation: multicast word updates
  /// Extra per-link latency for each tree level above the leaves: a link
  /// whose child endpoint sits at level l costs
  /// hop_cycles + l * hop_cycles_per_level. 0 = uniform (the default).
  /// Models upper fat-tree links (longer cables, more switch stages)
  /// being slower — the regime where hierarchy-aware sync pays off.
  sim::Cycle hop_cycles_per_level = 0;
  /// Derived from stats.histograms by Machine (not a serialized knob):
  /// record per-level link traversal latency into LogHistograms.
  bool histograms = false;
};

struct NetStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hops = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(MsgClass::kCount)>
      packets_by_class{};
  std::array<std::uint64_t, static_cast<std::size_t>(MsgClass::kCount)>
      bytes_by_class{};
  sim::Accum latency;  // injection -> delivery, cycles
  /// Link traversals whose child endpoint sits at each tree level (up and
  /// down directions both count once per packet crossing). Index
  /// levels()-1 is the root links — the contended resource hierarchical
  /// synchronization exists to relieve. Struct-only (not in the stats
  /// registry), so snapshots stay byte-identical to pre-hierarchy builds.
  std::array<std::uint64_t, RouteWalker::kMaxLevels> link_traversals_by_level{};
  /// Per-level link traversal latency (queueing + propagation), one
  /// histogram per tree level. Empty unless NetConfig::histograms; sized
  /// to topology levels by the Network ctor. Last: these are cold ~8 KB
  /// blocks, kept off the counters' cache lines.
  std::vector<sim::LogHistogram> link_latency_hist;

};

class Network {
 public:
  /// Fabric over `config.num_nodes` nodes; deliveries run on `engine`.
  Network(sim::Engine& engine, const NetConfig& config);

  /// Sends one packet, injected `bus_cycles` after now; `p.on_deliver`
  /// runs `bus_cycles` after arrival (the CPU<->hub bus at each end; stats
  /// see injection -> arrival only). Precondition: p.src != p.dst.
  void send(Packet p, sim::Cycle bus_cycles = 0);

  /// Sends the same payload to many destinations. Without hardware
  /// multicast this is a serialized sequence of unicasts from `src`
  /// (the paper's default assumption); with `hardware_multicast` the
  /// packet is replicated in the routers, charging shared path links once.
  /// `deliver` is invoked once per (remote) destination; it is shared
  /// across the wave through one refcounted control block, so move-only
  /// captures are fine and the wave costs one allocation, not one per
  /// destination. `bus_cycles` is charged at both ends, as in send().
  void multicast(sim::NodeId src, std::span<const sim::NodeId> dsts,
                 MsgClass cls, std::uint32_t size_bytes,
                 sim::InlineFnT<sim::NodeId> deliver,
                 sim::Cycle bus_cycles = 0);

  /// Fabric-wide statistics.
  [[nodiscard]] const NetStats& stats() const { return stats_; }
  void reset_stats();

  /// Registers fabric counters (totals, per-class breakdowns, latency
  /// distribution, per-level link-latency histograms when enabled) into
  /// a stats registry under `prefix`.
  void register_stats(sim::StatsRegistry& reg, const std::string& prefix) const;

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const NetConfig& config() const { return config_; }

  /// Total traversals of the topmost (root) links, both directions. 0 for
  /// topologies with no links.
  [[nodiscard]] std::uint64_t root_link_traversals() const {
    if (topo_.levels() == 0) return 0;
    return stats_.link_traversals_by_level[topo_.levels() - 1];
  }

  /// Serialization delay for a packet of `size_bytes` (after clamping to
  /// the minimum packet size).
  [[nodiscard]] sim::Cycle serialization_cycles(std::uint32_t size_bytes) const;

 private:
  // Drains `walk`, reserving every link on its path, and returns the
  // delivery time. When `dedup_links` is set (hardware multicast), links
  // already stamped with the current wave generation are traversed
  // without being charged again.
  sim::Cycle reserve_path(RouteWalker& walk, std::uint32_t size_bytes,
                          sim::Cycle now, bool dedup_links);

  void account(MsgClass cls, std::uint32_t size_bytes, sim::Cycle latency,
               std::uint32_t hops);

  sim::Engine& engine_;
  NetConfig config_;
  Topology topo_;
  std::vector<sim::Cycle> link_busy_until_;  // by Topology::link_index
  std::vector<std::uint64_t> charged_gen_;   // multicast wave stamp per link
  std::uint64_t multicast_gen_ = 0;
  NetStats stats_;
};

}  // namespace amo::net
