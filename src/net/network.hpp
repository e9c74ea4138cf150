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
//
// PDES sharding: under a K-domain decomposition (sim::Domains) every piece
// of fabric state — link busy-until arrays, multicast dedup generations,
// the NetStats counters — is kept per source domain, mutated only by the
// domain thread that injects the packet. Cross-domain deliveries route
// through Domains::deliver_at (mailboxes). With K == 1 there is exactly one
// shard. Per-domain link reservation means two domains can each believe
// they reserved the same physical link for the same cycles — bandwidth
// contention is modelled exactly within a domain and approximately across
// domains; that (plus per-shard latency merge order) is why K > 1 runs are
// a separately-seeded mode rather than bit-equal to K == 1 (see DESIGN.md
// §10).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/message.hpp"
#include "net/topology.hpp"
#include "sim/domains.hpp"
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

  void reset() { *this = NetStats{}; }

  /// Folds another shard in (multi-domain end-of-run merge).
  NetStats& operator+=(const NetStats& o);
};

class Network {
 public:
  /// Fabric over a domain decomposition: per-domain link state and stats
  /// shards, cross-domain delivery through the Domains mailboxes.
  Network(sim::Domains& domains, const NetConfig& config);

  /// Serial convenience ctor (unit tests, microbenches): wraps `engine`
  /// in an internal single-domain view.
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

  /// Machine-wide fabric statistics. With one domain this is the live
  /// shard; with K > 1 the shards are merged on each call — only read it
  /// while the machine is quiescent (not mid-run from inside events).
  [[nodiscard]] const NetStats& stats() const;
  void reset_stats();

  /// Registers fabric counters (totals, per-class breakdowns, latency
  /// distribution, per-level link-latency histograms when enabled) into
  /// a stats registry under `prefix`, as closures that sum the
  /// per-domain shards at snapshot time.
  void register_stats(sim::StatsRegistry& reg, const std::string& prefix) const;

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const NetConfig& config() const { return config_; }
  [[nodiscard]] sim::Domains& domains() { return domains_; }

  /// Total traversals of the topmost (root) links, both directions,
  /// summed over shards. 0 for topologies with no links. Same quiescence
  /// caveat as stats().
  [[nodiscard]] std::uint64_t root_link_traversals() const {
    if (topo_.levels() == 0) return 0;
    std::uint64_t v = 0;
    for (const NetStats& s : shards_)
      v += s.link_traversals_by_level[topo_.levels() - 1];
    return v;
  }

  /// Serialization delay for a packet of `size_bytes` (after clamping to
  /// the minimum packet size).
  [[nodiscard]] sim::Cycle serialization_cycles(std::uint32_t size_bytes) const;

  /// Fabric part of the PDES lookahead (Wiring adds the bus): the minimum
  /// time between injecting any packet and its earliest possible arrival
  /// at a *different* node — two cheapest-link traversals (hop_count >= 2)
  /// plus minimum-packet serialization. Zero only for a single node.
  [[nodiscard]] sim::Cycle min_cross_latency() const {
    return 2 * topo_.min_hop_latency() + serialization_cycles(0);
  }

 private:
  // Drains `walk`, reserving every link on its path in domain `d`'s
  // shard, and returns the delivery time. When `dedup_links` is set
  // (hardware multicast), links already stamped with the current wave
  // generation are traversed without being charged again.
  sim::Cycle reserve_path(std::uint32_t d, RouteWalker& walk,
                          std::uint32_t size_bytes, sim::Cycle now,
                          bool dedup_links);

  void account(std::uint32_t d, MsgClass cls, std::uint32_t size_bytes,
               sim::Cycle latency, std::uint32_t hops);

  std::unique_ptr<sim::Domains> owned_domains_;  // serial-ctor backing
  sim::Domains& domains_;
  NetConfig config_;
  Topology topo_;
  // Per-domain shards, laid out [domain * num_links + link] for the link
  // arrays. Only the owning domain thread touches its shard.
  std::vector<sim::Cycle> link_busy_until_;
  std::vector<std::uint64_t> charged_gen_;
  std::vector<std::uint64_t> multicast_gen_;
  std::vector<NetStats> shards_;
  mutable NetStats merged_;  // stats() scratch for K > 1
};

}  // namespace amo::net
