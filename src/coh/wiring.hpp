// Message transport between protocol agents (cache controllers,
// directories, AMUs). Remote traffic goes through the Network (with link
// contention and accounting); on-node traffic takes a fixed hub-local
// latency and is counted separately.
//
// Payloads travel as closures: the sender captures the typed call it wants
// executed at the destination, so no central message variant is needed and
// responses can complete sim::Promise values directly.
//
// A remote message is one event: links are reserved at send time for an
// injection one bus crossing ahead, and the payload runs one bus crossing
// after arrival — no staging or relay events, no re-boxed closures.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/inline_fn.hpp"
#include "sim/types.hpp"

namespace amo::coh {

class Directory;
class CacheCtrl;

struct LocalStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class Wiring {
 public:
  /// `engine` runs hub-local deliveries; it must be the engine `network`
  /// delivers on.
  Wiring(sim::Engine& engine, net::Network& network,
         std::uint32_t cpus_per_node, sim::Cycle local_cycles,
         sim::Cycle bus_cycles = 20)
      : engine_(engine),
        network_(network),
        cpus_per_node_(cpus_per_node),
        local_cycles_(local_cycles),
        bus_cycles_(bus_cycles) {}

  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] sim::NodeId node_of(sim::CpuId cpu) const {
    return cpu / cpus_per_node_;
  }
  [[nodiscard]] std::uint32_t cpus_per_node() const { return cpus_per_node_; }

  /// Delivers `fn` at node `to`, travelling from node `from`. Chooses the
  /// network or the hub-local path automatically. `fn` may hold move-only
  /// captures; either path moves it straight into the destination's event
  /// queue slot, so a remote message is exactly one event. The remote path
  /// pays the CPU<->hub system-bus crossing on both ends (Table 1's 16B/8B
  /// system bus).
  void post(sim::NodeId from, sim::NodeId to, net::MsgClass cls,
            std::uint32_t bytes, sim::InlineFn fn) {
    if (from == to) {
      ++local_.messages;
      local_.bytes += bytes;
      engine_.schedule(local_cycles_, std::move(fn));
      return;
    }
    network_.send(net::Packet{from, to, cls, bytes, std::move(fn)},
                  bus_cycles_);
  }

  /// Word-update fan-out from `from` to a set of nodes (the AMO "put"
  /// wave). Uses hardware multicast when configured. `deliver` runs once
  /// per target node, one event each; it is shared across local and
  /// remote deliveries via one refcounted control block. Remote targets
  /// take the same bus-delayed injection as post(): updates and data
  /// replies MUST share one injection pipeline, or an update could
  /// overtake an in-flight line fill and be dropped at the cache.
  void post_update(sim::NodeId from, std::span<const sim::NodeId> nodes,
                   std::uint32_t bytes,
                   sim::InlineFnT<sim::NodeId> deliver) {
    auto shared = std::allocate_shared<sim::InlineFnT<sim::NodeId>>(
        sim::FramePoolAllocator<sim::InlineFnT<sim::NodeId>>{},
        std::move(deliver));
    // Local target (if any) is delivered at hub latency.
    for (sim::NodeId n : nodes) {
      if (n == from) {
        ++local_.messages;
        local_.bytes += bytes;
        engine_.schedule(local_cycles_, [shared, n] { (*shared)(n); });
      }
    }
    network_.multicast(from, nodes, net::MsgClass::kUpdate, bytes,
                       [shared](sim::NodeId n) { (*shared)(n); },
                       bus_cycles_);
  }

  /// Hub-local traffic counters.
  [[nodiscard]] const LocalStats& local_stats() const { return local_; }
  [[nodiscard]] sim::Cycle local_cycles() const { return local_cycles_; }

 private:
  sim::Engine& engine_;
  net::Network& network_;
  std::uint32_t cpus_per_node_;
  sim::Cycle local_cycles_;
  sim::Cycle bus_cycles_;
  LocalStats local_;
};

}  // namespace amo::coh
