#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace amo::net {

const char* to_string(MsgClass c) {
  switch (c) {
    case MsgClass::kRequest: return "request";
    case MsgClass::kResponse: return "response";
    case MsgClass::kIntervention: return "intervention";
    case MsgClass::kInval: return "inval";
    case MsgClass::kAck: return "ack";
    case MsgClass::kWriteback: return "writeback";
    case MsgClass::kUpdate: return "update";
    case MsgClass::kUncached: return "uncached";
    case MsgClass::kActiveMsg: return "active_msg";
    case MsgClass::kCount: break;
  }
  return "?";
}

namespace {

// Per-level latency table from the two scalar knobs: uniform hop_cycles
// plus an optional per-level step for slower upper links.
std::vector<sim::Cycle> seeded_latencies(const NetConfig& config,
                                         const Topology& topo) {
  std::vector<sim::Cycle> lat(topo.levels());
  for (std::size_t l = 0; l < lat.size(); ++l) {
    lat[l] = config.hop_cycles + static_cast<sim::Cycle>(l) *
                                     config.hop_cycles_per_level;
  }
  return lat;
}

}  // namespace

void Network::register_stats(sim::StatsRegistry& reg,
                             const std::string& prefix) {
  reg.add_counter(prefix + ".packets", &stats_.packets);
  reg.add_counter(prefix + ".bytes", &stats_.bytes);
  reg.add_counter(prefix + ".hops", &stats_.hops);
  reg.add_accum(prefix + ".latency", &stats_.latency);
  for (std::size_t i = 0; i < static_cast<std::size_t>(MsgClass::kCount);
       ++i) {
    const std::string cls = to_string(static_cast<MsgClass>(i));
    reg.add_counter(prefix + ".packets_by_class." + cls,
                    &stats_.packets_by_class[i]);
    reg.add_counter(prefix + ".bytes_by_class." + cls,
                    &stats_.bytes_by_class[i]);
  }
  for (std::uint32_t l = 0; l < topo_.levels(); ++l) {
    stats_.link_latency_hist[l] =
        reg.hist(prefix + ".link_latency_hist.l" + std::to_string(l));
  }
}

Network::Network(sim::Engine& engine, const NetConfig& config)
    : engine_(engine),
      config_(config),
      topo_(config.num_nodes, config.radix),
      link_busy_until_(topo_.num_links(), 0),
      charged_gen_(topo_.num_links(), 0) {
  // Seed per-level latencies from the hop_cycles (+ optional per-level
  // step) knobs; callers may overwrite with a non-uniform table afterwards.
  topo_.set_link_latencies(seeded_latencies(config, topo_));
}

sim::Cycle Network::serialization_cycles(const NetConfig& config,
                                         std::uint32_t size_bytes) {
  const std::uint32_t bytes = std::max(size_bytes, config.min_packet_bytes);
  // ceil(bytes / 16) * cycles_per_16B
  return static_cast<sim::Cycle>((bytes + 15) / 16) *
         config.link_cycles_per_16b;
}

sim::Cycle Network::diameter_cycles(const NetConfig& config,
                                    std::uint32_t size_bytes) {
  Topology topo(config.num_nodes, config.radix);
  if (topo.levels() == 0) return 0;
  topo.set_link_latencies(seeded_latencies(config, topo));
  sim::Cycle t = 0;
  RouteWalker walk(topo, 0, config.num_nodes - 1);
  for (LinkRef link; walk.next(link);) t += topo.link_latency(link.level);
  return t + serialization_cycles(config, size_bytes);
}

sim::Cycle Network::reserve_path(RouteWalker& walk, std::uint32_t size_bytes,
                                 sim::Cycle now, bool dedup_links) {
  const sim::Cycle ser = serialization_cycles(size_bytes);
  NetStats& st = stats_;
  sim::Cycle t = now;
  LinkRef link;
  while (walk.next(link)) {
    const std::size_t idx = topo_.link_index(link);
    ++st.link_traversals_by_level[link.level];
    bool charge = true;
    if (dedup_links) {
      charge = charged_gen_[idx] != multicast_gen_;
      charged_gen_[idx] = multicast_gen_;
    }
    sim::Cycle depart = t;
    if (charge) {
      depart = std::max(t, link_busy_until_[idx]);
      link_busy_until_[idx] = depart + ser;
    }
    const sim::Cycle entered = t;
    t = depart + topo_.link_latency(link.level);
    // Per-level traversal latency: queueing behind the link plus
    // propagation (t - entered).
    if (sim::LogHistogram* h = st.link_latency_hist[link.level]) {
      h->record(t - entered);
    }
  }
  return t + ser;  // full packet received at destination
}

void Network::account(MsgClass cls, std::uint32_t size_bytes,
                      sim::Cycle latency, std::uint32_t hops) {
  const std::uint32_t bytes = std::max(size_bytes, config_.min_packet_bytes);
  NetStats& s = stats_;
  ++s.packets;
  s.bytes += bytes;
  s.hops += hops;
  s.packets_by_class[static_cast<std::size_t>(cls)] += 1;
  s.bytes_by_class[static_cast<std::size_t>(cls)] += bytes;
  s.latency.add(latency);
}

void Network::send(Packet&& p, sim::Cycle bus_cycles) {
  assert(p.src != p.dst && "local traffic must bypass the network");
  assert(p.on_deliver && "packet without a delivery action");
  // Every sender pays the same bus delay, so reserving links now, for an
  // injection time bus_cycles ahead, visits them in injection order.
  const sim::Cycle inject = engine_.now() + bus_cycles;
  RouteWalker walk(topo_, p.src, p.dst);
  const sim::Cycle arrival =
      reserve_path(walk, p.size_bytes, inject, /*dedup_links=*/false);
  assert(arrival >= inject && "delivery scheduled before injection");
  const sim::Cycle latency = arrival - inject;
  account(p.cls, p.size_bytes, latency, walk.hop_count());
  // The delivery closure moves straight into the event-queue slot: no
  // wrapper lambda, no type-erasure re-boxing, zero heap for captures
  // that fit the InlineFn buffer.
  engine_.schedule_at(arrival + bus_cycles, std::move(p.on_deliver));
}

void Network::multicast(sim::NodeId src, std::span<const sim::NodeId> dsts,
                        MsgClass cls, std::uint32_t size_bytes,
                        const SharedDeliver& deliver,
                        sim::Cycle bus_cycles) {
  if (!config_.hardware_multicast) {
    // Serialized unicasts: the sending hub injects one packet per target.
    for (sim::NodeId dst : dsts) {
      if (dst == src) continue;
      send(Packet{src, dst, cls, size_bytes,
                  [deliver, dst] { (*deliver)(dst); }},
           bus_cycles);
    }
    return;
  }
  // Hardware multicast: replicate in the routers; each tree link carries
  // the packet once per wave (generation-stamped dedup, no scratch
  // bitmap allocation).
  ++multicast_gen_;
  const sim::Cycle inject = engine_.now() + bus_cycles;
  for (sim::NodeId dst : dsts) {
    if (dst == src) continue;
    RouteWalker walk(topo_, src, dst);
    const sim::Cycle arrival =
        reserve_path(walk, size_bytes, inject, /*dedup_links=*/true);
    assert(arrival >= inject && "delivery scheduled before injection");
    account(cls, size_bytes, arrival - inject, walk.hop_count());
    engine_.schedule_at(arrival + bus_cycles,
                        [deliver, dst] { (*deliver)(dst); });
  }
}

}  // namespace amo::net
