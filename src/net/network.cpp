#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "sim/frame_pool.hpp"

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

NetStats& NetStats::operator+=(const NetStats& o) {
  packets += o.packets;
  bytes += o.bytes;
  hops += o.hops;
  for (std::size_t i = 0; i < packets_by_class.size(); ++i) {
    packets_by_class[i] += o.packets_by_class[i];
    bytes_by_class[i] += o.bytes_by_class[i];
  }
  latency += o.latency;
  for (std::size_t i = 0; i < link_traversals_by_level.size(); ++i) {
    link_traversals_by_level[i] += o.link_traversals_by_level[i];
  }
  if (!o.link_latency_hist.empty()) {
    if (link_latency_hist.size() < o.link_latency_hist.size()) {
      link_latency_hist.resize(o.link_latency_hist.size());
    }
    for (std::size_t i = 0; i < o.link_latency_hist.size(); ++i) {
      link_latency_hist[i] += o.link_latency_hist[i];
    }
  }
  return *this;
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
                             const std::string& prefix) const {
  // Snapshot-time merge closures, never live pointers: shards sum in
  // ascending domain order (so the latency Accum merge is deterministic),
  // and a reset_stats that re-sizes the histogram vectors cannot dangle
  // them.
  auto sum = [this](std::uint64_t NetStats::* m) {
    return [this, m]() -> std::uint64_t {
      std::uint64_t v = 0;
      for (const NetStats& s : shards_) v += s.*m;
      return v;
    };
  };
  reg.add_fn(prefix + ".packets", sum(&NetStats::packets));
  reg.add_fn(prefix + ".bytes", sum(&NetStats::bytes));
  reg.add_fn(prefix + ".hops", sum(&NetStats::hops));
  reg.add_accum_fn(prefix + ".latency", [this] {
    sim::Accum a;
    for (const NetStats& s : shards_) a += s.latency;
    return a;
  });
  for (std::size_t i = 0; i < static_cast<std::size_t>(MsgClass::kCount);
       ++i) {
    const std::string cls = to_string(static_cast<MsgClass>(i));
    reg.add_fn(prefix + ".packets_by_class." + cls, [this, i] {
      std::uint64_t v = 0;
      for (const NetStats& s : shards_) v += s.packets_by_class[i];
      return v;
    });
    reg.add_fn(prefix + ".bytes_by_class." + cls, [this, i] {
      std::uint64_t v = 0;
      for (const NetStats& s : shards_) v += s.bytes_by_class[i];
      return v;
    });
  }
  if (!config_.histograms) return;
  for (std::size_t l = 0; l < topo_.levels(); ++l) {
    reg.add_hist_fn(prefix + ".link_latency_hist.l" + std::to_string(l),
                    [this, l](sim::LogHistogram& out) {
                      for (const NetStats& s : shards_) {
                        if (l < s.link_latency_hist.size()) {
                          out += s.link_latency_hist[l];
                        }
                      }
                    });
  }
}

Network::Network(sim::Domains& domains, const NetConfig& config)
    : domains_(domains),
      config_(config),
      topo_(config.num_nodes, config.radix),
      link_busy_until_(
          static_cast<std::size_t>(domains.count()) * topo_.num_links(), 0),
      charged_gen_(
          static_cast<std::size_t>(domains.count()) * topo_.num_links(), 0),
      multicast_gen_(domains.count(), 0),
      shards_(domains.count()) {
  assert(domains.num_nodes() >= config.num_nodes);
  // Seed per-level latencies from the hop_cycles (+ optional per-level
  // step) knobs; callers may overwrite with a non-uniform table afterwards.
  topo_.set_link_latencies(seeded_latencies(config, topo_));
  if (config_.histograms) {
    for (NetStats& s : shards_) s.link_latency_hist.resize(topo_.levels());
  }
}

Network::Network(sim::Engine& engine, const NetConfig& config)
    : owned_domains_(std::make_unique<sim::Domains>(engine, config.num_nodes)),
      domains_(*owned_domains_),
      config_(config),
      topo_(config.num_nodes, config.radix),
      link_busy_until_(topo_.num_links(), 0),
      charged_gen_(topo_.num_links(), 0),
      multicast_gen_(1, 0),
      shards_(1) {
  topo_.set_link_latencies(seeded_latencies(config, topo_));
  if (config_.histograms) {
    for (NetStats& s : shards_) s.link_latency_hist.resize(topo_.levels());
  }
}

const NetStats& Network::stats() const {
  if (shards_.size() == 1) return shards_[0];
  merged_.reset();
  for (const NetStats& s : shards_) merged_ += s;
  return merged_;
}

void Network::reset_stats() {
  for (NetStats& s : shards_) {
    const std::size_t levels = s.link_latency_hist.size();
    s.reset();
    s.link_latency_hist.resize(levels);
  }
}

sim::Cycle Network::serialization_cycles(std::uint32_t size_bytes) const {
  const std::uint32_t bytes = std::max(size_bytes, config_.min_packet_bytes);
  // ceil(bytes / 16) * cycles_per_16B
  return static_cast<sim::Cycle>((bytes + 15) / 16) *
         config_.link_cycles_per_16b;
}

sim::Cycle Network::reserve_path(std::uint32_t d, RouteWalker& walk,
                                 std::uint32_t size_bytes, sim::Cycle now,
                                 bool dedup_links) {
  const sim::Cycle ser = serialization_cycles(size_bytes);
  const std::size_t base = static_cast<std::size_t>(d) * topo_.num_links();
  NetStats& st = shards_[d];
  const bool hist = !st.link_latency_hist.empty();
  sim::Cycle t = now;
  LinkRef link;
  while (walk.next(link)) {
    const std::size_t idx = base + topo_.link_index(link);
    ++st.link_traversals_by_level[link.level];
    bool charge = true;
    if (dedup_links) {
      charge = charged_gen_[idx] != multicast_gen_[d];
      charged_gen_[idx] = multicast_gen_[d];
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
    if (hist) st.link_latency_hist[link.level].record(t - entered);
  }
  return t + ser;  // full packet received at destination
}

void Network::account(std::uint32_t d, MsgClass cls, std::uint32_t size_bytes,
                      sim::Cycle latency, std::uint32_t hops) {
  const std::uint32_t bytes = std::max(size_bytes, config_.min_packet_bytes);
  NetStats& s = shards_[d];
  ++s.packets;
  s.bytes += bytes;
  s.hops += hops;
  s.packets_by_class[static_cast<std::size_t>(cls)] += 1;
  s.bytes_by_class[static_cast<std::size_t>(cls)] += bytes;
  s.latency.add(latency);
}

void Network::send(Packet p, sim::Cycle bus_cycles) {
  assert(p.src != p.dst && "local traffic must bypass the network");
  assert(p.on_deliver && "packet without a delivery action");
  const std::uint32_t d = domains_.domain_of(p.src);
  // Every sender pays the same bus delay, so reserving links now, for an
  // injection time bus_cycles ahead, visits them in injection order.
  const sim::Cycle inject = domains_.engine(d).now() + bus_cycles;
  RouteWalker walk(topo_, p.src, p.dst);
  const sim::Cycle arrival =
      reserve_path(d, walk, p.size_bytes, inject, /*dedup_links=*/false);
  assert(arrival >= inject && "delivery scheduled before injection");
  const sim::Cycle latency = arrival - inject;
  account(d, p.cls, p.size_bytes, latency, walk.hop_count());
  // The delivery closure moves straight into the event-queue slot (or,
  // cross-domain, into the mailbox envelope): no wrapper lambda, no
  // type-erasure re-boxing, zero heap for captures that fit the InlineFn
  // buffer.
  domains_.deliver_at(p.src, p.dst, arrival + bus_cycles,
                      std::move(p.on_deliver));
}

void Network::multicast(sim::NodeId src, std::span<const sim::NodeId> dsts,
                        MsgClass cls, std::uint32_t size_bytes,
                        sim::InlineFnT<sim::NodeId> deliver,
                        sim::Cycle bus_cycles) {
  // One refcounted control block shares the (move-only, possibly
  // stateful) deliver closure across every destination's event; it draws
  // from the frame pool so steady-state update waves stay heap-free.
  auto shared = std::allocate_shared<sim::InlineFnT<sim::NodeId>>(
      sim::FramePoolAllocator<sim::InlineFnT<sim::NodeId>>{},
      std::move(deliver));
  if (!config_.hardware_multicast) {
    // Serialized unicasts: the sending hub injects one packet per target.
    for (sim::NodeId dst : dsts) {
      if (dst == src) continue;
      send(Packet{src, dst, cls, size_bytes,
                  [shared, dst] { (*shared)(dst); }},
           bus_cycles);
    }
    return;
  }
  // Hardware multicast: replicate in the routers; each tree link carries
  // the packet once per wave (generation-stamped dedup, no scratch
  // bitmap allocation).
  const std::uint32_t d = domains_.domain_of(src);
  ++multicast_gen_[d];
  const sim::Cycle inject = domains_.engine(d).now() + bus_cycles;
  for (sim::NodeId dst : dsts) {
    if (dst == src) continue;
    RouteWalker walk(topo_, src, dst);
    const sim::Cycle arrival =
        reserve_path(d, walk, size_bytes, inject, /*dedup_links=*/true);
    assert(arrival >= inject && "delivery scheduled before injection");
    account(d, cls, size_bytes, arrival - inject, walk.hop_count());
    domains_.deliver_at(src, dst, arrival + bus_cycles,
                        [shared, dst] { (*shared)(dst); });
  }
}

}  // namespace amo::net
