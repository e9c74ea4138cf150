// Unit tests for the fat-tree topology and the contention-modelling
// network fabric.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "coh/wiring.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace amo::net {
namespace {

TEST(Topology, SingleNodeHasNoRouters) {
  Topology t(1, 8);
  EXPECT_EQ(t.levels(), 0u);
  EXPECT_EQ(t.num_links(), 0u);
}

TEST(Topology, LevelCounts) {
  EXPECT_EQ(Topology(2, 8).levels(), 1u);
  EXPECT_EQ(Topology(8, 8).levels(), 1u);
  EXPECT_EQ(Topology(9, 8).levels(), 2u);
  EXPECT_EQ(Topology(64, 8).levels(), 2u);
  EXPECT_EQ(Topology(65, 8).levels(), 3u);
  EXPECT_EQ(Topology(128, 8).levels(), 3u);
  EXPECT_EQ(Topology(512, 8).levels(), 3u);
}

TEST(Topology, HopCounts) {
  Topology t(128, 8);
  EXPECT_EQ(t.hop_count(0, 0), 0u);
  EXPECT_EQ(t.hop_count(0, 1), 2u);   // same leaf router
  EXPECT_EQ(t.hop_count(0, 7), 2u);
  EXPECT_EQ(t.hop_count(0, 8), 4u);   // same level-2 router
  EXPECT_EQ(t.hop_count(0, 63), 4u);
  EXPECT_EQ(t.hop_count(0, 64), 6u);  // across the root
  EXPECT_EQ(t.hop_count(0, 127), 6u);
  EXPECT_EQ(t.hop_count(64, 127), 4u);
}

TEST(Topology, HopCountSymmetric) {
  Topology t(64, 8);
  for (sim::NodeId a = 0; a < 64; a += 7) {
    for (sim::NodeId b = 0; b < 64; b += 5) {
      if (a == b) continue;
      EXPECT_EQ(t.hop_count(a, b), t.hop_count(b, a));
    }
  }
}

TEST(Topology, RouteLengthMatchesHops) {
  Topology t(128, 8);
  const std::pair<sim::NodeId, sim::NodeId> pairs[] = {
      {0, 1}, {0, 9}, {3, 70}, {127, 0}, {64, 65}};
  for (auto [a, b] : pairs) {
    EXPECT_EQ(t.route(a, b).size(), t.hop_count(a, b));
  }
}

TEST(Topology, RouteGoesUpThenDown) {
  Topology t(128, 8);
  const auto path = t.route(3, 70);
  bool seen_down = false;
  for (const LinkRef& l : path) {
    if (!l.up) seen_down = true;
    if (seen_down) {
      EXPECT_FALSE(l.up) << "up link after descending";
    }
  }
  // First link leaves the source node; last link enters the destination.
  EXPECT_EQ(path.front().level, 0u);
  EXPECT_EQ(path.front().child, 3u);
  EXPECT_TRUE(path.front().up);
  EXPECT_EQ(path.back().level, 0u);
  EXPECT_EQ(path.back().child, 70u);
  EXPECT_FALSE(path.back().up);
}

TEST(Topology, LinkIndicesUniqueAndBounded) {
  Topology t(64, 8);
  std::set<std::uint32_t> seen;
  for (std::uint32_t level = 0; level < t.levels(); ++level) {
    for (std::uint32_t child = 0; child < t.entities_at(level); ++child) {
      for (bool up : {true, false}) {
        const std::uint32_t idx = t.link_index(LinkRef{level, child, up});
        EXPECT_LT(idx, t.num_links());
        EXPECT_TRUE(seen.insert(idx).second) << "duplicate link index";
      }
    }
  }
  EXPECT_EQ(seen.size(), t.num_links());
}

TEST(Topology, DefaultLinkLatencyIsUniformOne) {
  Topology topo(16, 4);
  ASSERT_EQ(topo.levels(), 2u);
  EXPECT_EQ(topo.link_latency(0), 1u);
  EXPECT_EQ(topo.link_latency(1), 1u);
}

TEST(Topology, SetLinkLatenciesIsPerLevel) {
  Topology topo(16, 4);
  topo.set_link_latencies({7, 3});
  EXPECT_EQ(topo.link_latency(0), 7u);
  EXPECT_EQ(topo.link_latency(1), 3u);
}

TEST(Topology, SingleNodeHasNoLinks) {
  Topology topo(1, 4);
  EXPECT_EQ(topo.levels(), 0u);
  EXPECT_EQ(topo.num_links(), 0u);
}

// Any packet between distinct nodes goes up to a router and back down,
// so it crosses at least two links.
TEST(Topology, CrossNodeHopCountIsAtLeastTwo) {
  Topology topo(16, 4);
  for (sim::NodeId a = 0; a < 16; ++a) {
    for (sim::NodeId b = 0; b < 16; ++b) {
      if (a == b) continue;
      EXPECT_GE(topo.hop_count(a, b), 2u);
      EXPECT_EQ(topo.route(a, b).size(), topo.hop_count(a, b));
    }
  }
}

NetConfig small_net(std::uint32_t nodes) {
  NetConfig cfg;
  cfg.num_nodes = nodes;
  return cfg;
}

TEST(Network, SerializationCyclesClampToMinPacket) {
  sim::Engine e;
  Network n(e, small_net(4));
  // 32B minimum -> ceil(32/16)*10 = 20 cycles.
  EXPECT_EQ(n.serialization_cycles(1), 20u);
  EXPECT_EQ(n.serialization_cycles(32), 20u);
  EXPECT_EQ(n.serialization_cycles(40), 30u);
  EXPECT_EQ(n.serialization_cycles(160), 100u);
}

TEST(Network, UncontendedLatencyFormula) {
  sim::Engine e;
  Network n(e, small_net(4));
  sim::Cycle arrival = 0;
  n.send(Packet{0, 1, MsgClass::kRequest, 32, [&] { arrival = e.now(); }});
  e.run();
  // 2 hops * 100 + final serialization 20.
  EXPECT_EQ(arrival, 2u * 100u + 20u);
  EXPECT_EQ(n.stats().packets, 1u);
  EXPECT_EQ(n.stats().hops, 2u);
  EXPECT_EQ(n.stats().bytes, 32u);
}

TEST(Network, PerPairFifoEvenWithMixedSizes) {
  sim::Engine e;
  Network n(e, small_net(8));
  std::vector<int> order;
  n.send(Packet{0, 5, MsgClass::kResponse, 160, [&] { order.push_back(1); }});
  n.send(Packet{0, 5, MsgClass::kUpdate, 40, [&] { order.push_back(2); }});
  n.send(Packet{0, 5, MsgClass::kRequest, 32, [&] { order.push_back(3); }});
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Network, SharedLinkSerializes) {
  sim::Engine e;
  Network n(e, small_net(4));
  sim::Cycle a1 = 0;
  sim::Cycle a2 = 0;
  // Both packets leave node 0: they share node 0's up-link.
  n.send(Packet{0, 1, MsgClass::kRequest, 32, [&] { a1 = e.now(); }});
  n.send(Packet{0, 2, MsgClass::kRequest, 32, [&] { a2 = e.now(); }});
  e.run();
  EXPECT_EQ(a1, 220u);
  EXPECT_EQ(a2, a1 + 20u);  // delayed by the first packet's serialization
}

TEST(Network, DisjointPathsDoNotInterfere) {
  sim::Engine e;
  Network n(e, small_net(4));
  sim::Cycle a1 = 0;
  sim::Cycle a2 = 0;
  n.send(Packet{0, 1, MsgClass::kRequest, 32, [&] { a1 = e.now(); }});
  n.send(Packet{2, 3, MsgClass::kRequest, 32, [&] { a2 = e.now(); }});
  e.run();
  EXPECT_EQ(a1, a2);
}

TEST(Network, StatsByClass) {
  sim::Engine e;
  Network n(e, small_net(4));
  n.send(Packet{0, 1, MsgClass::kInval, 32, [] {}});
  n.send(Packet{0, 1, MsgClass::kInval, 32, [] {}});
  n.send(Packet{1, 0, MsgClass::kAck, 32, [] {}});
  e.run();
  const auto& s = n.stats();
  EXPECT_EQ(s.packets_by_class[static_cast<std::size_t>(MsgClass::kInval)],
            2u);
  EXPECT_EQ(s.packets_by_class[static_cast<std::size_t>(MsgClass::kAck)], 1u);
  EXPECT_EQ(s.bytes_by_class[static_cast<std::size_t>(MsgClass::kInval)],
            64u);
}

TEST(Network, ResetStatsClears) {
  sim::Engine e;
  Network n(e, small_net(4));
  n.send(Packet{0, 1, MsgClass::kRequest, 32, [] {}});
  e.run();
  n.reset_stats();
  EXPECT_EQ(n.stats().packets, 0u);
  EXPECT_EQ(n.stats().bytes, 0u);
}

TEST(Network, MulticastWithoutHardwareIsUnicasts) {
  sim::Engine e;
  Network n(e, small_net(16));
  std::vector<sim::NodeId> got;
  const std::vector<sim::NodeId> dsts{1, 2, 3, 9};
  n.multicast(0, dsts, MsgClass::kUpdate, 40,
              [&](sim::NodeId d) { got.push_back(d); });
  e.run();
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(n.stats().packets, 4u);
}

TEST(Network, HardwareMulticastChargesSharedLinksOnce) {
  sim::Engine e;
  NetConfig cfg = small_net(16);
  cfg.hardware_multicast = true;
  Network n(e, cfg);
  // Destinations 8..11 share node 0's up-link and the router-level links;
  // with multicast those are charged once, so arrivals are simultaneous.
  std::vector<sim::Cycle> arrivals;
  const std::vector<sim::NodeId> dsts{8, 9, 10, 11};
  n.multicast(0, dsts, MsgClass::kUpdate, 40,
              [&](sim::NodeId) { arrivals.push_back(e.now()); });
  e.run();
  ASSERT_EQ(arrivals.size(), 4u);
  for (sim::Cycle a : arrivals) EXPECT_EQ(a, arrivals.front());
}

TEST(Network, MulticastSkipsSelf) {
  sim::Engine e;
  Network n(e, small_net(4));
  std::vector<sim::NodeId> got;
  const std::vector<sim::NodeId> dsts{0, 1};
  n.multicast(0, dsts, MsgClass::kUpdate, 40,
              [&](sim::NodeId d) { got.push_back(d); });
  e.run();
  EXPECT_EQ(got, (std::vector<sim::NodeId>{1}));
}

TEST(Network, LatencyAccumTracksDeliveries) {
  sim::Engine e;
  Network n(e, small_net(4));
  n.send(Packet{0, 1, MsgClass::kRequest, 32, [] {}});
  n.send(Packet{0, 3, MsgClass::kRequest, 32, [] {}});
  e.run();
  EXPECT_EQ(n.stats().latency.count(), 2u);
  EXPECT_GE(n.stats().latency.min(), 220u);
}

// ------------------------------------------------------------------
// RouteWalker property tests: the walker must emit exactly the link
// sequence of the route() oracle for every pair, on every tree shape.

void ExpectWalkerMatchesOracle(const Topology& t, sim::NodeId src,
                               sim::NodeId dst) {
  const std::vector<LinkRef> oracle = t.route(src, dst);
  RouteWalker walk(t, src, dst);
  EXPECT_EQ(walk.hop_count(), oracle.size()) << src << "->" << dst;
  EXPECT_EQ(walk.hop_count(), t.hop_count(src, dst));
  std::size_t i = 0;
  LinkRef l{};
  while (walk.next(l)) {
    ASSERT_LT(i, oracle.size()) << src << "->" << dst << " walker too long";
    EXPECT_EQ(l.level, oracle[i].level) << src << "->" << dst << " hop " << i;
    EXPECT_EQ(l.child, oracle[i].child) << src << "->" << dst << " hop " << i;
    EXPECT_EQ(l.up, oracle[i].up) << src << "->" << dst << " hop " << i;
    ++i;
  }
  EXPECT_EQ(i, oracle.size()) << src << "->" << dst << " walker too short";
  EXPECT_FALSE(walk.next(l)) << "exhausted walker emitted another link";
}

TEST(RouteWalker, MatchesOracleOnAllPairsAcrossShapes) {
  // Shapes chosen to cover: one level, radix exactly covering the node
  // count, non-power-of-two radix (division path instead of shifts),
  // ragged trees (node count not a radix power), and three levels.
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {2, 2},  {2, 8},  {8, 8},   {9, 8},   {16, 4},
      {17, 4}, {27, 3}, {64, 8},  {65, 8},  {70, 3}};
  for (auto [nodes, radix] : shapes) {
    Topology t(nodes, radix);
    for (sim::NodeId a = 0; a < nodes; ++a) {
      for (sim::NodeId b = 0; b < nodes; ++b) {
        if (a == b) continue;
        ExpectWalkerMatchesOracle(t, a, b);
      }
    }
  }
}

TEST(RouteWalker, SingleNodeTopologyDegenerates) {
  // A 1-node system has no routers and no links; route() has the
  // src != dst precondition, so the only property left is shape.
  Topology t(1, 8);
  EXPECT_EQ(t.levels(), 0u);
  EXPECT_EQ(t.num_links(), 0u);
}

TEST(RouteWalker, CommonLevelMatchesHalfHops) {
  Topology t(128, 8);
  const std::pair<sim::NodeId, sim::NodeId> pairs[] = {
      {0, 1}, {0, 9}, {3, 70}, {127, 0}, {64, 65}};
  for (auto [a, b] : pairs) {
    RouteWalker walk(t, a, b);
    EXPECT_EQ(2 * walk.common_level(), t.hop_count(a, b));
  }
}

// ------------------------------------------------------------------
// InlineFn delivery-closure properties on the packet path.

TEST(Network, OversizedCaptureFallsBackToHeapAndDelivers) {
  sim::Engine e;
  Network n(e, small_net(4));
  // 128 bytes of captured state: far beyond the inline SBO, so the
  // closure takes the boxed fallback — it must still move intact through
  // injection, the event queue, and delivery.
  std::array<std::uint64_t, 16> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 1000 + i;
  std::uint64_t sum = 0;
  n.send(Packet{0, 2, MsgClass::kRequest, 32, [big, &sum] {
                  for (std::uint64_t v : big) sum += v;
                }});
  e.run();
  std::uint64_t want = 0;
  for (std::uint64_t v : big) want += v;
  EXPECT_EQ(sum, want);
}

TEST(Network, MoveOnlyCaptureTravelsThroughSend) {
  sim::Engine e;
  Network n(e, small_net(4));
  auto payload = std::make_unique<std::uint64_t>(77);
  std::uint64_t got = 0;
  n.send(Packet{0, 1, MsgClass::kResponse, 32,
                [p = std::move(payload), &got] { got = *p; }});
  e.run();
  EXPECT_EQ(got, 77u);
}

TEST(Network, MoveOnlyCaptureTravelsThroughMulticast) {
  for (bool hw : {false, true}) {
    sim::Engine e;
    NetConfig cfg = small_net(8);
    cfg.hardware_multicast = hw;
    Network n(e, cfg);
    // The deliver closure is shared across the wave through one control
    // block, so a move-only capture must stay alive and invocable once
    // per remote destination.
    auto token = std::make_unique<std::uint64_t>(7);
    std::vector<sim::NodeId> got;
    const std::vector<sim::NodeId> dsts{1, 3, 5};
    n.multicast(0, dsts, MsgClass::kUpdate, 40,
                [t = std::move(token), &got](sim::NodeId d) {
                  ASSERT_EQ(*t, 7u);
                  got.push_back(d);
                });
    e.run();
    EXPECT_EQ(got, dsts) << "hardware_multicast=" << hw;
  }
}

// ------------------------------------------------------------------
// Wiring: the coherence layer's message path. A remote message is one
// engine event that runs the payload at send + bus + network + bus.

// The default system's bus crossing and hub-local latency. A bus this
// much longer than an update's serialization is what lets a mis-wired
// update path overtake a data reply (race 2 below).
constexpr sim::Cycle kBus = 50;
constexpr sim::Cycle kLocal = 24;

TEST(Wiring, RemotePostIsOneEventAtBothBusCrossingsPlusNetworkLatency) {
  sim::Engine e;
  Network n(e, small_net(4));
  coh::Wiring w(e, n, /*cpus_per_node=*/1, kLocal, kBus);
  constexpr sim::Cycle kSend = 7;
  sim::Cycle ran = 0;
  e.schedule(kSend, [&] {
    w.post(0, 1, MsgClass::kRequest, 32, [&] { ran = e.now(); });
  });
  // The kick-off event plus exactly one event for the message.
  EXPECT_EQ(e.run(), 2u);
  // Uncontended 0 -> 1: 2 hops * 100 + 20 serialization.
  EXPECT_EQ(ran, kSend + 2 * kBus + 220u);
  // Network stats see injection -> arrival only, not the bus.
  EXPECT_EQ(n.stats().latency.min(), 220u);
}

TEST(Wiring, PostUpdateIsOneEventPerTarget) {
  for (bool hw : {false, true}) {
    sim::Engine e;
    NetConfig cfg = small_net(16);
    cfg.hardware_multicast = hw;
    Network n(e, cfg);
    coh::Wiring w(e, n, /*cpus_per_node=*/1, kLocal, kBus);
    std::vector<sim::NodeId> got;
    const std::vector<sim::NodeId> remote{1, 2, 3, 9};
    w.post_update(0, remote, 40, [&](sim::NodeId d) { got.push_back(d); });
    EXPECT_EQ(e.run(), remote.size()) << "hardware_multicast=" << hw;
    EXPECT_EQ(got, remote) << "hardware_multicast=" << hw;
    // A local target is one hub-local event on top of the remote ones.
    got.clear();
    const std::vector<sim::NodeId> mixed{0, 5, 12};
    w.post_update(0, mixed, 40, [&](sim::NodeId d) { got.push_back(d); });
    EXPECT_EQ(e.run(), mixed.size()) << "hardware_multicast=" << hw;
    EXPECT_EQ(got, mixed) << "hardware_multicast=" << hw;
    EXPECT_EQ(w.local_stats().messages, 1u);
    EXPECT_EQ(n.stats().packets, remote.size() + 2);
  }
}

// DESIGN.md section 7, race 2: a word update must not overtake a data
// reply that the same home sent the same node earlier in the same cycle,
// or the update reaches the cache before the line and is dropped. Both
// paths must take one bus-delayed injection pipeline.
TEST(Wiring, DataReplyAndSameCycleUpdateArriveInIssueOrder) {
  for (bool hw : {false, true}) {
    sim::Engine e;
    NetConfig cfg = small_net(8);
    cfg.hardware_multicast = hw;
    Network n(e, cfg);
    coh::Wiring w(e, n, /*cpus_per_node=*/1, kLocal, kBus);
    std::vector<int> order;
    const std::vector<sim::NodeId> target{5};
    e.schedule(3, [&] {
      // A full line fill (128 B payload + header), then a small update.
      w.post(0, 5, MsgClass::kResponse, 136, [&] { order.push_back(1); });
      w.post_update(0, target, 40, [&](sim::NodeId) { order.push_back(2); });
      w.post(0, 5, MsgClass::kResponse, 136, [&] { order.push_back(3); });
      w.post_update(0, target, 40, [&](sim::NodeId) { order.push_back(4); });
    });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}))
        << "hardware_multicast=" << hw;
  }
}

}  // namespace
}  // namespace amo::net
