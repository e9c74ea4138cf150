#include <algorithm>
#include <cassert>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "sync/barrier.hpp"
#include "sync/recording.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

// Cluster-hierarchical combining barrier: the fan-in follows the physical
// fat tree instead of a fixed radix. Tier 0 groups the cpus of each node;
// tier t (1..depth) groups the tier t-1 winners under their topology
// level-t ancestor entity; a root counter joins the top-tier winners.
// Every counter and release word is homed at the first node of its
// subtree, so arrivals and wake-ups cross only the links of their own
// cluster until the very top — at 256+ CPUs the root links carry
// O(clusters) packets per episode instead of O(P).
//
// Two modes:
//   * software (any mechanism): the last arriver of each group ascends,
//     exactly like the fixed-fanout TreeBarrier but along the tree.
//   * AMU aggregation (kAmo only): every cpu issues ONE amo.fetchadd on
//     its node-local counter; the home AMUs combine and forward a single
//     fetch-add per cluster per episode up the tree (Amu::AggRoute), and
//     the root AMU drives the release wave back down, word-putting each
//     node's release word. The cpus just spin locally — the entire
//     combining tree runs memory-side.
//
// Episode counters grow monotonically (episode k completes a group of
// size S at value k * S), so no reset or sense-reversal race exists and
// the AMU routes are installed once, at construction.
class ClusterBarrier final : public Barrier {
 public:
  ClusterBarrier(core::Machine& m, Mechanism mech, std::uint32_t participants,
                 std::uint32_t levels, bool aggregate)
      : mech_(mech),
        sw_half_(m.config().barrier_sw_overhead / 2),
        cpn_(m.config().cpus_per_node),
        aggregate_(aggregate && mech == Mechanism::kAmo),
        episode_(m.num_cpus(), 0) {
    assert(participants >= 1 && participants <= m.num_cpus());
    const net::Topology& topo = m.network().topology();
    topo_ = &topo;
    depth_ = std::min(levels, topo.levels());
    name_ = std::string(to_string(mech)) + " cluster barrier (depth " +
            std::to_string(depth_) + (aggregate_ ? ", AMU aggregation)" : ")");

    const std::uint32_t part_nodes = (participants + cpn_ - 1) / cpn_;
    tiers_.resize(depth_ + 1);
    // Tier 0: one group per participating node (entities at level 0 are
    // the nodes themselves, so tier t is uniformly indexed by the
    // entity at topology level t).
    tiers_[0].resize(part_nodes);
    for (std::uint32_t n = 0; n < part_nodes; ++n) {
      Group& g = tiers_[0][n];
      g.counter = m.galloc().alloc_word_line(n);
      g.release = m.galloc().alloc_word_line(n);
      g.size = std::min(cpn_, participants - n * cpn_);
    }
    // Tier t: one group per level-t entity that contains a participating
    // node; its size is the number of participating children one level
    // down. Participating nodes are the prefix [0, part_nodes), and
    // subtree node ranges are contiguous, so participating entities are a
    // prefix at every level too.
    for (std::uint32_t t = 1; t <= depth_; ++t) {
      const std::uint32_t present = topo.ancestor_of(part_nodes - 1, t) + 1;
      tiers_[t].resize(present);
      for (std::uint32_t e = 0; e < present; ++e) {
        Group& g = tiers_[t][e];
        const sim::NodeId home = topo.subtree_first_node(t, e);
        g.counter = m.galloc().alloc_word_line(home);
        g.release = m.galloc().alloc_word_line(home);
        const std::uint32_t below =
            static_cast<std::uint32_t>(tiers_[t - 1].size());
        const std::uint32_t first = e * topo.radix();
        g.size = std::min(topo.radix(), below - first);
      }
    }
    root_.counter = m.galloc().alloc_word_line(0);
    root_.release = m.galloc().alloc_word_line(0);
    root_.size = static_cast<std::uint32_t>(tiers_[depth_].size());

    if (aggregate_) install_routes(m);
  }

  // Every leaf op is awaited in place, in if/else arms: no wrapper
  // coroutine per arrival or release, and never a `?:` (DESIGN.md §8).
  // Each op has one call site, as every awaiter lives in this frame.
  sim::Task<void> wait(core::ThreadCtx& t) override {
    if (sw_half_ > 0) co_await t.compute(sw_half_);
    const std::uint64_t ep = ++episode_[t.cpu()];
    const sim::NodeId node = t.cpu() / cpn_;

    // Ascend while last-to-arrive; tier depth_ + 1 is the root, which
    // joins the top-tier winners. Under AMU aggregation every cpu arrives
    // once, at tier 0, and waits there: the AMUs combine, forward and
    // release, and the never-matching test value 0 keeps the counter's
    // put policy silent (the release word put by the tier-0 route is the
    // wake-up).
    std::uint32_t won = 0;  // tiers [0, won) on this cpu's chain are won
    while (won <= depth_ + 1) {
      const Group& g = group_of(node, won);
      const std::uint64_t target = ep * g.size;
      std::uint64_t old = 0;
      if (mech_ == Mechanism::kAmo) {
        // The target as test value delays the counter's put to the last
        // arrival.
        std::uint64_t test = target;
        if (aggregate_) test = 0;
        old = co_await t.amo(amu::AmoOpcode::kFetchAdd, g.counter, 1, test);
      } else {
        old = co_await fetch_add(mech_, t, g.counter, 1);
      }
      if (aggregate_ || old != target - 1) {
        (void)co_await spin_cached_until(
            t, g.release, [ep](std::uint64_t v) { return v >= ep; });
        break;
      }
      ++won;
    }
    // Release every tier this cpu won, top-down (their losers wait on
    // exactly these words). Under AMO a release is an eager put: one
    // word-update wave instead of an invalidation storm.
    for (std::uint32_t tier = won; tier-- > 0;) {
      const sim::Addr release = group_of(node, tier).release;
      if (mech_ == Mechanism::kAmo) {
        (void)co_await t.amo_fetch_add(release, 1);
      } else {
        co_await t.store(release, ep);
      }
    }
    if (sw_half_ > 0) co_await t.compute(sw_half_);
  }

  [[nodiscard]] const char* name() const override { return name_.c_str(); }

 private:
  struct Group {
    sim::Addr counter = 0;
    sim::Addr release = 0;
    std::uint32_t size = 0;
  };

  /// This node's group at `tier`; tier depth_ + 1 is the root.
  [[nodiscard]] const Group& group_of(sim::NodeId node,
                                      std::uint32_t tier) const {
    if (tier > depth_) return root_;
    return tiers_[tier][topo_->ancestor_of(node, tier)];
  }

  void install_routes(core::Machine& m) {
    const net::Topology& topo = m.network().topology();
    // Tier 0 routes: count cpu arrivals, release the local spinners.
    for (std::uint32_t n = 0; n < tiers_[0].size(); ++n) {
      amu::Amu::AggRoute r;
      r.counter = tiers_[0][n].counter;
      r.threshold = tiers_[0][n].size;
      r.release = tiers_[0][n].release;
      if (depth_ >= 1) {
        const std::uint32_t e1 = topo.ancestor_of(n, 1);
        r.has_parent = true;
        r.parent_node = topo.subtree_first_node(1, e1);
        r.parent_counter = tiers_[1][e1].counter;
      } else {
        r.has_parent = true;
        r.parent_node = 0;
        r.parent_counter = root_.counter;
      }
      m.amu(n).add_agg_route(std::move(r));
    }
    // Intermediate tiers: combine child fires, fan the release down.
    for (std::uint32_t t = 1; t <= depth_; ++t) {
      for (std::uint32_t e = 0; e < tiers_[t].size(); ++e) {
        amu::Amu::AggRoute r;
        r.counter = tiers_[t][e].counter;
        r.threshold = tiers_[t][e].size;
        r.release = 0;  // nobody spins on intermediate tiers
        const sim::NodeId home = topo.subtree_first_node(t, e);
        if (t < depth_) {
          const std::uint32_t ep1 = topo.ancestor_of(home, t + 1);
          r.has_parent = true;
          r.parent_node = topo.subtree_first_node(t + 1, ep1);
          r.parent_counter = tiers_[t + 1][ep1].counter;
        } else {
          r.has_parent = true;
          r.parent_node = 0;
          r.parent_counter = root_.counter;
        }
        const std::uint32_t first = e * topo.radix();
        const std::uint32_t count = tiers_[t][e].size;
        for (std::uint32_t c = first; c < first + count; ++c) {
          const sim::NodeId child_home =
              t - 1 == 0 ? c : topo.subtree_first_node(t - 1, c);
          r.children.emplace_back(child_home, tiers_[t - 1][c].counter);
        }
        m.amu(home).add_agg_route(std::move(r));
      }
    }
    // Root route on node 0: joins the top-tier fires, starts the wave.
    amu::Amu::AggRoute root;
    root.counter = root_.counter;
    root.threshold = root_.size;
    root.release = 0;
    for (std::uint32_t e = 0; e < tiers_[depth_].size(); ++e) {
      const sim::NodeId child_home =
          depth_ == 0 ? e : topo.subtree_first_node(depth_, e);
      root.children.emplace_back(child_home, tiers_[depth_][e].counter);
    }
    m.amu(0).add_agg_route(std::move(root));
  }

  Mechanism mech_;
  sim::Cycle sw_half_;
  std::uint32_t cpn_;
  bool aggregate_;
  std::uint32_t depth_ = 0;
  const net::Topology* topo_ = nullptr;
  std::vector<std::vector<Group>> tiers_;  // [tier][entity]
  Group root_;
  std::vector<std::uint64_t> episode_;
  std::string name_;
};

}  // namespace

std::unique_ptr<Barrier> make_cluster_barrier(core::Machine& m,
                                              Mechanism mech,
                                              std::uint32_t participants,
                                              std::uint32_t levels,
                                              bool amu_aggregation) {
  return with_episode_hist(
      m, std::make_unique<ClusterBarrier>(m, mech, participants, levels,
                                          amu_aggregation));
}

}  // namespace amo::sync
