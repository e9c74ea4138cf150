// Fat-tree topology (NUMALink-4-like): radix-R routers, deterministic
// up/down routing. Level 0 entities are nodes; level k>=1 entities are
// routers. Each child<->parent pair is connected by one "up" and one
// "down" unidirectional link.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace amo::net {

/// Identifies a unidirectional link in the tree.
struct LinkRef {
  std::uint32_t level;  // level of the child endpoint (0 = node)
  std::uint32_t child;  // index of the child entity at that level
  bool up;              // true: child -> parent, false: parent -> child
};

class Topology;

/// Allocation-free route iterator: emits the same link sequence as
/// Topology::route(src, dst) without materializing a vector. A single
/// constructor pass divides both endpoints up the tree, recording dst's
/// ancestor chain in a fixed inline array (entity indices at least halve
/// per level, so 32 slots cover any 32-bit node count); iteration then
/// walks src's up-links and replays the chain top-down. The common
/// ancestor level (and hence hop count) falls out of the same pass, so
/// callers never re-walk the tree.
class RouteWalker {
 public:
  static constexpr std::uint32_t kMaxLevels = 32;

  RouteWalker(const Topology& topo, sim::NodeId src, sim::NodeId dst);

  /// Level of the lowest common ancestor router (>= 1).
  [[nodiscard]] std::uint32_t common_level() const { return common_; }

  /// Total links on the path (up-phase plus down-phase).
  [[nodiscard]] std::uint32_t hop_count() const { return 2 * common_; }

  /// Emits the next link of the path into `out`; false once exhausted.
  bool next(LinkRef& out) {
    if (up_ < common_) {
      out = LinkRef{up_, up_entity_, /*up=*/true};
      up_entity_ = shift_ != 0 ? up_entity_ >> shift_ : up_entity_ / radix_;
      ++up_;
      return true;
    }
    if (down_ > 0) {
      --down_;
      out = LinkRef{down_, chain_[down_], /*up=*/false};
      return true;
    }
    return false;
  }

 private:
  std::uint32_t radix_;
  std::uint32_t shift_;          // log2(radix) when a power of two, else 0
  std::uint32_t common_ = 0;     // lowest common ancestor level
  std::uint32_t up_ = 0;         // next up-phase level to emit
  std::uint32_t down_ = 0;       // down-phase levels remaining
  std::uint32_t up_entity_;      // src's ancestor at level `up_`
  std::uint32_t chain_[kMaxLevels];  // dst's ancestor per level (0 = dst)
};

class Topology {
 public:
  /// Builds a fat tree over `num_nodes` nodes with router radix `radix`.
  Topology(std::uint32_t num_nodes, std::uint32_t radix);

  [[nodiscard]] std::uint32_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::uint32_t radix() const { return radix_; }

  /// log2(radix) when the radix is a power of two (the common
  /// configuration), else 0. Lets routing replace integer division with a
  /// shift on the per-packet path.
  [[nodiscard]] std::uint32_t radix_shift() const { return radix_shift_; }

  /// Parent entity index one level up: e / radix, via shift when possible.
  [[nodiscard]] std::uint32_t parent_of(std::uint32_t e) const {
    return radix_shift_ != 0 ? e >> radix_shift_ : e / radix_;
  }

  /// Number of router levels above the nodes (0 for a single-node system).
  [[nodiscard]] std::uint32_t levels() const {
    return static_cast<std::uint32_t>(entities_per_level_.size()) - 1;
  }

  /// Entities (nodes for level 0, routers above) at a level.
  [[nodiscard]] std::uint32_t entities_at(std::uint32_t level) const {
    return entities_per_level_[level];
  }

  /// Number of link traversals (hops) between two distinct nodes.
  [[nodiscard]] std::uint32_t hop_count(sim::NodeId a, sim::NodeId b) const;

  /// The ordered list of links a packet from `src` to `dst` traverses.
  /// Precondition: src != dst. Reference implementation: the fabric's hot
  /// path uses RouteWalker instead (same sequence, no allocation); this
  /// stays as the oracle the walker is property-tested against and for
  /// offline tooling.
  [[nodiscard]] std::vector<LinkRef> route(sim::NodeId src,
                                           sim::NodeId dst) const;

  /// Flat index of a link (for the fabric's link-state arrays). Inline:
  /// the fabric calls this once per hop per packet.
  [[nodiscard]] std::uint32_t link_index(const LinkRef& l) const {
    assert(l.level < up_link_base_.size());
    assert(l.child < entities_per_level_[l.level]);
    return (l.up ? up_link_base_[l.level] : down_link_base_[l.level]) +
           l.child;
  }

  /// Total number of unidirectional links.
  [[nodiscard]] std::uint32_t num_links() const { return num_links_; }

  /// Sets the per-level link traversal latencies. `latencies[l]` is the
  /// cost of crossing any link whose child endpoint sits at level `l`
  /// (level 0 = node<->leaf-router links). Must supply exactly levels()
  /// entries, all nonzero. Until called, every level uses the uniform
  /// default the Network seeds from its hop_cycles knob.
  void set_link_latencies(const std::vector<sim::Cycle>& latencies);

  /// Latency of one link traversal at `level`.
  [[nodiscard]] sim::Cycle link_latency(std::uint32_t level) const {
    assert(level < link_latency_.size());
    return link_latency_[level];
  }

  // --- Membership queries (hierarchy-aware synchronization) ---------------
  // The sync library carves the machine into clusters that follow the
  // physical tree: the cluster of a node at level L is its ancestor entity
  // at that level, and a cluster's member nodes are a contiguous range
  // (entities are laid out in node order, parent = child / radix).

  /// Ancestor entity of `node` at `level` (level 0 = the node itself).
  [[nodiscard]] std::uint32_t ancestor_of(sim::NodeId node,
                                          std::uint32_t level) const {
    assert(node < num_nodes_);
    assert(level < entities_per_level_.size());
    return radix_shift_ != 0 ? node >> (radix_shift_ * level)
                             : node / subtree_span_[level];
  }

  /// Maximum nodes a level-`level` entity can cover (radix^level,
  /// saturated at num_nodes()).
  [[nodiscard]] std::uint32_t subtree_span(std::uint32_t level) const {
    assert(level < subtree_span_.size());
    return subtree_span_[level];
  }

  /// First node in the subtree rooted at entity `e` of `level`.
  [[nodiscard]] std::uint32_t subtree_first_node(std::uint32_t level,
                                                 std::uint32_t e) const {
    assert(level < entities_per_level_.size());
    assert(e < entities_per_level_[level]);
    return e * subtree_span_[level];
  }

  /// Number of nodes in the subtree rooted at entity `e` of `level`
  /// (the last entity at a level may cover a partial range).
  [[nodiscard]] std::uint32_t subtree_num_nodes(std::uint32_t level,
                                                std::uint32_t e) const {
    const std::uint32_t first = subtree_first_node(level, e);
    const std::uint32_t span = subtree_span_[level];
    return first + span <= num_nodes_ ? span : num_nodes_ - first;
  }

  /// Number of populated children a level-`level` entity has one level
  /// down (level >= 1; children of a level-1 router are nodes).
  [[nodiscard]] std::uint32_t num_children(std::uint32_t level,
                                           std::uint32_t e) const {
    assert(level >= 1 && level < entities_per_level_.size());
    const std::uint32_t below = entities_per_level_[level - 1];
    const std::uint32_t first = e * radix_;
    assert(first < below);
    return first + radix_ <= below ? radix_ : below - first;
  }

 private:
  // Level of the lowest common ancestor *router* of a and b (>= 1).
  [[nodiscard]] std::uint32_t common_level(sim::NodeId a, sim::NodeId b) const;

  std::uint32_t num_nodes_;
  std::uint32_t radix_;
  std::uint32_t radix_shift_ = 0;  // log2(radix) if radix is a power of two
  std::vector<std::uint32_t> entities_per_level_;  // [0]=nodes, [k]=routers
  std::vector<std::uint32_t> up_link_base_;   // flat index base per level
  std::vector<std::uint32_t> down_link_base_;
  std::vector<sim::Cycle> link_latency_;      // per-level traversal cost
  std::vector<std::uint32_t> subtree_span_;   // radix^level, saturated
  std::uint32_t num_links_ = 0;
};

}  // namespace amo::net
