// The combining barrier behind the conventional central, tree and cluster
// barriers: a chain of tiers of counter groups topped by a root group.
#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "sync/barrier.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

// Tier 0 groups `widths[0]` cpus, tier t groups `widths[t]` groups of
// tier t-1, and a root group joins the last tier. The last arriver of
// each group ascends to its parent; the last at the root releases every
// group it won, top-down, and each loser spins on its group's release
// word. Every group's counter and release word are homed on the node of
// its first cpu, so arrivals and wake-ups stay near their members until
// the top (Yew et al.'s software combining tree, and along the fat tree
// the topology-following barrier of Bertuletti et al.).
//
// With AMU aggregation (kAmo only) every cpu issues ONE amo.fetchadd on
// its tier-0 counter and spins there: the home AMUs combine and forward a
// single fetch-add per group up the chain (Amu::AggRoute), and the root
// AMU drives the release wave back down, word-putting each tier-0
// release word. The whole combining tree runs memory-side.
//
// Episode counters grow monotonically (episode k completes a group of
// size S at value k * S), so no reset or sense-reversal race exists and
// the AMU routes are installed once, at construction.
class CombiningBarrier final : public Barrier {
 public:
  CombiningBarrier(core::Machine& m, Mechanism mech, std::uint32_t participants,
                   const std::vector<std::uint32_t>& widths, bool aggregate)
      : Barrier(m),
        mech_(mech),
        cpn_(m.config().cpus_per_node),
        aggregate_(aggregate && mech == Mechanism::kAmo) {
    assert(participants >= 1 && participants <= m.num_cpus());
    std::uint32_t members = participants;  // cpus, then groups below
    std::uint32_t span = 1;                // cpus under one member
    for (std::size_t t = 0; t <= widths.size(); ++t) {
      // The root takes every member left.
      std::uint32_t width = members;
      if (t < widths.size()) width = std::max<std::uint32_t>(1, widths[t]);
      span *= width;
      Tier& tier = tiers_.emplace_back();
      tier.width = width;
      tier.span = span;
      if (std::has_single_bit(span)) tier.shift = std::countr_zero(span);
      const std::uint32_t groups = (members + width - 1) / width;
      for (std::uint32_t e = 0; e < groups; ++e) {
        Group& g = tier.groups.emplace_back();
        g.counter = m.galloc().alloc_word_line(home(t, e));
        g.release = m.galloc().alloc_word_line(home(t, e));
        g.size = std::min(width, members - e * width);  // the last is ragged
      }
      members = groups;
    }
    if (aggregate_) install_routes(m);
  }

 private:
  // Every leaf op is awaited in place, in if/else arms: no wrapper
  // coroutine per arrival or release, and never a `?:` (DESIGN.md §8).
  // Each op has one call site, as every awaiter lives in this frame.
  sim::Task<void> episode(core::ThreadCtx& t, std::uint64_t ep) override {
    // Ascend while last to arrive. Under AMU aggregation every cpu
    // arrives once, at tier 0, and waits there: the AMUs combine, forward
    // and release, and the never-matching test value 0 keeps the
    // counter's put policy silent (the release word put by the tier-0
    // route is the wake-up).
    std::uint32_t won = 0;  // tiers [0, won) on this cpu's chain are won
    while (won < tiers_.size()) {
      const Group& g = group_of(t.cpu(), won);
      const std::uint64_t target = ep * g.size;
      std::uint64_t old = 0;
      if (mech_ == Mechanism::kAmo) {
        // The target as test value delays the counter's put to the last
        // arrival.
        std::uint64_t test = target;
        if (aggregate_) test = 0;
        old = co_await t.amo(amu::AmoOpcode::kFetchAdd, g.counter, 1, test);
      } else {
        old = co_await rmw(mech_, t, amu::AmoOpcode::kFetchAdd, g.counter,
                           1);
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
      const sim::Addr release = group_of(t.cpu(), tier).release;
      if (mech_ == Mechanism::kAmo) {
        (void)co_await t.amo_fetch_add(release, 1);
      } else {
        co_await t.store(release, ep);
      }
    }
  }

  struct Group {
    sim::Addr counter = 0;
    sim::Addr release = 0;
    std::uint32_t size = 0;
  };
  struct Tier {
    std::vector<Group> groups;
    std::uint32_t width = 0;  // members per group
    std::uint32_t span = 0;   // cpus per group
    std::uint32_t shift = 0;  // log2(span) when a power of two above 1
  };

  /// `cpu`'s group at `tier`.
  [[nodiscard]] const Group& group_of(sim::CpuId cpu,
                                      std::uint32_t tier) const {
    const Tier& t = tiers_[tier];
    if (t.shift != 0) return t.groups[cpu >> t.shift];
    return t.groups[cpu / t.span];
  }

  /// The node of the first cpu of group `e` at `tier`.
  [[nodiscard]] sim::NodeId home(std::size_t tier, std::uint32_t e) const {
    return e * tiers_[tier].span / cpn_;
  }

  // Each group's home AMU counts its members' arrivals and, at the
  // group's size, fetch-adds its parent's counter; the root's AMU starts
  // the release wave, which fans down the children lists to the tier-0
  // release words (nobody spins above tier 0).
  void install_routes(core::Machine& m) {
    for (std::size_t t = 0; t < tiers_.size(); ++t) {
      const Tier& tier = tiers_[t];
      for (std::uint32_t e = 0; e < tier.groups.size(); ++e) {
        const Group& g = tier.groups[e];
        amu::Amu::AggRoute r;
        r.counter = g.counter;
        r.threshold = g.size;
        if (t == 0) r.release = g.release;
        if (t + 1 < tiers_.size()) {
          const std::uint32_t up = e / tiers_[t + 1].width;
          r.has_parent = true;
          r.parent_node = home(t + 1, up);
          r.parent_counter = tiers_[t + 1].groups[up].counter;
        }
        if (t > 0) {
          for (std::uint32_t c = e * tier.width; c < e * tier.width + g.size;
               ++c) {
            r.children.emplace_back(home(t - 1, c),
                                    tiers_[t - 1].groups[c].counter);
          }
        }
        m.amu(home(t, e)).add_agg_route(std::move(r));
      }
    }
  }

  Mechanism mech_;
  std::uint32_t cpn_;
  bool aggregate_;
  std::vector<Tier> tiers_;  // the last is the root
};

std::unique_ptr<Barrier> make_combining_barrier(
    core::Machine& m, Mechanism mech, std::uint32_t participants,
    const std::vector<std::uint32_t>& widths, bool aggregate = false) {
  return std::make_unique<CombiningBarrier>(m, mech, participants, widths,
                                            aggregate);
}

}  // namespace

std::unique_ptr<Barrier> make_central_barrier(core::Machine& m,
                                              Mechanism mech,
                                              std::uint32_t participants) {
  // Fig. 3(b), a fetch-add and a spin on a separate release word, is the
  // combining barrier with a root only. For AMO the Fig. 3(a) naive
  // coding is already the efficient one.
  if (mech == Mechanism::kAmo) {
    return make_naive_barrier(m, mech, participants);
  }
  return make_combining_barrier(m, mech, participants, {});
}

std::unique_ptr<Barrier> make_tree_barrier(core::Machine& m, Mechanism mech,
                                           std::uint32_t participants,
                                           std::uint32_t fanout) {
  return make_combining_barrier(m, mech, participants, {fanout});
}

std::unique_ptr<Barrier> make_cluster_barrier(core::Machine& m,
                                              Mechanism mech,
                                              std::uint32_t participants,
                                              std::uint32_t levels,
                                              bool amu_aggregation) {
  const net::Topology& topo = m.network().topology();
  std::vector<std::uint32_t> widths = {m.config().cpus_per_node};
  widths.resize(1 + std::min(levels, topo.levels()), topo.radix());
  return make_combining_barrier(m, mech, participants, widths,
                                amu_aggregation);
}

}  // namespace amo::sync
