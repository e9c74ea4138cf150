#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "sync/barrier.hpp"
#include "sync/recording.hpp"
#include "sync/spin.hpp"

namespace amo::sync {

namespace {

// Two-level software combining tree (after Yew, Tzeng & Lawrie): threads
// are grouped into leaf groups of `fanout`; the last arriver of each group
// ascends to the root counter; the last at the root triggers a reverse
// wake-up wave (root release -> group releases -> spinners).
class TreeBarrier final : public Barrier {
 public:
  TreeBarrier(core::Machine& m, Mechanism mech, std::uint32_t participants,
              std::uint32_t fanout)
      : mech_(mech),
        p_(participants),
        sw_half_(m.config().barrier_sw_overhead / 2),
        fanout_(std::max<std::uint32_t>(1, fanout)),
        episode_(m.num_cpus(), 0),
        name_(std::string(to_string(mech)) + " tree barrier (fanout " +
              std::to_string(fanout) + ")") {
    assert(participants >= 1 && participants <= m.num_cpus());
    const std::uint32_t groups = (p_ + fanout_ - 1) / fanout_;
    groups_.resize(groups);
    for (std::uint32_t g = 0; g < groups; ++g) {
      const std::uint32_t first_cpu = g * fanout_;
      const std::uint32_t size =
          std::min(fanout_, p_ - first_cpu);  // last group may be smaller
      // Home the group's variables near its members: this is the point of
      // a combining tree (parallel, mostly-local combining).
      const sim::NodeId home = first_cpu / m.config().cpus_per_node;
      groups_[g].counter = m.galloc().alloc_word_line(home);
      groups_[g].release = m.galloc().alloc_word_line(home);
      groups_[g].size = size;
    }
    root_.counter = m.galloc().alloc_word_line(0);
    root_.release = m.galloc().alloc_word_line(0);
    root_.size = groups;
  }

  // Every leaf op is awaited in place, in if/else arms: no wrapper
  // coroutine per arrival or release, and never a `?:` (DESIGN.md §8).
  // Each op has one call site, as every awaiter lives in this frame.
  sim::Task<void> wait(core::ThreadCtx& t) override {
    if (sw_half_ > 0) co_await t.compute(sw_half_);
    const std::uint64_t ep = ++episode_[t.cpu()];
    // Level 0 is this cpu's group, level 1 the root that joins the group
    // winners.
    const Group* levels[2] = {&groups_[t.cpu() / fanout_], &root_};
    std::uint32_t won = 0;  // levels [0, won) are won
    while (won < 2) {
      const Group& g = *levels[won];
      const std::uint64_t target = ep * g.size;
      std::uint64_t old = 0;
      if (mech_ == Mechanism::kAmo) {
        // The target as test value delays the counter's put to the last
        // arrival.
        old = co_await t.amo(amu::AmoOpcode::kFetchAdd, g.counter, 1, target);
      } else {
        old = co_await fetch_add(mech_, t, g.counter, 1);
      }
      if (old != target - 1) {
        (void)co_await spin_cached_until(
            t, g.release, [ep](std::uint64_t v) { return v >= ep; });
        break;
      }
      ++won;
    }
    // Release every level this cpu won, top-down. Under AMO a release is
    // an eager put: one word-update wave instead of an invalidation storm.
    for (std::uint32_t level = won; level-- > 0;) {
      const sim::Addr release = levels[level]->release;
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

  Mechanism mech_;
  std::uint32_t p_;
  sim::Cycle sw_half_;
  std::uint32_t fanout_;
  std::vector<Group> groups_;
  Group root_;
  std::vector<std::uint64_t> episode_;
  std::string name_;
};

}  // namespace

std::unique_ptr<Barrier> make_tree_barrier(core::Machine& m, Mechanism mech,
                                           std::uint32_t participants,
                                           std::uint32_t fanout) {
  return with_episode_hist(
      m, std::make_unique<TreeBarrier>(m, mech, participants, fanout));
}

}  // namespace amo::sync
