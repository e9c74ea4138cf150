// Unit tests for the discrete-event kernel: event queue ordering, engine
// execution, coroutine tasks, and the RNG.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace amo::sim {
namespace {

// Runs the earliest event in its queue slot, as the engine does; returns
// its cycle.
Cycle run_next(EventQueue& q) {
  Cycle when = 0;
  q.dispatch([&when](Cycle w, EventQueue::Callback& fn) {
    when = w;
    fn();
  });
  return when;
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) run_next(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameCycle) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) run_next(q);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ReportsNextTimeAndSize) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(42, [] {});
  q.push(7, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 7u);
  EXPECT_EQ(q.total_pushed(), 2u);
}

// The ladder queue buckets the near future and heaps the far future; FIFO
// within a cycle must survive crossing the bucket-window boundary (events
// for one cycle pushed while it is far-future AND after it entered the
// window must interleave in push order).
TEST(EventQueue, FifoAcrossWindowBoundary) {
  EventQueue q;
  std::vector<int> order;
  const Cycle far = 5000;  // beyond the initial bucket window
  q.push(far, [&] { order.push_back(0); });      // overflow path
  q.push(far, [&] { order.push_back(1); });      // overflow path
  q.push(1, [&] {
    // Executed once `far` is still far-future; goes to overflow too.
    q.push(far, [&] { order.push_back(2); });
  });
  q.push(far - 1, [&] {
    // Executed after the window advanced to cover `far`; bucket path.
    q.push(far, [&] { order.push_back(3); });
  });
  while (!q.empty()) run_next(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, OrdersFarFutureOverflowEvents) {
  EventQueue q;
  std::vector<Cycle> popped;
  // All far apart: every event overflows and each pop advances the window.
  for (Cycle t : {900000u, 10u, 500000u, 70000u, 3u, 1234567u}) {
    q.push(t, [] {});
  }
  while (!q.empty()) popped.push_back(run_next(q));
  EXPECT_EQ(popped,
            (std::vector<Cycle>{3, 10, 70000, 500000, 900000, 1234567}));
}

TEST(EventQueue, SparseEventsSpanningManyWindows) {
  EventQueue q;
  std::uint64_t sum = 0;
  for (int i = 0; i < 100; ++i) {
    q.push(static_cast<Cycle>(i) * 7919, [&sum, i] { sum += i; });
  }
  std::uint64_t pops = 0;
  Cycle last = 0;
  while (!q.empty()) {
    const Cycle when = run_next(q);
    EXPECT_GE(when, last);
    last = when;
    ++pops;
  }
  EXPECT_EQ(pops, 100u);
  EXPECT_EQ(sum, 99u * 100u / 2u);
}

// Before any pop, pushes may arrive in any order: an early push after a
// far-future one is still popped first.
TEST(EventQueue, PushBelowWindowBaseReorders) {
  EventQueue q;
  std::vector<int> order;
  q.push(100000, [&] { order.push_back(3); });  // a far-future span
  q.push(50, [&] { order.push_back(1); });      // earlier, in the window
  q.push(60, [&] { order.push_back(2); });
  q.push(40, [&] { order.push_back(0); });
  EXPECT_EQ(q.next_time(), 40u);
  while (!q.empty()) run_next(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, InterleavesBucketAndOverflowPushesFifo) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] {
    // From inside an event at t=10, cycle 10+2000 is far-future.
    for (int i = 0; i < 4; ++i) {
      q.push(2010, [&order, i] { order.push_back(i); });
    }
  });
  q.push(2000, [&] {
    // By t=2000 the window has advanced; 2010 is bucketed now.
    for (int i = 4; i < 8; ++i) {
      q.push(2010, [&order, i] { order.push_back(i); });
    }
  });
  while (!q.empty()) run_next(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// Oracle: seeded random interleavings of push, next_time() and pop
// against a (when, seq) reference. Deltas reach the same cycle, the
// window, the spans and past the span horizon; bursts put >= 1024 events
// into one span; some pushes land between a next_time() and its pop.
TEST(EventQueue, MatchesReferenceOrderUnderRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::set<std::pair<Cycle, std::uint64_t>> ref;  // (when, push seq)
    std::uint64_t seq = 0;
    std::uint64_t last_id = 0;
    Cycle now = 0;
    auto push = [&](Cycle when) {
      const std::uint64_t id = seq++;
      ref.emplace(when, id);
      q.push(when, [&last_id, id] { last_id = id; });
    };
    auto random_delta = [&]() -> Cycle {
      switch (rng.below(5)) {
        case 0: return rng.below(4);            // same or next few cycles
        case 1: return rng.below(1024);         // within a window
        case 2: return rng.below(16 * 1024);    // near spans
        case 3: return rng.below(300 * 1024);   // up to past the horizon
        default: return rng.below(2'000'000);   // deep overflow
      }
    };
    auto pop_and_check = [&] {
      ASSERT_FALSE(ref.empty());
      const auto [when, id] = *ref.begin();
      ref.erase(ref.begin());
      now = run_next(q);
      ASSERT_EQ(now, when);
      ASSERT_EQ(last_id, id);
    };
    for (int step = 0; step < 6000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 45 || ref.empty()) {
        push(now + random_delta());
      } else if (op < 46) {
        // A burst into one far span: several cycles, many per cycle.
        const Cycle span = (now / 1024 + 2 + rng.below(200)) * 1024;
        const int n = 1024 + static_cast<int>(rng.below(512));
        for (int i = 0; i < n; ++i) push(span + rng.below(8));
      } else if (op < 60) {
        // Peek, then push at or after `now` (possibly before the peeked
        // cycle), then pop.
        ASSERT_EQ(q.next_time(), ref.begin()->first);
        const int n = static_cast<int>(rng.below(3));
        for (int i = 0; i < n; ++i) push(now + rng.below(2048));
        pop_and_check();
      } else {
        ASSERT_EQ(q.next_time(), ref.begin()->first);
        pop_and_check();
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) pop_and_check();
    EXPECT_TRUE(q.empty());
  }
}

// Storage follows the pending events: 1024-event bursts into each of 300
// successive windows (wrapping the span ring), drained between bursts,
// never need more chunks than one burst does.
TEST(EventQueue, StorageBoundedByPendingEventsAcrossWindows) {
  EventQueue q;
  Cycle now = 0;
  std::size_t after_first = 0;
  for (int burst = 0; burst < 300; ++burst) {
    const Cycle span = (now / 1024 + 2) * 1024;
    for (int i = 0; i < 1024; ++i) q.push(span + (i % 8), [] {});
    while (!q.empty()) now = run_next(q);
    if (burst == 0) after_first = q.chunks_carved();
  }
  // 1024 events in 32-slot chunks fill 32 chunks; distributing the span
  // into 8 buckets adds at most 8 partly filled ones, plus the span's own.
  EXPECT_LE(after_first, 32u + 8u + 1u);
  EXPECT_EQ(q.chunks_carved(), after_first);
}

TEST(InlineFn, InvokesSmallCaptureInline) {
  int hits = 0;
  InlineFn fn([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, DefaultIsEmpty) {
  InlineFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFn, MoveTransfersOwnership) {
  int hits = 0;
  InlineFn a([&hits] { ++hits; });
  InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  InlineFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, HoldsMoveOnlyCapture) {
  auto flag = std::make_unique<int>(0);
  int* raw = flag.get();
  InlineFn fn([p = std::move(flag)] { ++*p; });
  InlineFn moved(std::move(fn));
  moved();
  EXPECT_EQ(*raw, 1);
}

TEST(InlineFn, OverSboCaptureFallsBackToHeap) {
  struct Big {
    char pad[96];  // twice the inline buffer
  };
  Big big{};
  big.pad[0] = 7;
  int out = 0;
  InlineFn fn([big, &out] { out = big.pad[0]; });
  EXPECT_FALSE(fn.is_inline());
  InlineFn moved(std::move(fn));  // heap case: move relocates the pointer
  moved();
  EXPECT_EQ(out, 7);
}

TEST(InlineFn, SboBoundaryIsAtLeast48Bytes) {
  // The kernel's contract: lambda captures up to 48 bytes never allocate.
  struct Exactly48 {
    char pad[48];
  };
  static_assert(InlineFn::fits_inline<Exactly48>());
  Exactly48 payload{};
  payload.pad[47] = 1;
  InlineFn fn([payload] { (void)payload; });
  EXPECT_TRUE(fn.is_inline());
}

TEST(InlineFn, DestroysCaptureExactlyOnce) {
  struct Probe {
    int* live;
    explicit Probe(int* l) : live(l) { ++*live; }
    Probe(Probe&& o) noexcept : live(o.live) { ++*live; }
    Probe(const Probe& o) : live(o.live) { ++*live; }
    ~Probe() { --*live; }
    void operator()() const {}
  };
  int live = 0;
  {
    InlineFn fn{Probe(&live)};
    EXPECT_GE(live, 1);
    InlineFn moved(std::move(fn));
    EXPECT_GE(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(Engine, AdvancesClockToEventTime) {
  Engine e;
  Cycle seen = 0;
  e.schedule(100, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, NestedSchedulingUsesCurrentTime) {
  Engine e;
  Cycle seen = 0;
  e.schedule(10, [&] { e.schedule(5, [&] { seen = e.now(); }); });
  e.run();
  EXPECT_EQ(seen, 15u);
}

TEST(Engine, RunRespectsDeadline) {
  Engine e;
  int fired = 0;
  e.schedule(10, [&] { ++fired; });
  e.schedule(100, [&] { ++fired; });
  e.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.idle());
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(e.idle());
}

// Regression: an event scheduled in the past must not rewind the clock.
// Before the fix, schedule_at(10) from an event at t=100 made run() set
// now_ back to 10, breaking monotonicity and downstream FIFO assumptions.
TEST(Engine, ScheduleAtInThePastClampsToNow) {
  Engine e;
  std::vector<Cycle> seen;
  e.schedule(100, [&] {
    e.schedule_at(10, [&] { seen.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 100u);  // ran at the current time, not in the past
  EXPECT_EQ(e.now(), 100u);  // clock never rewound
}

TEST(Engine, ClockIsMonotonicAcrossMixedScheduling) {
  Engine e;
  std::vector<Cycle> times;
  auto mark = [&] { times.push_back(e.now()); };
  e.schedule(50, [&, mark] {
    mark();
    e.schedule_at(20, mark);  // past: clamped
    e.schedule_at(70, mark);  // future: honored
    e.schedule(5, mark);
  });
  e.run();
  ASSERT_EQ(times.size(), 4u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GE(times[i], times[i - 1]);
  }
  EXPECT_EQ(times.back(), 70u);
}

// Same-cycle events must pop in push order even when the pushes mix
// schedule() and schedule_at() — including a clamped-from-the-past
// schedule_at, which takes its FIFO slot at clamp time.
TEST(Engine, FifoAcrossInterleavedScheduleAndScheduleAt) {
  Engine e;
  std::vector<int> order;
  e.schedule(10, [&] {
    e.schedule(0, [&] { order.push_back(0); });
    e.schedule_at(10, [&] { order.push_back(1); });
    e.schedule(0, [&] { order.push_back(2); });
    e.schedule_at(3, [&] { order.push_back(3); });  // past, clamps to 10
    e.schedule(0, [&] { order.push_back(4); });
    e.schedule_at(10, [&] { order.push_back(5); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// Regression: after run() stops at a deadline with the next event in a far
// span, a push just ahead of now() must run first, in the current window.
TEST(Engine, ScheduleAfterDeadlineStopKeepsOrder) {
  Engine e;
  std::vector<Cycle> seen;
  e.schedule_at(10, [&] { seen.push_back(e.now()); });
  e.schedule_at(100000, [&] { seen.push_back(e.now()); });
  e.run(50);
  e.schedule(5, [&] { seen.push_back(e.now()); });
  e.run();
  EXPECT_EQ(seen, (std::vector<Cycle>{10, 15, 100000}));
}

TEST(Engine, StepProcessesOneEvent) {
  Engine e;
  int fired = 0;
  e.schedule(1, [&] { ++fired; });
  e.schedule(2, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
  EXPECT_EQ(e.events_executed(), 2u);
}

// The engine runs each callback in its queue slot and retires the slot
// after the callback returns, so a callback that drains its own bucket can
// still push into its cycle: those events run after it, in push order.
TEST(Engine, CallbackThatDrainsItsBucketPushesIntoSameCycleFifo) {
  Engine e;
  std::vector<int> order;
  std::vector<Cycle> at;
  e.schedule(5, [&] {
    order.push_back(0);
    for (int i = 1; i <= 3; ++i) {
      e.schedule(0, [&, i] {
        order.push_back(i);
        at.push_back(e.now());
      });
    }
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(at, (std::vector<Cycle>{5, 5, 5}));
  EXPECT_EQ(e.pending_events(), 0u);
}

// Whatever the chunk size, some bucket length puts the pushing callback in
// the last slot of a full chunk: its same-cycle push must open a new chunk
// behind the running one, and its next-cycle push must land too.
TEST(Engine, PushFromLastSlotOfFullChunkLands) {
  for (int n = 1; n <= 130; ++n) {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < n; ++i) {
      e.schedule(3, [&, i, n] {
        order.push_back(i);
        if (i == n - 1) {
          e.schedule(0, [&] { order.push_back(1000); });
          e.schedule(1, [&] { order.push_back(2000); });
        }
      });
    }
    e.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(n) + 2) << n;
    for (int i = 0; i < n; ++i) ASSERT_EQ(order[i], i) << n;
    EXPECT_EQ(order[n], 1000) << n;
    EXPECT_EQ(order[n + 1], 2000) << n;
    EXPECT_EQ(e.now(), 4u) << n;
  }
}

// A callback that throws is still retired: the queue's size counts it out,
// its captures are destroyed once, and the next event runs on the next
// run().
TEST(Engine, ThrowingCallbackLeavesQueueIntact) {
  Engine e;
  auto token = std::make_shared<int>(0);
  bool next_ran = false;
  e.schedule(2, [token] { throw std::runtime_error("boom"); });
  e.schedule(2, [&] { next_ran = true; });
  e.schedule(7, [] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1) << "the thrown slot was not destroyed";
  EXPECT_EQ(e.pending_events(), 2u);
  EXPECT_FALSE(next_ran);
  EXPECT_EQ(e.now(), 2u);
  EXPECT_EQ(e.run(), 2u);
  EXPECT_TRUE(next_ran);
  EXPECT_EQ(e.now(), 7u);
  EXPECT_EQ(e.pending_events(), 0u);
}

Task<void> delayer(Engine& e, std::vector<Cycle>& marks) {
  marks.push_back(e.now());
  co_await e.delay(10);
  marks.push_back(e.now());
  co_await e.delay(0);  // zero-cycle delays still yield through the queue
  marks.push_back(e.now());
}

TEST(Coroutines, DelayAwaiterAdvancesTime) {
  Engine e;
  std::vector<Cycle> marks;
  detach(delayer(e, marks));
  e.run();
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[0], 0u);
  EXPECT_EQ(marks[1], 10u);
  EXPECT_EQ(marks[2], 10u);
}

Task<int> answer(Engine& e) {
  co_await e.delay(1);
  co_return 42;
}

Task<void> chain(Engine& e, int& out) {
  out = co_await answer(e);
  out += co_await answer(e);
}

TEST(Coroutines, TasksChainAndReturnValues) {
  Engine e;
  int out = 0;
  detach(chain(e, out));
  e.run();
  EXPECT_EQ(out, 84);
}

Task<int> thrower(Engine& e) {
  co_await e.delay(1);
  throw std::runtime_error("boom");
}

Task<void> catcher(Engine& e, bool& caught) {
  try {
    (void)co_await thrower(e);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Coroutines, ExceptionsPropagateToAwaiter) {
  Engine e;
  bool caught = false;
  detach(catcher(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Coroutines, DetachOnDoneFires) {
  Engine e;
  bool done = false;
  detach(
      [](Engine& eng) -> Task<void> { co_await eng.delay(5); }(e),
      [&done] { done = true; });
  EXPECT_FALSE(done);
  e.run();
  EXPECT_TRUE(done);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(99);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(7);
  bool lo_seen = false;
  bool hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = r.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    lo_seen |= (v == 3);
    hi_seen |= (v == 6);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, SplitGivesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // The child stream should not reproduce the parent's next outputs.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Accum, TracksSummary) {
  Accum a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  a.add(10);
  a.add(20);
  a.add(30);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 60u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.mean(), 20.0);
}

TEST(Accum, MergeCombines) {
  Accum a;
  Accum b;
  a.add(5);
  b.add(15);
  a += b;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 15u);
}

// Regression: merging must be empty-safe in every combination — an empty
// side must not clobber min/max/mean state of the other.
TEST(Accum, MergeEmptyIntoEmpty) {
  Accum a;
  Accum b;
  a += b;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
  a.add(4);  // still usable after the no-op merge
  EXPECT_EQ(a.min(), 4u);
  EXPECT_EQ(a.max(), 4u);
}

TEST(Accum, MergeNonEmptyIntoEmpty) {
  Accum a;
  Accum b;
  b.add(10);
  b.add(30);
  a += b;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.sum(), 40u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.mean(), 20.0);
  EXPECT_DOUBLE_EQ(a.variance(), 100.0);
}

TEST(Accum, MergeEmptyIntoNonEmpty) {
  Accum a;
  Accum b;
  a.add(10);
  a.add(30);
  a += b;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.mean(), 20.0);
  EXPECT_DOUBLE_EQ(a.variance(), 100.0);
}

TEST(Accum, WelfordVarianceMatchesClosedForm) {
  // Classic example: population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
  Accum a;
  for (std::uint64_t v : {2u, 4u, 4u, 4u, 5u, 5u, 7u, 9u}) a.add(v);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.variance(), 4.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 2.0);
}

TEST(Accum, MergedVarianceEqualsSingleStream) {
  Accum whole;
  Accum left;
  Accum right;
  const std::uint64_t xs[] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8};
  for (std::size_t i = 0; i < std::size(xs); ++i) {
    whole.add(xs[i]);
    (i < 5 ? left : right).add(xs[i]);
  }
  left += right;
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_EQ(left.sum(), whole.sum());
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(Accum, SingleSampleHasZeroVariance) {
  Accum a;
  a.add(42);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(a.mean(), 42.0);
}

}  // namespace
}  // namespace amo::sim
