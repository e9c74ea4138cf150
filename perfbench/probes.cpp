// Layer probes: each times one layer's public functions in isolation, the
// same calls bench/microbench_{engine,netpath,execpath} drive, and returns
// host nanoseconds per operation (median over a few repetitions).
#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "amu/amu.hpp"
#include "coh/agents.hpp"
#include "coh/directory.hpp"
#include "coh/wiring.hpp"
#include "core/machine.hpp"
#include "mem/backing.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace perfbench {

namespace {

using namespace amo;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 7;

// Volatile sink so the optimizer keeps every probe's work.
volatile std::uint64_t g_sink = 0;

/// Median ns/op of `body`, which runs one batch and returns its op count.
/// `setup` builds fresh per-repetition state outside the timed region.
template <typename Setup, typename Body>
double median_ns(Setup setup, Body body) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    auto state = setup();
    const auto t0 = Clock::now();
    const std::uint64_t ops = body(*state);
    const auto t1 = Clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(ops));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

// EventQueue push + pop through Engine::schedule / run: a dense batch
// (deadlines within a 97-cycle band) and a far-horizon batch (strides of
// 5000 cycles, several ladder-window advances).
double queue_op_ns() {
  constexpr int kEvents = 20000;
  return median_ns([] { return std::make_unique<sim::Engine>(); },
                   [](sim::Engine& engine) -> std::uint64_t {
                     std::uint64_t fired = 0;
                     for (int i = 0; i < kEvents; ++i) {
                       const sim::Cycle when =
                           i % 2 == 0 ? static_cast<sim::Cycle>(i % 97)
                                      : static_cast<sim::Cycle>(i % 89) * 5000;
                       engine.schedule(when, [&fired] { ++fired; });
                     }
                     engine.run();
                     g_sink = g_sink + fired;
                     return kEvents;
                   });
}

sim::Task<std::uint64_t> leaf(std::uint64_t v) { co_return v; }

sim::Task<void> delay_chain(sim::Engine& e, int n, std::uint64_t* acc) {
  for (int i = 0; i < n; ++i) {
    co_await e.delay(1);
    *acc += co_await leaf(1);
  }
}

// Task spawn/resume through Engine: each step suspends on a one-cycle
// delay, resumes from the event queue, and awaits a leaf coroutine.
double resume_ns() {
  constexpr int kSteps = 20000;
  return median_ns([] { return std::make_unique<sim::Engine>(); },
                   [](sim::Engine& engine) -> std::uint64_t {
                     std::uint64_t acc = 0;
                     sim::detach(delay_chain(engine, kSteps, &acc));
                     engine.run();
                     g_sink = g_sink + acc;
                     return kSteps;
                   });
}

// Network::send over the 1024-CPU fat tree (512 nodes): mixed near and
// far destination pairs, delivered by running the engine.
double send_ns() {
  constexpr std::uint32_t kNodes = 512;
  constexpr int kPackets = 20000;
  struct State {
    sim::Engine engine;
    net::Network net;
    State() : net(engine, [] {
                net::NetConfig cfg;
                cfg.num_nodes = kNodes;
                return cfg;
              }()) {}
  };
  return median_ns([] { return std::make_unique<State>(); },
                   [](State& s) -> std::uint64_t {
                     std::uint64_t delivered = 0;
                     for (int i = 0; i < kPackets; ++i) {
                       const auto src = static_cast<sim::NodeId>(i % kNodes);
                       auto dst =
                           static_cast<sim::NodeId>((i * 7 + 1) % kNodes);
                       if (dst == src) dst = (dst + 1) % kNodes;
                       s.net.send(net::Packet{src, dst,
                                              net::MsgClass::kRequest, 32,
                                              [&delivered] { ++delivered; }});
                     }
                     s.engine.run();
                     g_sink = g_sink + delivered;
                     return kPackets;
                   });
}

// AMU stand-in that always holds the word, so word_put runs its full
// directory pipeline slot instead of aborting on the ownership check.
class StubAmu final : public coh::AmuIface {
 public:
  [[nodiscard]] bool holds_word(sim::Addr) const override { return true; }
  [[nodiscard]] std::uint64_t peek_word(sim::Addr) const override {
    return 0;
  }
  void store_word(sim::Addr, std::uint64_t) override {}
  void drop_block(sim::Addr) override {}
};

// Directory word_get / word_put storm over 256 blocks: the AMU's path
// into the directory (entry table, occupancy pipeline, deferred queue).
double word_op_ns() {
  constexpr int kOps = 8000;
  constexpr int kBlocks = 256;
  struct State {
    sim::Engine engine;
    net::Network net;
    coh::Wiring wiring;
    mem::Backing backing{128};
    mem::Dram dram;
    StubAmu amu;
    coh::Agents agents;
    coh::Directory dir;
    State()
        : net(engine,
              [] {
                net::NetConfig cfg;
                cfg.num_nodes = 2;
                return cfg;
              }()),
          wiring(engine, net, /*cpus_per_node=*/1, /*local_cycles=*/32),
          dram(engine, mem::DramConfig{}),
          agents(make_agents(&amu)),
          dir(engine, wiring, agents, /*node=*/0, backing, dram,
              coh::DirConfig{}) {
      agents.dirs[0] = &dir;
    }
    static coh::Agents make_agents(StubAmu* amu) {
      coh::Agents a;
      a.caches.assign(2, nullptr);
      a.dirs.assign(2, nullptr);
      a.amus.assign(2, amu);
      return a;
    }
  };
  return median_ns([] { return std::make_unique<State>(); },
                   [](State& s) -> std::uint64_t {
                     std::uint64_t got = 0;
                     for (int i = 0; i < kOps; ++i) {
                       const auto addr = static_cast<sim::Addr>(
                           (i % kBlocks) * 128 + (i % 16) * 8);
                       if (i % 4 == 3) {
                         s.dir.word_put(addr, static_cast<std::uint64_t>(i));
                       } else {
                         s.dir.word_get(addr, [&got](std::uint64_t) { ++got; });
                       }
                     }
                     s.engine.run();
                     g_sink = g_sink + got;
                     return kOps;
                   });
}

// mem::Cache hit loop (find + read_word over a resident 256 KB set) and
// fill/evict churn (insert over twice the capacity), ns per access over
// both loops.
double cache_access_ns() {
  constexpr int kHits = 100000;
  constexpr int kFills = 40000;
  struct State {
    mem::CacheGeometry hit_geom{256 * 1024, 4, 128};
    mem::CacheGeometry fill_geom{64 * 1024, 4, 128};
    mem::Cache hit_cache{hit_geom};
    mem::Cache fill_cache{fill_geom};
    std::vector<std::uint64_t> words = std::vector<std::uint64_t>(16, 7);
    State() {
      const std::uint32_t lines = hit_geom.num_sets() * hit_geom.ways;
      for (std::uint32_t i = 0; i < lines; ++i) {
        hit_cache.insert(static_cast<sim::Addr>(i) * hit_geom.line_bytes,
                         mem::LineState::kShared, words);
      }
    }
  };
  return median_ns(
      [] { return std::make_unique<State>(); },
      [](State& s) -> std::uint64_t {
        std::uint64_t sum = 0;
        const std::uint32_t hit_lines = s.hit_geom.num_sets() * s.hit_geom.ways;
        for (int i = 0; i < kHits; ++i) {
          const auto addr = static_cast<sim::Addr>(
              (static_cast<std::uint64_t>(i) * 40503 % hit_lines) * 128 +
              (i % 16) * 8);
          mem::Cache::Line* line = s.hit_cache.find(addr);
          sum += s.hit_cache.read_word(*line, addr);
        }
        const std::uint32_t fill_lines =
            s.fill_geom.num_sets() * s.fill_geom.ways;
        for (int i = 0; i < kFills; ++i) {
          const auto addr = static_cast<sim::Addr>(
              (static_cast<std::uint64_t>(i) % (2 * fill_lines)) * 128);
          if (s.fill_cache.find(addr) != nullptr) continue;
          sum += s.fill_cache.insert(addr, mem::LineState::kShared, s.words)
                     .has_value();
        }
        g_sink = g_sink + sum;
        return kHits + kFills;
      });
}

// Amu::submit -> reply on a small machine: fetch-adds on a few words
// homed at node 0, so the AMU cache hits after the first touch of each.
double amu_op_ns() {
  constexpr int kOps = 20000;
  constexpr int kWords = 4;
  struct State {
    core::Machine m;
    std::vector<sim::Addr> words;
    State() : m([] {
                core::SystemConfig cfg;
                cfg.num_cpus = 4;
                return cfg;
              }()) {
      for (int w = 0; w < kWords; ++w) {
        words.push_back(m.galloc().alloc_word_line(0));
      }
    }
  };
  return median_ns([] { return std::make_unique<State>(); },
                   [](State& s) -> std::uint64_t {
                     std::uint64_t replies = 0;
                     for (int i = 0; i < kOps; ++i) {
                       amu::AmoRequest req;
                       req.op = amu::AmoOpcode::kFetchAdd;
                       req.addr = s.words[i % kWords];
                       req.operand = 1;
                       req.reply = [&replies](std::uint64_t) { ++replies; };
                       s.m.amu(0).submit(std::move(req));
                     }
                     s.m.engine().run();
                     g_sink = g_sink + replies;
                     return kOps;
                   });
}

}  // namespace

LayerProbes run_layer_probes() {
  LayerProbes p;
  p.queue_op_ns = queue_op_ns();
  p.resume_ns = resume_ns();
  p.send_ns = send_ns();
  p.word_op_ns = word_op_ns();
  p.cache_access_ns = cache_access_ns();
  p.amu_op_ns = amu_op_ns();
  return p;
}

}  // namespace perfbench
