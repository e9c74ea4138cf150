#include "core/machine.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace amo::core {

Machine::Machine(const SystemConfig& config)
    : config_(config),
      registry_(config.stats.histograms),
      backing_(config.line_bytes()),
      rng_(config.seed) {
  const std::uint32_t nodes = config_.num_nodes();
  net::NetConfig net_cfg = config_.net;
  net_cfg.num_nodes = nodes;
  // A single-node machine still needs a valid (degenerate) topology.
  network_ = std::make_unique<net::Network>(engine_, net_cfg);
  wiring_ = std::make_unique<coh::Wiring>(engine_, *network_,
                                          config_.cpus_per_node,
                                          config_.local_cycles,
                                          config_.bus_cycles);
  galloc_ = std::make_unique<GAlloc>(nodes, config_.line_bytes());

  agents_.caches.resize(config_.num_cpus, nullptr);
  agents_.dirs.resize(nodes, nullptr);
  agents_.amus.resize(nodes, nullptr);
  devices_.amus.resize(nodes, nullptr);
  devices_.servers.resize(nodes, nullptr);

  drams_.reserve(nodes);
  dirs_.reserve(nodes);
  for (sim::NodeId n = 0; n < nodes; ++n) {
    drams_.push_back(std::make_unique<mem::Dram>(engine_, config_.dram));
    dirs_.push_back(std::make_unique<coh::Directory>(
        engine_, *wiring_, agents_, n, backing_, *drams_[n], config_.dir));
    agents_.dirs[n] = dirs_[n].get();
  }

  cpu::CoreConfig core_cfg;
  core_cfg.cache = config_.cache;
  core_cfg.am_timeout_cycles = config_.am_timeout_cycles;
  cores_.reserve(config_.num_cpus);
  ctxs_.reserve(config_.num_cpus);
  for (sim::CpuId c = 0; c < config_.num_cpus; ++c) {
    cores_.push_back(std::make_unique<cpu::Core>(
        engine_, *wiring_, agents_, devices_, c, core_cfg));
    agents_.caches[c] = &cores_[c]->cache();
    ctxs_.push_back(
        std::make_unique<ThreadCtx>(*cores_[c], engine_, rng_.split()));
  }

  amus_.reserve(nodes);
  servers_.reserve(nodes);
  for (sim::NodeId n = 0; n < nodes; ++n) {
    amus_.push_back(std::make_unique<amu::Amu>(
        engine_, n, *dirs_[n], backing_, *drams_[n], config_.amu));
    agents_.amus[n] = amus_[n].get();
    devices_.amus[n] = amus_[n].get();
    // Handlers run on the node's first core (the paper's home-processor
    // interference model).
    servers_.push_back(std::make_unique<cpu::AmServer>(
        engine_, *wiring_, *cores_[n * config_.cpus_per_node],
        config_.am_server));
    devices_.servers[n] = servers_[n].get();
  }
  // Hook every AMU into the fabric for per-subtree aggregation
  // (AMU -> AMU combining); devices_.amus is stable from here on.
  for (sim::NodeId n = 0; n < nodes; ++n) {
    amus_[n]->connect_fabric(wiring_.get(), &devices_.amus);
  }

  // Index every subsystem's counters under hierarchical names. The
  // registry holds pointers and closures into this Machine's subsystems,
  // and hands each subsystem its histograms (nullptr when they are off).
  registry_.add_fn("engine.events_executed",
                   [this] { return engine_.events_executed(); });
  registry_.add_fn("engine.now", [this] { return engine_.now(); });
  registry_.add_fn("engine.queue.pushed",
                   [this] { return engine_.events_scheduled(); });
  registry_.add_fn("engine.queue.pending",
                   [this] { return engine_.pending_events(); });
  network_->register_stats(registry_, "net");
  registry_.add_counter("local.messages", &wiring_->local_stats().messages);
  registry_.add_counter("local.bytes", &wiring_->local_stats().bytes);
  for (sim::NodeId n = 0; n < nodes; ++n) {
    const std::string prefix = "node" + std::to_string(n);
    dirs_[n]->register_stats(registry_, prefix + ".dir");
    amus_[n]->register_stats(registry_, prefix + ".amu");
    servers_[n]->register_stats(registry_, prefix + ".am");
  }
  for (sim::CpuId c = 0; c < config_.num_cpus; ++c) {
    cores_[c]->cache().register_stats(registry_,
                                      "cpu" + std::to_string(c) + ".cache");
  }
  engine_.set_dispatch_hist(registry_.hist("engine.dispatch_delay_hist"));
  sync_hists_.lock_acquire = registry_.hist("sync.lock_acquire_hist");
  sync_hists_.barrier_episode = registry_.hist("sync.barrier_episode_hist");
}

void Machine::spawn(sim::CpuId c,
                    std::function<sim::Task<void>(ThreadCtx&)> body) {
  if (c >= config_.num_cpus) throw std::out_of_range("spawn: bad cpu id");
  ++pending_;
  // Keep the functor alive for the coroutine's lifetime, then start it
  // through the event queue for deterministic interleaving.
  bodies_.push_back(std::move(body));
  auto& stored = bodies_.back();
  engine_.schedule(0, [this, c, &stored] {
    sim::detach(stored(*ctxs_[c]), [this] { --pending_; });
  });
}

void Machine::run() {
  engine_.run();
  if (pending_threads() != 0) {
    std::ostringstream oss;
    oss << "Machine::run: event queue drained with " << pending_threads()
        << " thread(s) still blocked (deadlock)";
    // A parked spin wakes only on a coherence event, so a missed wake
    // shows up here: name each such waiter and the line it waits on.
    for (sim::CpuId c = 0; c < config_.num_cpus; ++c) {
      for (const sim::Addr line : cores_[c]->cache().parked_lines()) {
        oss << "\n  cpu" << c << " parked on line 0x" << std::hex << line
            << std::dec << " (home node " << coh::home_of(line) << ")";
      }
    }
    throw std::runtime_error(oss.str());
  }
}

std::uint64_t Machine::peek_word(sim::Addr addr) const {
  const sim::Addr block =
      addr & ~static_cast<sim::Addr>(config_.line_bytes() - 1);
  const coh::Directory& d = *dirs_[coh::home_of(addr)];
  if (d.state_of(block) == coh::Directory::State::kExclusive) {
    const sim::CpuId owner = d.owner_of(block);
    const mem::Cache& l2 = cores_[owner]->cache().l2();
    const mem::Cache::Line* line = l2.peek(addr);
    if (line != nullptr) {
      return l2.words(*line)[(addr - block) / 8];
    }
  }
  const amu::Amu& a = *amus_[coh::home_of(addr)];
  if (a.holds_word(addr)) return a.peek_word(addr);
  // const_cast: Backing lazily materializes zero-filled lines.
  return const_cast<mem::Backing&>(backing_).read_word(addr);
}

void Machine::check_coherence() const {
  if (!engine_.idle()) {
    throw std::logic_error("check_coherence: engine not quiescent");
  }
  struct Copy {
    sim::CpuId cpu;
    mem::LineState state;
  };
  std::unordered_map<sim::Addr, std::vector<Copy>> copies;
  for (sim::CpuId c = 0; c < config_.num_cpus; ++c) {
    cores_[c]->cache().l2().for_each_line([&](const mem::Cache::Line& line) {
      copies[line.block].push_back(Copy{c, line.state});
    });
  }
  for (const auto& [block, list] : copies) {
    const sim::NodeId home = coh::home_of(block);
    const coh::Directory& d = *dirs_[home];
    if (d.busy(block)) {
      throw std::logic_error("coherence: busy block at quiescence");
    }
    std::uint32_t exclusive_copies = 0;
    for (const Copy& cp : list) {
      if (cp.state == mem::LineState::kModified ||
          cp.state == mem::LineState::kExclusive) {
        ++exclusive_copies;
        if (d.state_of(block) != coh::Directory::State::kExclusive ||
            d.owner_of(block) != cp.cpu) {
          throw std::logic_error(
              "coherence: M/E copy not matching directory owner");
        }
      } else {
        if (!d.is_sharer(block, cp.cpu)) {
          throw std::logic_error(
              "coherence: S copy not in directory sharer list");
        }
      }
    }
    if (exclusive_copies > 1 ||
        (exclusive_copies == 1 && list.size() > 1)) {
      throw std::logic_error("coherence: multiple writers / mixed copies");
    }
  }
}

}  // namespace amo::core
