#include "cpu/core.hpp"

#include <algorithm>
#include <cassert>

#include "sim/timeout.hpp"

namespace amo::cpu {

Core::Core(sim::Engine& engine, coh::Wiring& wiring, coh::Agents& agents,
           NodeDevices& devices, sim::CpuId cpu, const CoreConfig& config)
    : engine_(engine),
      wiring_(wiring),
      agents_(agents),
      devices_(devices),
      cpu_(cpu),
      node_(wiring.node_of(cpu)),
      config_(config),
      sizes_{config.cache.l2.line_bytes},
      cache_(engine, wiring, agents, cpu, config.cache) {}

sim::Engine::DelayAwaiter Core::compute(sim::Cycle cycles) {
  // Serial CPU-time reservation: later callers queue behind earlier ones.
  const sim::Cycle start = std::max(engine_.now(), cpu_busy_until_);
  cpu_busy_until_ = start + cycles;
  stats_.compute_cycles += cycles;
  return engine_.delay(cpu_busy_until_ - engine_.now());
}

sim::Task<std::uint64_t> Core::amo(amu::AmoOpcode op, sim::Addr addr,
                                   std::uint64_t operand,
                                   std::optional<std::uint64_t> test,
                                   std::uint64_t operand2) {
  ++stats_.amo_ops;
  const sim::NodeId home = coh::home_of(addr);
  sim::Promise<std::uint64_t> p(engine_);
  amu::AmoRequest req;
  req.op = op;
  req.addr = addr;
  req.operand = operand;
  req.operand2 = operand2;
  req.has_test = test.has_value();
  req.test = test.value_or(0);
  req.coherent = true;
  req.reply = [this, home, p](std::uint64_t old) {
    wiring_.post(home, node_, net::MsgClass::kResponse, sizes_.word(),
                 [p, old] { p.set_value(old); });
  };
  // The request waits in this frame, which lives until the reply lands,
  // so the request event carries only a pointer to it.
  amu::Amu* amu = devices_.amus[home];
  wiring_.post(node_, home, net::MsgClass::kRequest, sizes_.ctrl(),
               [amu, r = &req] { amu->submit(std::move(*r)); });
  co_return co_await p.get_future();
}

sim::Task<std::uint64_t> Core::mao(amu::AmoOpcode op, sim::Addr addr,
                                   std::uint64_t operand,
                                   std::uint64_t operand2) {
  ++stats_.mao_ops;
  const sim::NodeId home = coh::home_of(addr);
  sim::Promise<std::uint64_t> p(engine_);
  amu::AmoRequest req;
  req.op = op;
  req.addr = addr;
  req.operand = operand;
  req.operand2 = operand2;
  req.coherent = false;
  req.reply = [this, home, p](std::uint64_t old) {
    wiring_.post(home, node_, net::MsgClass::kResponse, sizes_.word(),
                 [p, old] { p.set_value(old); });
  };
  // The request waits in this frame, which lives until the reply lands,
  // so the request event carries only a pointer to it.
  amu::Amu* amu = devices_.amus[home];
  wiring_.post(node_, home, net::MsgClass::kRequest, sizes_.ctrl(),
               [amu, r = &req] { amu->submit(std::move(*r)); });
  co_return co_await p.get_future();
}

sim::Task<std::uint64_t> Core::uncached_load(sim::Addr addr) {
  ++stats_.uncached_loads;
  const sim::NodeId home = coh::home_of(addr);
  sim::Promise<std::uint64_t> p(engine_);
  coh::Directory* dir = agents_.dirs[home];
  wiring_.post(node_, home, net::MsgClass::kUncached, sizes_.ctrl(),
               [dir, cpu = cpu_, addr, p] { dir->on_uncached_read(cpu, addr, p); });
  co_return co_await p.get_future();
}

sim::Task<void> Core::uncached_store(sim::Addr addr, std::uint64_t value) {
  ++stats_.uncached_stores;
  const sim::NodeId home = coh::home_of(addr);
  sim::Promise<std::uint64_t> p(engine_);
  coh::Directory* dir = agents_.dirs[home];
  wiring_.post(node_, home, net::MsgClass::kUncached, sizes_.word(),
               [dir, cpu = cpu_, addr, value, p] {
                 dir->on_uncached_write(cpu, addr, value, p);
               });
  (void)co_await p.get_future();
}

sim::Task<std::uint64_t> Core::am_rpc(amu::AmoOpcode op, sim::Addr addr,
                                      std::uint64_t operand,
                                      std::uint64_t operand2) {
  const sim::NodeId home = coh::home_of(addr);
  AmServer* server = devices_.servers[home];
  const std::uint64_t seq = am_seq_++;
  for (;;) {
    ++stats_.am_requests;
    sim::Promise<std::uint64_t> p(engine_);
    wiring_.post(node_, home, net::MsgClass::kActiveMsg, sizes_.word(),
                 [server, cpu = cpu_, seq, op, addr, operand, operand2, p] {
                   server->on_request(cpu, seq, op, addr, operand, operand2,
                                      p);
                 });
    std::optional<std::uint64_t> result = co_await sim::with_timeout(
        engine_, p.get_future(), config_.am_timeout_cycles);
    if (result.has_value()) co_return *result;
    ++stats_.am_retransmits;
  }
}

}  // namespace amo::cpu
