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

// Every co_await of an AMO gives its caller's frame one of these.
static_assert(sizeof(Core::AmoAwaiter) <= 56);

void Core::AmoAwaiter::await_suspend(std::coroutine_handle<> h) {
  h_ = h;
  Core& c = *core_;
  if (coherent_) {
    ++c.stats_.amo_ops;
  } else {
    ++c.stats_.mao_ops;
  }
  // The request event carries only a pointer to this awaiter, which
  // waits in the caller's frame until the reply lands.
  const sim::NodeId home = coh::home_of(addr_);
  amu::Amu* amu = c.devices_.amus[home];
  c.wiring_.post(c.node_, home, net::MsgClass::kRequest, c.sizes_.ctrl(),
                 [amu, a = this] { amu->submit(a->request()); });
}

amu::AmoRequest Core::AmoAwaiter::request() {
  amu::AmoRequest req;
  req.op = op_;
  req.addr = addr_;
  req.operand = word_;
  req.operand2 = operand2_;
  req.has_test = has_test_;
  req.test = test_;
  req.coherent = coherent_;
  req.reply = [a = this](std::uint64_t old) {
    Core& c = *a->core_;
    c.wiring_.post(coh::home_of(a->addr_), c.node_, net::MsgClass::kResponse,
                   c.sizes_.word(), [a, old] {
                     a->word_ = old;
                     a->core_->engine_.schedule(
                         0, [h = a->h_] { h.resume(); });
                   });
  };
  return req;
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
