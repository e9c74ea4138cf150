#include "cpu/core.hpp"

#include <algorithm>
#include <utility>

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
  const sim::NodeId home = coh::home_of(addr_);
  if (kind_ == Kind::kUncachedLoad) {
    ++c.stats_.uncached_loads;
    coh::Directory* dir = c.agents_.dirs[home];
    c.wiring_.post(c.node_, home, net::MsgClass::kUncached, c.sizes_.ctrl(),
                   [dir, cpu = c.cpu_, a = this] {
                     dir->on_uncached_read(cpu, a->addr_, &a->word_, a->h_);
                   });
    return;
  }
  if (kind_ == Kind::kAmo) {
    ++c.stats_.amo_ops;
  } else {
    ++c.stats_.mao_ops;
  }
  // The request event carries only a pointer to this awaiter, which
  // waits in the caller's frame until the reply lands.
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
  req.coherent = kind_ == Kind::kAmo;
  req.reply = [a = this](std::uint64_t old) {
    Core& c = *a->core_;
    c.wiring_.post(coh::home_of(a->addr_), c.node_, net::MsgClass::kResponse,
                   c.sizes_.word(), [a, old] {
                     a->word_ = old;
                     a->core_->engine_.wake(a->h_);
                   });
  };
  return req;
}

sim::Task<std::uint64_t> Core::am_rpc(amu::AmoOpcode op, sim::Addr addr,
                                      std::uint64_t operand,
                                      std::uint64_t operand2) {
  const std::uint64_t seq = am_seq_++;
  for (;;) {
    ++stats_.am_requests;
    const std::uint32_t token = ++am_token_;
    am_decided_ = false;
    // Widest captures first, so the closure fits InlineFn's buffer.
    auto request = [this, seq, addr, operand, operand2, token, op] {
      devices_.servers[coh::home_of(addr)]->on_request(
          *this, seq, token, op, addr, operand, operand2);
    };
    static_assert(sim::InlineFn::fits_inline<decltype(request)>());
    wiring_.post(node_, coh::home_of(addr), net::MsgClass::kActiveMsg,
                 sizes_.word(), std::move(request));
    // An attempt's events: this timer, one zero-cycle hop per reply
    // delivery (am_reply), and one zero-cycle resume for whichever of
    // them decides first. The hop makes a reply that lands in its
    // timer's cycle lose, and spends one no-op event on a late reply to
    // an abandoned attempt; every pinned event count (EventPin.ActMsg*)
    // and simulated number was measured with exactly these events.
    engine_.schedule(config_.am_timeout_cycles,
                     [this, token] { am_decide(token, std::nullopt); });
    const std::optional<std::uint64_t> result = co_await AmWait{*this};
    if (result.has_value()) co_return *result;
    ++stats_.am_retransmits;
  }
}

void Core::am_reply(std::uint32_t token, std::uint64_t value) {
  engine_.schedule(0, [this, token, value] { am_decide(token, value); });
}

void Core::am_decide(std::uint32_t token,
                     std::optional<std::uint64_t> result) {
  if (token != am_token_ || am_decided_) return;
  am_decided_ = true;
  am_result_ = result;
  engine_.wake(am_waiter_);
}

}  // namespace amo::cpu
