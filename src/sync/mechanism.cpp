#include "sync/mechanism.hpp"

#include <utility>

namespace amo::sync {

const char* to_string(Mechanism m) {
  switch (m) {
    case Mechanism::kLlSc: return "LL/SC";
    case Mechanism::kAtomic: return "Atomic";
    case Mechanism::kActMsg: return "ActMsg";
    case Mechanism::kMao: return "MAO";
    case Mechanism::kAmo: return "AMO";
  }
  return "?";
}

std::optional<Mechanism> mechanism_from_string(std::string_view name) {
  for (Mechanism m : kAllMechanisms) {
    if (name == to_string(m)) return m;
  }
  return std::nullopt;
}

namespace {

/// The memory-side op through kMao or kAmo. A MAO takes no test value.
/// Routing both mechanisms through one call keeps one awaiter in the
/// calling frame, where every awaiter has a slot of its own.
cpu::Core::AmoAwaiter memory_side(Mechanism m, core::ThreadCtx& t,
                                  amu::AmoOpcode op, sim::Addr addr,
                                  std::uint64_t operand, std::uint64_t operand2,
                                  std::optional<std::uint64_t> test) {
  if (m == Mechanism::kMao) return t.core().mao(op, addr, operand, operand2);
  return t.amo(op, addr, operand, test, operand2);
}

std::variant<cpu::Core::AmoAwaiter, sim::Task<void>> word_write_op(
    Mechanism m, core::ThreadCtx& t, sim::Addr addr, std::uint64_t value) {
  if (m == Mechanism::kAmo) return t.amo(amu::AmoOpcode::kSwap, addr, value);
  return t.store(addr, value);
}

}  // namespace

sim::Task<std::uint64_t> rmw(Mechanism m, core::ThreadCtx& t,
                             amu::AmoOpcode op, sim::Addr addr,
                             std::uint64_t operand, std::uint64_t operand2,
                             std::optional<std::uint64_t> test) {
  switch (m) {
    case Mechanism::kLlSc:
      for (;;) {
        const std::uint64_t v = co_await t.load_linked(addr);
        if (op == amu::AmoOpcode::kCas && v != operand) {
          co_return v;  // CAS failure: no write
        }
        if (co_await t.store_conditional(
                addr, amu::apply(op, v, operand, operand2))) {
          co_return v;
        }
      }
    case Mechanism::kAtomic:
      co_return co_await t.core().cache().atomic_rmw(op, addr, operand,
                                                     operand2);
    case Mechanism::kActMsg:
      co_return co_await t.am_rmw(op, addr, operand, operand2);
    case Mechanism::kMao:
    case Mechanism::kAmo:
      co_return co_await memory_side(m, t, op, addr, operand, operand2, test);
  }
  co_return 0;  // unreachable
}

WordWrite::WordWrite(Mechanism m, core::ThreadCtx& t, sim::Addr addr,
                     std::uint64_t value)
    : op_(word_write_op(m, t, addr, value)) {}

// A Task's awaiter holds nothing but the task's handle, so making a new
// one for each step awaits the store just as keeping one would.
void WordWrite::await_suspend(std::coroutine_handle<> h) {
  if (auto* amo = std::get_if<cpu::Core::AmoAwaiter>(&op_)) {
    amo->await_suspend(h);
    return;
  }
  auto& store = std::get<sim::Task<void>>(op_);
  std::move(store).operator co_await().await_suspend(h);
}

void WordWrite::await_resume() {
  if (auto* store = std::get_if<sim::Task<void>>(&op_)) {
    std::move(*store).operator co_await().await_resume();
  }
}

}  // namespace amo::sync
