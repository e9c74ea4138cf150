#include "sync/mechanism.hpp"

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

sim::Task<std::uint64_t> fetch_add(Mechanism m, core::ThreadCtx& t,
                                   sim::Addr addr, std::uint64_t delta,
                                   std::optional<std::uint64_t> test) {
  switch (m) {
    case Mechanism::kLlSc:
      for (;;) {
        const std::uint64_t v = co_await t.load_linked(addr);
        if (co_await t.store_conditional(addr, v + delta)) co_return v;
      }
    case Mechanism::kAtomic:
      co_return co_await t.atomic_fetch_add(addr, delta);
    case Mechanism::kActMsg:
      co_return co_await t.am_fetch_add(addr, delta);
    case Mechanism::kMao:
      co_return co_await t.mao_fetch_add(addr, delta);
    case Mechanism::kAmo:
      co_return co_await t.amo(amu::AmoOpcode::kFetchAdd, addr, delta, test);
  }
  co_return 0;  // unreachable
}

sim::Task<std::uint64_t> swap(Mechanism m, core::ThreadCtx& t, sim::Addr addr,
                              std::uint64_t value) {
  switch (m) {
    case Mechanism::kLlSc:
      for (;;) {
        const std::uint64_t v = co_await t.load_linked(addr);
        if (co_await t.store_conditional(addr, value)) co_return v;
      }
    case Mechanism::kAtomic:
      co_return co_await t.atomic_swap(addr, value);
    case Mechanism::kActMsg:
      co_return co_await t.am_rmw(amu::AmoOpcode::kSwap, addr, value);
    case Mechanism::kMao:
      co_return co_await t.core().mao(amu::AmoOpcode::kSwap, addr, value);
    case Mechanism::kAmo:
      co_return co_await t.amo(amu::AmoOpcode::kSwap, addr, value);
  }
  co_return 0;  // unreachable
}

sim::Task<std::uint64_t> cas(Mechanism m, core::ThreadCtx& t, sim::Addr addr,
                             std::uint64_t expected, std::uint64_t desired) {
  switch (m) {
    case Mechanism::kLlSc:
      for (;;) {
        const std::uint64_t v = co_await t.load_linked(addr);
        if (v != expected) co_return v;  // CAS failure: no write
        if (co_await t.store_conditional(addr, desired)) co_return v;
      }
    case Mechanism::kAtomic:
      co_return co_await t.atomic_cas(addr, expected, desired);
    case Mechanism::kActMsg:
      co_return co_await t.am_rmw(amu::AmoOpcode::kCas, addr, expected,
                                  desired);
    case Mechanism::kMao:
      co_return co_await t.core().mao(amu::AmoOpcode::kCas, addr, expected,
                                      desired);
    case Mechanism::kAmo:
      co_return co_await t.amo(amu::AmoOpcode::kCas, addr, expected, {},
                               desired);
  }
  co_return 0;  // unreachable
}

}  // namespace amo::sync
