// The five atomic-operation mechanisms the paper compares, behind one
// read-modify-write interface so every synchronization algorithm can be
// instantiated over each of them.
//
//   kLlSc   load-linked / store-conditional retry loop (baseline)
//   kAtomic processor-side atomic instruction (ownership migration)
//   kActMsg active message executed by the home node's processor
//   kMao    memory-side atomic outside the coherent domain (O2K / T3E)
//   kAmo    Active Memory Operation (this paper)
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <string_view>
#include <variant>

#include "amu/amo_ops.hpp"
#include "core/thread_ctx.hpp"
#include "sim/task.hpp"

namespace amo::sync {

enum class Mechanism : std::uint8_t { kLlSc, kAtomic, kActMsg, kMao, kAmo };

inline constexpr Mechanism kAllMechanisms[] = {
    Mechanism::kLlSc, Mechanism::kAtomic, Mechanism::kActMsg,
    Mechanism::kMao, Mechanism::kAmo};

[[nodiscard]] const char* to_string(Mechanism m);

/// Inverse of to_string ("LL/SC", "Atomic", "ActMsg", "MAO", "AMO");
/// nullopt for anything else. Scenario files name mechanisms with the
/// same tokens the reports print.
[[nodiscard]] std::optional<Mechanism> mechanism_from_string(
    std::string_view name);

/// One atomic read-modify-write through the chosen mechanism, with
/// amu::AmoOpcode semantics (kCas writes `operand2` iff the word equals
/// `operand`); returns the old value. `test` is only meaningful for kAmo,
/// where it selects the delayed-put policy (the result is pushed to
/// cached copies when it equals `test`).
sim::Task<std::uint64_t> rmw(Mechanism m, core::ThreadCtx& t,
                             amu::AmoOpcode op, sim::Addr addr,
                             std::uint64_t operand, std::uint64_t operand2 = 0,
                             std::optional<std::uint64_t> test = {});

/// A word write through the chosen mechanism: amo.swap under kAmo, whose
/// eager put patches every cached copy in place, and a coherent store
/// otherwise. An awaiter rather than a coroutine, so a write costs no
/// frame of its own; await it at once. The AMO is issued when awaited,
/// the store when constructed.
class [[nodiscard]] WordWrite {
 public:
  WordWrite(Mechanism m, core::ThreadCtx& t, sim::Addr addr,
            std::uint64_t value);

  bool await_ready() const noexcept {
    const auto* store = std::get_if<sim::Task<void>>(&op_);
    return store != nullptr && store->done();
  }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume();

 private:
  std::variant<cpu::Core::AmoAwaiter, sim::Task<void>> op_;
};

}  // namespace amo::sync
