#include "sim/engine.hpp"

namespace amo::sim {

void Engine::dispatch_one() {
  queue_.dispatch([this](Cycle when, EventQueue::Callback& fn) {
    now_ = when;
    fn();
  });
}

std::uint64_t Engine::run(Cycle deadline) {
  std::uint64_t processed = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    dispatch_one();
    ++processed;
    ++executed_;
  }
  return processed;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  dispatch_one();
  ++executed_;
  return true;
}

}  // namespace amo::sim
