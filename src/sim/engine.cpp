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

Engine::TimerHandle Engine::schedule_cancelable(Cycle delay,
                                                EventQueue::Callback&& fn) {
  std::uint32_t idx;
  if (timer_free_ != kNoCell) {
    idx = timer_free_;
    timer_free_ = timer_cells_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(timer_cells_.size());
    timer_cells_.emplace_back();
  }
  TimerCell& cell = timer_cells_[idx];
  cell.fn = std::move(fn);
  const std::uint64_t gen = cell.gen;
  schedule(delay, [this, idx, gen] {
    TimerCell& c = timer_cells_[idx];
    if (c.gen != gen) return;  // canceled: the slot fires as a tombstone
    EventQueue::Callback f = std::move(c.fn);
    release_timer(idx);
    f();
  });
  return TimerHandle(this, idx, gen);
}

void Engine::release_timer(std::uint32_t idx) {
  TimerCell& cell = timer_cells_[idx];
  ++cell.gen;
  cell.fn = EventQueue::Callback{};
  cell.next_free = timer_free_;
  timer_free_ = idx;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  dispatch_one();
  ++executed_;
  return true;
}

}  // namespace amo::sim
