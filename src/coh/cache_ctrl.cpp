#include "coh/cache_ctrl.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace amo::coh {

CacheCtrl::CacheCtrl(sim::Engine& engine, Wiring& wiring, Agents& agents,
                     sim::CpuId cpu, const CacheCtrlConfig& config)
    : engine_(engine),
      wiring_(wiring),
      agents_(agents),
      cpu_(cpu),
      node_(wiring.node_of(cpu)),
      config_(config),
      sizes_{config.l2.line_bytes},
      l2_(config.l2),
      l1_(config.l1) {
  assert(config.l1.line_bytes == config.l2.line_bytes &&
         "L1 filter is kept inclusive at L2 line granularity");
}

// ----------------------------------------------------------- thread API

// Every co_await of a load gives its caller's frame one of these.
static_assert(sizeof(CacheCtrl::LoadAwaiter) <= 32);

void CacheCtrl::LoadAwaiter::await_suspend(std::coroutine_handle<> h) {
  h_ = h;
  ++ctrl_->stats_.loads;
  ctrl_->engine_.schedule(ctrl_->config_.l1_cycles,
                          [a = this] { a->ctrl_->probe_l1(*a); });
}

void CacheCtrl::probe_l1(LoadAwaiter& load) {
  if (!l1_.probe(load.addr_)) {
    load_miss(load);
    return;
  }
  mem::Cache::Line* line = l2_.find(load.addr_, /*touch=*/false);
  assert(line != nullptr && "L1 filter must be inclusive in L2");
  load.value_ = l2_.read_word(*line, load.addr_);
  load.h_.resume();
}

sim::Detached CacheCtrl::load_miss(LoadAwaiter& load) {
  const sim::Addr addr = load.addr_;
  co_await engine_.delay(config_.l2_cycles);
  for (;;) {
    mem::Cache::Line* line = l2_.find(addr);
    if (line != nullptr) {
      l1_.fill(addr);
      load.value_ = l2_.read_word(*line, addr);
      break;
    }
    co_await request_line(addr, /*want_m=*/false);
  }
  // The caller may run to its end, freeing `load`, inside this call.
  load.h_.resume();
}

sim::Task<void> CacheCtrl::store(sim::Addr addr, std::uint64_t value) {
  ++stats_.stores;
  co_await engine_.delay(config_.l2_cycles);
  for (;;) {
    mem::Cache::Line* line = l2_.find(addr);
    if (line != nullptr && (line->state == mem::LineState::kModified ||
                            line->state == mem::LineState::kExclusive)) {
      line->state = mem::LineState::kModified;
      l2_.write_word(*line, addr, value);
      l1_.fill(addr);
      break_link_if(l2_.line_base(addr));  // a local write breaks LL
      notify_line(l2_.line_base(addr));    // wake same-core spinners
      co_return;
    }
    co_await request_line(addr, /*want_m=*/true);
  }
}

sim::Task<std::uint64_t> CacheCtrl::load_linked(sim::Addr addr) {
  ++stats_.ll;
  const std::uint64_t value = co_await load(addr);
  link_valid_ = true;
  link_block_ = l2_.line_base(addr);
  co_return value;
}

sim::Task<bool> CacheCtrl::store_conditional(sim::Addr addr,
                                             std::uint64_t value) {
  const sim::Addr block = l2_.line_base(addr);
  co_await engine_.delay(config_.l2_cycles);
  for (;;) {
    if (!link_valid_ || link_block_ != block) {
      ++stats_.sc_fail;
      co_return false;
    }
    mem::Cache::Line* line = l2_.find(addr);
    if (line != nullptr && (line->state == mem::LineState::kModified ||
                            line->state == mem::LineState::kExclusive)) {
      // Exclusive and the link survived: the SC commits atomically.
      line->state = mem::LineState::kModified;
      l2_.write_word(*line, addr, value);
      l1_.fill(addr);
      link_valid_ = false;
      ++stats_.sc_success;
      notify_line(block);
      co_return true;
    }
    co_await request_line(addr, /*want_m=*/true);
  }
}

sim::Task<std::uint64_t> CacheCtrl::atomic_rmw(amu::AmoOpcode op,
                                               sim::Addr addr,
                                               std::uint64_t operand,
                                               std::uint64_t operand2) {
  ++stats_.atomics;
  co_await engine_.delay(config_.l2_cycles);
  for (;;) {
    mem::Cache::Line* line = l2_.find(addr);
    if (line != nullptr && (line->state == mem::LineState::kModified ||
                            line->state == mem::LineState::kExclusive)) {
      co_await engine_.delay(config_.atomic_cycles);
      // Re-check: the RMW window could lose the line to a recall.
      line = l2_.find(addr, /*touch=*/false);
      if (line == nullptr || (line->state != mem::LineState::kModified &&
                              line->state != mem::LineState::kExclusive)) {
        continue;
      }
      const std::uint64_t old = l2_.read_word(*line, addr);
      line->state = mem::LineState::kModified;
      l2_.write_word(*line, addr, amu::apply(op, old, operand, operand2));
      l1_.fill(addr);
      break_link_if(l2_.line_base(addr));
      notify_line(l2_.line_base(addr));
      co_return old;
    }
    co_await request_line(addr, /*want_m=*/true);
  }
}

// ----------------------------------------------------------- miss path

void CacheCtrl::LineAwaiter::await_suspend(std::coroutine_handle<> h) {
  h_ = h;
  CacheCtrl& c = *ctrl_;
  const sim::Addr block = c.l2_.line_base(addr_);
  Mshr* m = c.find_mshr(block);
  if (m == nullptr) {
    m = &c.mshr_.emplace_back();
    m->block = block;
    m->born = c.engine_.now();
    mem::Cache::Line* line = c.l2_.find(addr_, /*touch=*/false);
    Directory& dir = c.home_dir(addr_);
    if (line != nullptr && want_m_) {
      // S -> M: upgrade; pin so the set can't evict the upgrading line.
      assert(line->state == mem::LineState::kShared);
      line->pinned = true;
      ++c.stats_.miss_upgrade;
      c.wiring_.post(c.node_, dir.node(), net::MsgClass::kRequest,
                     c.sizes_.ctrl(), [&dir, cpu = c.cpu_, block] {
                       dir.on_upgrade(cpu, block);
                     });
    } else if (want_m_) {
      ++c.stats_.miss_getx;
      c.wiring_.post(c.node_, dir.node(), net::MsgClass::kRequest,
                     c.sizes_.ctrl(), [&dir, cpu = c.cpu_, block] {
                       dir.on_getx(cpu, block);
                     });
    } else {
      ++c.stats_.miss_gets;
      c.wiring_.post(c.node_, dir.node(), net::MsgClass::kRequest,
                     c.sizes_.ctrl(), [&dir, cpu = c.cpu_, block] {
                       dir.on_gets(cpu, block);
                     });
    }
  }
  // Join the outstanding request (ours or a sibling context's). If the
  // sibling's request brings the line in the wrong state, the caller's
  // retry loop issues a follow-up.
  if (m->last != nullptr) {
    m->last->next_ = this;
  } else {
    m->first = this;
  }
  m->last = this;
}

void CacheCtrl::handle_victim(const mem::Cache::Victim& victim) {
  l1_.invalidate(victim.block);
  break_link_if(victim.block);
  Directory& dir = home_dir(victim.block);
  if (victim.state == mem::LineState::kModified) {
    ++stats_.writebacks;
    wiring_.post(node_, dir.node(), net::MsgClass::kWriteback, sizes_.data(),
                 [&dir, cpu = cpu_, block = victim.block,
                  data = victim.data] { dir.on_putm(cpu, block, data); });
  } else if (victim.state == mem::LineState::kExclusive) {
    wiring_.post(node_, dir.node(), net::MsgClass::kWriteback, sizes_.ctrl(),
                 [&dir, cpu = cpu_, block = victim.block] {
                   dir.on_pute(cpu, block);
                 });
  }
  // Shared victims are dropped silently (Origin-style); the directory's
  // sharer list goes stale and stray invalidations are simply acked.

  // A parked spinner that loses its line would never hear of the next
  // write (it arrives as a miss the spinner never sends): wake it now so
  // it re-polls and re-fetches.
  notify_line(victim.block);
}

CacheCtrl::Mshr* CacheCtrl::find_mshr(sim::Addr block) {
  for (Mshr& m : mshr_) {
    if (m.block == block) return &m;
  }
  return nullptr;
}

CacheCtrl::SpinPark* CacheCtrl::find_park(sim::Addr block) {
  for (SpinPark& s : parked_) {
    if (s.block == block) return &s;
  }
  return nullptr;
}

void CacheCtrl::unpark(sim::Addr addr) {
  if (SpinPark* s = find_park(l2_.line_base(addr))) {
    *s = parked_.back();
    parked_.pop_back();
  }
}

void CacheCtrl::notify_line(sim::Addr block) {
  SpinPark* s = find_park(block);
  if (s == nullptr || !s->h) return;
  engine_.wake(std::exchange(s->h, nullptr));
}

std::vector<sim::Addr> CacheCtrl::parked_lines() const {
  std::vector<sim::Addr> lines;
  for (const SpinPark& s : parked_) {
    if (s.h) lines.push_back(s.block);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

void CacheCtrl::complete_mshr(sim::Addr block) {
  Mshr* m = find_mshr(block);
  if (m == nullptr) return;
  if (sim::LogHistogram* h = stats_.mshr_residency_hist) {
    h->record(engine_.now() - m->born);
  }
  // Free the record, then wake the waiters in FIFO order. Each resumes
  // from its own event, so none runs (or frees its awaiter) in this loop.
  LineAwaiter* w = m->first;
  *m = mshr_.back();
  mshr_.pop_back();
  for (; w != nullptr; w = w->next_) engine_.wake(w->h_);
}

// ----------------------------------------------------------- CacheIface

void CacheCtrl::on_data(sim::Addr block, bool exclusive,
                        std::span<const std::uint64_t> data) {
  mem::Cache::Line* line = l2_.find(block, /*touch=*/false);
  if (line != nullptr) {
    // An upgrade that degenerated to GetX, or an S line refreshed: adopt
    // the authoritative copy and the granted state.
    line->state =
        exclusive ? mem::LineState::kExclusive : mem::LineState::kShared;
    l2_.fill_words(*line, data);
    line->pinned = false;
  } else {
    auto victim = l2_.insert(
        block,
        exclusive ? mem::LineState::kExclusive : mem::LineState::kShared,
        data);
    if (victim.has_value()) handle_victim(*victim);
  }
  l1_.fill(block);
  // A data response means our old copy (if any) was not authoritative —
  // e.g. an upgrade degraded to GetX over an AMU-modified block. Any LL
  // link on this block guards a potentially stale value: break it.
  break_link_if(block);
  complete_mshr(block);
  notify_line(block);
}

void CacheCtrl::on_upgrade_ack(sim::Addr block) {
  mem::Cache::Line* line = l2_.find(block, /*touch=*/false);
  assert(line != nullptr && "upgraded line must be pinned resident");
  assert(line->state == mem::LineState::kShared);
  line->state = mem::LineState::kExclusive;
  line->pinned = false;
  complete_mshr(block);
}

void CacheCtrl::on_inval(sim::Addr block) {
  ++stats_.invals;
  auto victim = l2_.invalidate(block);
  if (victim.has_value()) {
    assert(victim->state == mem::LineState::kShared &&
           "home only invalidates sharers");
  }
  l1_.invalidate(block);
  break_link_if(block);
  notify_line(block);
  Directory& dir = home_dir(block);
  // Probe service time before the ack leaves the node.
  engine_.schedule(config_.probe_resp_cycles, [this, &dir, block] {
    wiring_.post(node_, dir.node(), net::MsgClass::kAck, sizes_.ctrl(),
                 [&dir, cpu = cpu_, block] { dir.on_inv_ack(cpu, block); });
  });
}

void CacheCtrl::on_recall(sim::Addr block, bool exclusive,
                          sim::CpuId fwd_to) {
  ++stats_.recalls;
  Directory& dir = home_dir(block);
  mem::Cache::Line* line = l2_.find(block, /*touch=*/false);
  if (line == nullptr || line->state == mem::LineState::kShared) {
    // Gone (a putback crossed this recall) or already downgraded; the
    // S case can't normally occur, but answer conservatively. The home
    // falls back to serving the data itself, so no forwarding happens.
    const bool had = false;
    engine_.schedule(config_.probe_resp_cycles, [this, &dir, block, had] {
      wiring_.post(node_, dir.node(), net::MsgClass::kAck, sizes_.ctrl(),
                   [&dir, cpu = cpu_, block, had] {
                     dir.on_recall_resp(cpu, block, had, false, {});
                   });
    });
    return;
  }
  const bool dirty = line->state == mem::LineState::kModified;
  mem::LineBuf data(l2_.words(*line));
  if (exclusive) {
    l2_.invalidate(block);
    l1_.invalidate(block);
    break_link_if(block);
    notify_line(block);
  } else {
    line->state = mem::LineState::kShared;
  }

  if (fwd_to != sim::kInvalidCpu) {
    // Three-hop: ship the data straight to the requestor. After install,
    // the requestor acks the home so the blocking directory can move on
    // (Origin's "revision" handshake).
    CacheIface* target = agents_.caches[fwd_to];
    const sim::NodeId target_node = wiring_.node_of(fwd_to);
    engine_.schedule(config_.probe_resp_cycles, [this, target, target_node,
                                                 &dir, block, exclusive,
                                                 fwd_to, data] {
      wiring_.post(
          node_, target_node, net::MsgClass::kResponse, sizes_.data(),
          [this, target, target_node, &dir, block, exclusive, fwd_to,
           data] {
            target->on_data(block, exclusive, data);
            wiring_.post(target_node, dir.node(), net::MsgClass::kAck,
                         sizes_.ctrl(), [&dir, fwd_to, block] {
                           dir.on_fill_ack(fwd_to, block);
                         });
          });
    });
    // Revision to home: dirty data always goes back to memory, so the
    // requestor's clean-exclusive install stays consistent with it (a
    // later silent PutE must not lose modified data).
    const bool send_data = dirty;
    engine_.schedule(config_.probe_resp_cycles,
                     [this, &dir, block, send_data, dirty,
                      data = std::move(data)] {
      wiring_.post(node_, dir.node(), net::MsgClass::kWriteback,
                   send_data ? sizes_.data() : sizes_.ctrl(),
                   [&dir, cpu = cpu_, block, send_data, dirty, data] {
                     dir.on_recall_resp(cpu, block, /*had_line=*/true,
                                        /*dirty=*/send_data && dirty, data);
                   });
    });
    return;
  }

  engine_.schedule(config_.probe_resp_cycles,
                   [this, &dir, block, dirty, data = std::move(data)] {
    wiring_.post(node_, dir.node(), net::MsgClass::kWriteback,
                 dirty ? sizes_.data() : sizes_.ctrl(),
                 [&dir, cpu = cpu_, block, dirty, data] {
                   dir.on_recall_resp(cpu, block, /*had_line=*/true, dirty,
                                      data);
                 });
  });
}

void CacheCtrl::on_word_update(sim::Addr addr, std::uint64_t value) {
  mem::Cache::Line* line = l2_.find(addr, /*touch=*/false);
  if (line == nullptr) {
    // Stale sharer (the S copy was dropped silently): nothing to update,
    // but a parked spinner must still wake and re-fetch the new value.
    notify_line(l2_.line_base(addr));
    return;
  }
  ++stats_.word_updates;
  ++l2_.stats().word_updates;
  l2_.write_word(*line, addr, value);
  break_link_if(l2_.line_base(addr));  // the word changed under the LL
  notify_line(l2_.line_base(addr));
}

void CacheCtrl::register_stats(sim::StatsRegistry& reg,
                               const std::string& prefix) {
  reg.add_counter(prefix + ".loads", &stats_.loads);
  reg.add_counter(prefix + ".stores", &stats_.stores);
  reg.add_counter(prefix + ".ll", &stats_.ll);
  reg.add_counter(prefix + ".sc_success", &stats_.sc_success);
  reg.add_counter(prefix + ".sc_fail", &stats_.sc_fail);
  reg.add_counter(prefix + ".atomics", &stats_.atomics);
  reg.add_counter(prefix + ".miss_gets", &stats_.miss_gets);
  reg.add_counter(prefix + ".miss_getx", &stats_.miss_getx);
  reg.add_counter(prefix + ".miss_upgrade", &stats_.miss_upgrade);
  reg.add_counter(prefix + ".recalls", &stats_.recalls);
  reg.add_counter(prefix + ".invals", &stats_.invals);
  reg.add_counter(prefix + ".word_updates", &stats_.word_updates);
  reg.add_counter(prefix + ".writebacks", &stats_.writebacks);
  l2_.register_stats(reg, prefix + ".l2");
  stats_.mshr_residency_hist = reg.hist(prefix + ".mshr_residency_hist");
}

}  // namespace amo::coh
