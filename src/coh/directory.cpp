#include "coh/directory.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace amo::coh {

Directory::Directory(sim::Engine& engine, Wiring& wiring, Agents& agents,
                     sim::NodeId node, mem::Backing& backing, mem::Dram& dram,
                     const DirConfig& config)
    : engine_(engine),
      wiring_(wiring),
      agents_(agents),
      node_(node),
      backing_(backing),
      dram_(dram),
      config_(config),
      sizes_{backing.line_bytes()} {
  assert(backing.words_per_line() <= mem::LineBuf::kMaxWords);
  if (config_.histograms) {
    stats_.occupancy_wait_hist = std::make_unique<sim::LogHistogram>();
  }
}

// ------------------------------------------------------------ entry table

Directory::Entry& Directory::entry(sim::Addr block) {
  assert(block == backing_.line_base(block));
  return entries_.get_or_create(block);
}

void Directory::maybe_reclaim(sim::Addr block) {
  Entry* e = entries_.find(block);
  if (e == nullptr) return;
  const bool vacant = e->st == State::kUncached && !e->busy &&
                      !e->amu_sharer && !e->coarse &&
                      wait_pool_.empty(e->waiting) && e->sharers.none();
  if (!vacant) return;
  // Reset for reuse; the table recycles the entry through its free list.
  e->owner = sim::kInvalidCpu;
  e->txn = Txn{};
  entries_.erase(block);
}

// --------------------------------------------------------------- pools

void Directory::wait_push(Entry& e, sim::InlineFn fn) {
  wait_pool_.push(e.waiting, std::move(fn));
}

sim::InlineFn Directory::wait_pop(Entry& e) {
  return wait_pool_.pop(e.waiting);
}

void Directory::deliver_put(const SharerSnapshot& targets, sim::Addr addr,
                            std::uint64_t value, sim::NodeId n) {
  // Runs at node n when the wave arrives. It touches only n's own caches
  // plus the immutable sharer snapshot carried in the closure, so the
  // recipients are the ones named at the home pipeline slot, not the
  // sharers at arrival time.
  const std::uint32_t cpn = wiring_.cpus_per_node();
  const auto total = static_cast<sim::CpuId>(agents_.caches.size());
  const sim::CpuId begin = n * cpn;
  const sim::CpuId end = std::min<sim::CpuId>(begin + cpn, total);
  for (sim::CpuId c = begin; c < end; ++c) {
    if (targets.test(c)) agents_.caches[c]->on_word_update(addr, value);
  }
}

void Directory::occupy(sim::InlineFn fn, sim::Cycle cycles) {
  if (cycles == 0) cycles = config_.occupancy_cycles;
  const sim::Cycle start = std::max(engine_.now(), busy_until_);
  if (stats_.occupancy_wait_hist) {
    // Queueing delay behind the serial pipeline: the home hot-spot shows
    // up here first.
    stats_.occupancy_wait_hist->record(start - engine_.now());
  }
  busy_until_ = start + cycles;
  engine_.schedule_at(busy_until_, std::move(fn));
}

// ---------------------------------------------------------------- entries

void Directory::on_gets(sim::CpuId r, sim::Addr block) {
  ++stats_.gets;
  occupy([this, r, block] { handle_gets(r, block); });
}

void Directory::on_getx(sim::CpuId r, sim::Addr block) {
  ++stats_.getx;
  occupy([this, r, block] { handle_getx(r, block); });
}

void Directory::on_upgrade(sim::CpuId r, sim::Addr block) {
  ++stats_.upgrades;
  occupy([this, r, block] { handle_upgrade(r, block); });
}

void Directory::on_putm(sim::CpuId o, sim::Addr block,
                        std::span<const std::uint64_t> data) {
  ++stats_.putbacks;
  occupy([this, o, block, data = mem::LineBuf(data)] {
    Entry& e = entry(block);
    if (e.busy) {
      // A putback arriving at a busy block must be the crossing case: the
      // active transaction is recalling exactly this (former) owner.
      assert(e.txn.waiting_recall && e.txn.recall_from == o &&
             "unexpected putback during a foreign transaction");
      backing_.write_line(block, data);
      e.txn.owner_retained = false;
      return;  // the recall's no-data response completes the transaction
    }
    if (e.st == State::kExclusive && e.owner == o) {
      backing_.write_line(block, data);
      e.st = State::kUncached;
      e.owner = sim::kInvalidCpu;
    }
    // Otherwise: stale putback (ownership already moved on); drop.
    maybe_reclaim(block);
  });
}

void Directory::on_pute(sim::CpuId o, sim::Addr block) {
  ++stats_.putbacks;
  occupy([this, o, block] {
    Entry& e = entry(block);
    if (e.busy) {
      assert(e.txn.waiting_recall && e.txn.recall_from == o &&
             "unexpected putback during a foreign transaction");
      e.txn.owner_retained = false;
      return;
    }
    if (e.st == State::kExclusive && e.owner == o) {
      e.st = State::kUncached;
      e.owner = sim::kInvalidCpu;
    }
    maybe_reclaim(block);
  });
}

void Directory::on_recall_resp(sim::CpuId o, sim::Addr block, bool had_line,
                               bool dirty, std::span<const std::uint64_t> data) {
  occupy([this, o, block, had_line, dirty, data = mem::LineBuf(data)] {
    Entry& e = entry(block);
    assert(e.busy && e.txn.waiting_recall && e.txn.recall_from == o);
    if (dirty) {
      assert(had_line);
      backing_.write_line(block, data);
    }
    if (had_line) {
      e.txn.owner_retained = true;
      // In three-hop mode an owner that still held the line forwarded the
      // data directly; the home must also collect the requestor's
      // fill-ack before releasing the block.
      if (config_.three_hop && e.txn.kind != Txn::Kind::kWordGet) {
        e.txn.forwarded = true;
      }
    }
    e.txn.recall_done = true;
    maybe_finish_txn(block);
  });
}

void Directory::on_fill_ack(sim::CpuId r, sim::Addr block) {
  (void)r;
  occupy([this, block] {
    Entry& e = entry(block);
    assert(e.busy);
    e.txn.fill_acked = true;
    maybe_finish_txn(block);
  });
}

void Directory::on_inv_ack(sim::CpuId s, sim::Addr block) {
  (void)s;
  occupy([this, block] {
    Entry& e = entry(block);
    assert(e.busy && e.txn.pending_acks > 0);
    --e.txn.pending_acks;
    maybe_finish_txn(block);
  });
}

void Directory::on_uncached_read(sim::CpuId r, sim::Addr addr,
                                 sim::Promise<std::uint64_t> reply) {
  ++stats_.uncached_reads;
  occupy([this, r, addr, reply] { handle_uncached_read(r, addr, reply); },
         config_.uncached_occupancy_cycles);
}

void Directory::on_uncached_write(sim::CpuId r, sim::Addr addr,
                                  std::uint64_t value,
                                  sim::Promise<std::uint64_t> ack) {
  ++stats_.uncached_writes;
  occupy([this, r, addr, value, ack] {
    handle_uncached_write(r, addr, value, ack);
  }, config_.uncached_occupancy_cycles);
}

void Directory::word_get(sim::Addr addr, sim::InlineFnT<std::uint64_t> done) {
  occupy([this, addr, done = std::move(done)]() mutable {
    handle_word_get(addr, std::move(done));
  });
}

void Directory::word_put(sim::Addr addr, std::uint64_t value) {
  occupy([this, addr, value] {
    // Ownership may have moved while this put sat in the pipeline: a
    // processor GetX flushed (merged + dropped) the AMU's word. The flush
    // already persisted the value, and fanning the update out now would
    // clobber writes the new owner has since made. Abort.
    AmuIface* amu = agents_.amus[node_];
    if (amu == nullptr || !amu->holds_word(addr)) return;
    ++stats_.word_puts;
    backing_.write_word(addr, value);
    const sim::Addr block = backing_.line_base(addr);
    Entry& e = entry(block);

    // Snapshot the recipients at the directory pipeline slot: every
    // sharer, or the exclusive owner (its M/E copy is patched in place).
    // The snapshot travels *by value* inside the delivery closure, so a
    // sharer that joins or leaves while the wave is in flight does not
    // change who receives it. A coarse entry
    // (pointer overflow) must reach everyone. This is the interesting
    // interaction: AMO's cheap word updates depend on the directory
    // knowing its sharers (bench/ablation_dir_pointers).
    const auto total = static_cast<std::uint32_t>(agents_.caches.size());
    SharerSnapshot targets =
        e.st == State::kExclusive ? SharerSnapshot::single(e.owner)
        : e.coarse                ? SharerSnapshot::all(total)
                                  : SharerSnapshot(e.sharers.words());

    // Target nodes, ascending (cpu ids ascend within a node, so walking
    // set bits in order yields nodes in order — the deterministic fan-out
    // order the old sorted-vector path produced).
    put_nodes_.clear();
    SharerSet::for_each_in(targets.words(), [this](sim::CpuId c) {
      const sim::NodeId n = wiring_.node_of(c);
      if (put_nodes_.empty() || put_nodes_.back() != n) put_nodes_.push_back(n);
    });
    if (put_nodes_.empty()) return;
    stats_.word_updates_sent += put_nodes_.size();

    const std::uint32_t bytes =
        config_.put_block_granularity ? sizes_.data() : sizes_.word();
    wiring_.post_update(node_, put_nodes_, bytes,
                        [this, targets = std::move(targets), addr,
                         value](sim::NodeId n) {
                          deliver_put(targets, addr, value, n);
                        });
  });
}

void Directory::amu_release(sim::Addr block) {
  occupy([this, block] {
    entry(block).amu_sharer = false;
    maybe_reclaim(block);
  });
}

// --------------------------------------------------------------- handlers

void Directory::handle_gets(sim::CpuId r, sim::Addr block) {
  Entry& e = entry(block);
  if (e.busy) {
    ++stats_.deferred;
    wait_push(e, [this, r, block] { handle_gets(r, block); });
    return;
  }
  switch (e.st) {
    case State::kUncached:
      e.busy = true;  // released when the data is injected (reply_data)
      if (!e.amu_sharer && config_.grant_exclusive_clean) {
        // MESI clean-exclusive grant.
        e.st = State::kExclusive;
        e.owner = r;
        reply_data(r, block, /*exclusive=*/true);
      } else if (!e.amu_sharer) {
        // MSI mode: first reader only gets S.
        e.st = State::kShared;
        add_sharer(e, r);
        reply_data(r, block, /*exclusive=*/false);
      } else {
        // The AMU must stay able to push word updates: grant S only.
        e.st = State::kShared;
        add_sharer(e, r);
        reply_data(r, block, /*exclusive=*/false);
      }
      return;
    case State::kShared:
      e.busy = true;
      add_sharer(e, r);
      reply_data(r, block, /*exclusive=*/false);
      return;
    case State::kExclusive: {
      assert(e.owner != r && "owner re-requesting implies broken FIFO");
      e.busy = true;
      e.txn = Txn{};
      e.txn.kind = Txn::Kind::kGetS;
      e.txn.requestor = r;
      e.txn.waiting_recall = true;
      e.txn.recall_from = e.owner;
      send_recall(e.owner, block, /*exclusive=*/false,
                  config_.three_hop ? r : sim::kInvalidCpu);
      return;
    }
  }
}

void Directory::handle_getx(sim::CpuId r, sim::Addr block) {
  Entry& e = entry(block);
  if (e.busy) {
    ++stats_.deferred;
    wait_push(e, [this, r, block] { handle_getx(r, block); });
    return;
  }
  switch (e.st) {
    case State::kUncached:
      flush_amu(block);
      e.busy = true;
      e.st = State::kExclusive;
      e.owner = r;
      e.sharers.clear();
      e.coarse = false;
      reply_data(r, block, /*exclusive=*/true);
      return;
    case State::kShared: {
      flush_amu(block);
      if (!e.coarse && !e.sharers.any_except(r)) {
        e.busy = true;
        e.st = State::kExclusive;
        e.owner = r;
        e.sharers.clear();
        reply_data(r, block, /*exclusive=*/true);
        return;
      }
      e.busy = true;
      e.txn = Txn{};
      e.txn.kind = Txn::Kind::kGetX;
      e.txn.requestor = r;
      send_invals(e, block, r);
      return;
    }
    case State::kExclusive:
      assert(e.owner != r && "owner re-requesting implies broken FIFO");
      assert(!e.amu_sharer && "AMU sharing coexists only with S copies");
      e.busy = true;
      e.txn = Txn{};
      e.txn.kind = Txn::Kind::kGetX;
      e.txn.requestor = r;
      e.txn.waiting_recall = true;
      e.txn.recall_from = e.owner;
      send_recall(e.owner, block, /*exclusive=*/true,
                  config_.three_hop ? r : sim::kInvalidCpu);
      return;
  }
}

void Directory::handle_upgrade(sim::CpuId r, sim::Addr block) {
  Entry& e = entry(block);
  if (e.busy) {
    ++stats_.deferred;
    wait_push(e, [this, r, block] { handle_upgrade(r, block); });
    return;
  }
  if (e.st != State::kShared || !e.sharers.test(r) || e.amu_sharer) {
    // Serve a full GetX instead (the cache accepts DataE in SM) when the
    // requestor's copy was invalidated by a crossing transaction, or when
    // the AMU holds words of this block: the requestor's copy may be
    // stale relative to the AMU's value, so an ack-only grant would
    // promote stale data.
    handle_getx(r, block);
    return;
  }
  flush_amu(block);
  if (!e.coarse && !e.sharers.any_except(r)) {
    e.st = State::kExclusive;
    e.owner = r;
    e.sharers.clear();
    wiring_.post(node_, wiring_.node_of(r), net::MsgClass::kResponse,
                 sizes_.ctrl(), [cache = agents_.caches[r], block] {
                   cache->on_upgrade_ack(block);
                 });
    return;
  }
  e.busy = true;
  e.txn = Txn{};
  e.txn.kind = Txn::Kind::kUpgrade;
  e.txn.requestor = r;
  send_invals(e, block, r);
}

void Directory::handle_uncached_read(sim::CpuId r, sim::Addr addr,
                                     sim::Promise<std::uint64_t> reply) {
  AmuIface* amu = agents_.amus[node_];
  // The AMU cache serves the *value* when it holds the word, but every
  // uncached load still occupies the memory channels ("load data directly
  // from the home node", §2): MAO spinning is costed as memory traffic.
  const std::uint64_t value = (amu != nullptr && amu->holds_word(addr))
                                  ? amu->peek_word(addr)
                                  : backing_.read_word(addr);
  const sim::Cycle done = dram_.access();
  engine_.schedule_at(done, [this, r, value, reply] {
    wiring_.post(node_, wiring_.node_of(r), net::MsgClass::kUncached,
                 sizes_.word(), [reply, value] { reply.set_value(value); });
  });
}

void Directory::handle_uncached_write(sim::CpuId r, sim::Addr addr,
                                      std::uint64_t value,
                                      sim::Promise<std::uint64_t> ack) {
  AmuIface* amu = agents_.amus[node_];
  if (amu != nullptr && amu->holds_word(addr)) {
    amu->store_word(addr, value);
  } else {
    backing_.write_word(addr, value);
  }
  const sim::Cycle done = dram_.access();
  engine_.schedule_at(done, [this, r, ack] {
    wiring_.post(node_, wiring_.node_of(r), net::MsgClass::kUncached,
                 sizes_.ctrl(), [ack] { ack.set_value(0); });
  });
}

void Directory::handle_word_get(sim::Addr addr,
                                sim::InlineFnT<std::uint64_t> done) {
  const sim::Addr block = backing_.line_base(addr);
  Entry& e = entry(block);
  if (e.busy) {
    ++stats_.deferred;
    wait_push(e, [this, addr, done = std::move(done)]() mutable {
      handle_word_get(addr, std::move(done));
    });
    return;
  }
  ++stats_.word_gets;
  if (e.st == State::kExclusive) {
    e.busy = true;
    e.txn = Txn{};
    e.txn.kind = Txn::Kind::kWordGet;
    e.txn.word_addr = addr;
    e.txn.word_done = std::move(done);
    e.txn.waiting_recall = true;
    e.txn.recall_from = e.owner;
    // The AMU needs the value *at home*: never forwarded.
    send_recall(e.owner, block, /*exclusive=*/false, sim::kInvalidCpu);
    return;
  }
  e.busy = true;  // until the AMU installs the word (see finish_txn note)
  e.amu_sharer = true;
  const std::uint64_t value = backing_.read_word(addr);
  const sim::Cycle when = dram_.access();
  engine_.schedule_at(when,
                      [this, block, done = std::move(done), value]() mutable {
                        done(value);
                        entry(block).busy = false;
                        kick(block);
                      });
}

// ---------------------------------------------------------------- helpers

mem::LineBuf Directory::coherent_line(sim::Addr block) {
  mem::LineBuf line(backing_.read_line(block));
  const Entry* e = peek_entry(block);
  if (e != nullptr && e->amu_sharer) {
    AmuIface* amu = agents_.amus[node_];
    for (std::uint32_t w = 0; w < backing_.words_per_line(); ++w) {
      const sim::Addr a = block + 8ull * w;
      if (amu->holds_word(a)) line[w] = amu->peek_word(a);
    }
  }
  return line;
}

void Directory::flush_amu(sim::Addr block) {
  Entry& e = entry(block);
  if (!e.amu_sharer) return;
  AmuIface* amu = agents_.amus[node_];
  for (std::uint32_t w = 0; w < backing_.words_per_line(); ++w) {
    const sim::Addr a = block + 8ull * w;
    if (amu->holds_word(a)) backing_.write_word(a, amu->peek_word(a));
  }
  amu->drop_block(block);
  e.amu_sharer = false;
}


void Directory::add_sharer(Entry& e, sim::CpuId cpu) {
  e.sharers.set(cpu);
  if (config_.sharer_pointer_limit != 0 && !e.coarse &&
      e.sharers.count() > config_.sharer_pointer_limit) {
    e.coarse = true;
    ++stats_.overflows;
  }
}

void Directory::send_recall(sim::CpuId owner, sim::Addr block,
                            bool exclusive, sim::CpuId fwd_to) {
  ++stats_.recalls_sent;
  wiring_.post(node_, wiring_.node_of(owner), net::MsgClass::kIntervention,
               sizes_.ctrl(),
               [cache = agents_.caches[owner], block, exclusive, fwd_to] {
                 cache->on_recall(block, exclusive, fwd_to);
               });
}

void Directory::send_invals(Entry& e, sim::Addr block, sim::CpuId except) {
  // Coarse entries (pointer overflow) have lost the exact sharer set:
  // invalidate every cpu. Caches without the line simply ack, which is
  // precisely the cost a limited-pointer directory pays.
  std::uint32_t count = 0;
  auto inval = [&](sim::CpuId c) {
    if (c == except) return;
    ++count;
    ++stats_.invals_sent;
    wiring_.post(node_, wiring_.node_of(c), net::MsgClass::kInval,
                 sizes_.ctrl(), [cache = agents_.caches[c], block] {
                   cache->on_inval(block);
                 });
  };
  if (e.coarse) {
    const auto total = static_cast<sim::CpuId>(agents_.caches.size());
    for (sim::CpuId c = 0; c < total; ++c) {
      if (c != except && !e.sharers.test(c)) ++stats_.broadcast_invals;
      inval(c);
    }
  } else {
    e.sharers.for_each(inval);
  }
  assert(count > 0);
  e.txn.pending_acks = count;
}

void Directory::reply_data(sim::CpuId r, sim::Addr block, bool exclusive) {
  // The block stays busy until the data is actually injected: once posted,
  // per-(src,dst) FIFO guarantees any later recall/inval arrives after it.
  // Without this, a recall could overtake the data and find no line.
  assert(entry(block).busy);
  const sim::Cycle when = dram_.access();
  engine_.schedule_at(when, [this, r, block, exclusive] {
    // Snapshot the line at *injection* time, not request time: an AMU
    // word-put can land during the DRAM access, and its word-update to the
    // requestor is dropped (no line yet). Injection-time data plus
    // per-(src,dst) FIFO ordering of any later update closes that window.
    wiring_.post(node_, wiring_.node_of(r), net::MsgClass::kResponse,
                 sizes_.data(),
                 [cache = agents_.caches[r], block, exclusive,
                  line = coherent_line(block)] {
                   cache->on_data(block, exclusive, line);
                 });
    entry(block).busy = false;
    kick(block);
  });
}

void Directory::maybe_finish_txn(sim::Addr block) {
  Entry& e = entry(block);
  assert(e.busy);
  if (e.txn.pending_acks > 0) return;
  if (e.txn.waiting_recall && !e.txn.recall_done) return;
  if (e.txn.forwarded && !e.txn.fill_acked) return;
  finish_txn(block);
}

void Directory::finish_txn(sim::Addr block) {
  Entry& e = entry(block);
  Txn t = std::move(e.txn);
  e.txn = Txn{};
  // Note: `e.busy` stays set through data replies / the AMU word handoff;
  // reply_data (or the WordGet completion below) releases it and kicks the
  // deferred queue. Ack-only completions release it here.
  switch (t.kind) {
    case Txn::Kind::kGetS: {
      e.sharers.clear();
      e.coarse = false;
      if (t.owner_retained) e.sharers.set(t.recall_from);
      add_sharer(e, t.requestor);
      e.owner = sim::kInvalidCpu;
      e.st = State::kShared;
      if (t.forwarded) {
        // Data already travelled owner -> requestor; just release.
        e.busy = false;
        kick(block);
      } else {
        reply_data(t.requestor, block, /*exclusive=*/false);
      }
      break;
    }
    case Txn::Kind::kGetX:
    case Txn::Kind::kUpgrade: {
      e.sharers.clear();
      e.coarse = false;
      e.owner = t.requestor;
      e.st = State::kExclusive;
      if (t.kind == Txn::Kind::kUpgrade) {
        wiring_.post(node_, wiring_.node_of(t.requestor),
                     net::MsgClass::kResponse, sizes_.ctrl(),
                     [cache = agents_.caches[t.requestor], block] {
                       cache->on_upgrade_ack(block);
                     });
        e.busy = false;
        kick(block);
      } else if (t.forwarded) {
        e.busy = false;
        kick(block);
      } else {
        reply_data(t.requestor, block, /*exclusive=*/true);
      }
      break;
    }
    case Txn::Kind::kWordGet: {
      e.sharers.clear();
      e.coarse = false;
      if (t.owner_retained) e.sharers.set(t.recall_from);
      e.owner = sim::kInvalidCpu;
      e.st = e.sharers.none() ? State::kUncached : State::kShared;
      e.amu_sharer = true;
      const std::uint64_t value = backing_.read_word(t.word_addr);
      // Hold the block busy until the AMU has installed the word: a GetX
      // processed in between would otherwise miss the merge-and-drop.
      engine_.schedule(wiring_.local_cycles(),
                       [this, block, done = std::move(t.word_done),
                        value]() mutable {
                         done(value);
                         entry(block).busy = false;
                         kick(block);
                       });
      break;
    }
  }
}

void Directory::kick(sim::Addr block) {
  Entry& e = entry(block);
  if (e.busy) return;
  if (wait_pool_.empty(e.waiting)) {
    maybe_reclaim(block);
    return;
  }
  occupy(wait_pop(e));
}

// ----------------------------------------------------------- introspection

Directory::State Directory::state_of(sim::Addr block) const {
  const Entry* e = peek_entry(block);
  return e == nullptr ? State::kUncached : e->st;
}

bool Directory::is_sharer(sim::Addr block, sim::CpuId cpu) const {
  const Entry* e = peek_entry(block);
  return e != nullptr && e->sharers.test(cpu);
}

sim::CpuId Directory::owner_of(sim::Addr block) const {
  const Entry* e = peek_entry(block);
  return e == nullptr ? sim::kInvalidCpu : e->owner;
}

bool Directory::amu_sharer(sim::Addr block) const {
  const Entry* e = peek_entry(block);
  return e != nullptr && e->amu_sharer;
}

bool Directory::busy(sim::Addr block) const {
  const Entry* e = peek_entry(block);
  return e != nullptr && e->busy;
}

bool Directory::coarse(sim::Addr block) const {
  const Entry* e = peek_entry(block);
  return e != nullptr && e->coarse;
}

void Directory::register_stats(sim::StatsRegistry& reg,
                               const std::string& prefix) const {
  reg.add_counter(prefix + ".gets", &stats_.gets);
  reg.add_counter(prefix + ".getx", &stats_.getx);
  reg.add_counter(prefix + ".upgrades", &stats_.upgrades);
  reg.add_counter(prefix + ".putbacks", &stats_.putbacks);
  reg.add_counter(prefix + ".invals_sent", &stats_.invals_sent);
  reg.add_counter(prefix + ".recalls_sent", &stats_.recalls_sent);
  reg.add_counter(prefix + ".overflows", &stats_.overflows);
  reg.add_counter(prefix + ".broadcast_invals", &stats_.broadcast_invals);
  reg.add_counter(prefix + ".word_gets", &stats_.word_gets);
  reg.add_counter(prefix + ".word_puts", &stats_.word_puts);
  reg.add_counter(prefix + ".word_updates_sent", &stats_.word_updates_sent);
  reg.add_counter(prefix + ".uncached_reads", &stats_.uncached_reads);
  reg.add_counter(prefix + ".uncached_writes", &stats_.uncached_writes);
  reg.add_counter(prefix + ".deferred", &stats_.deferred);
  if (stats_.occupancy_wait_hist) {
    // Conditional so default-mode registry dumps stay byte-identical.
    reg.add_hist(prefix + ".occupancy_wait_hist",
                 stats_.occupancy_wait_hist.get());
  }
}

}  // namespace amo::coh
