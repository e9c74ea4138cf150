#include "amu/amu.hpp"

#include <cassert>
#include <cstddef>
#include <utility>

namespace amo::amu {

const char* to_string(AmoOpcode op) {
  switch (op) {
    case AmoOpcode::kInc: return "amo.inc";
    case AmoOpcode::kDec: return "amo.dec";
    case AmoOpcode::kFetchAdd: return "amo.fetchadd";
    case AmoOpcode::kSwap: return "amo.swap";
    case AmoOpcode::kCas: return "amo.cas";
    case AmoOpcode::kAnd: return "amo.and";
    case AmoOpcode::kOr: return "amo.or";
    case AmoOpcode::kXor: return "amo.xor";
    case AmoOpcode::kMin: return "amo.min";
    case AmoOpcode::kMax: return "amo.max";
  }
  return "?";
}

Amu::Amu(sim::Engine& engine, sim::NodeId node, coh::Directory& dir,
         mem::Backing& backing, mem::Dram& dram, const AmuConfig& config)
    : engine_(engine),
      node_(node),
      dir_(dir),
      backing_(backing),
      dram_(dram),
      config_(config) {
  assert(config_.cache_words >= 1);
  entries_.resize(config_.cache_words);
}

void Amu::submit(AmoRequest&& req) {
  assert(req.reply && "AMO request needs a reply path");
  assert((req.addr & 7) == 0 && "AMO operands are 8-byte aligned words");
  req.enqueued_at = engine_.now();
  if (dispatching_) {
    queue_.push_back(std::move(req));
    stats_.queue_depth.add(queue_.size());
    return;
  }
  // Idle means the queue is empty: pump() drains it whenever an op ends.
  assert(queue_.empty());
  stats_.queue_depth.add(1);
  begin(std::move(req));
}

void Amu::pump() {
  if (!queue_.empty()) begin(queue_.pop_front());
}

void Amu::begin(AmoRequest&& req) {
  dispatching_ = true;
  cur_ = std::move(req);
  if (sim::LogHistogram* h = stats_.queue_wait_hist) {
    h->record(engine_.now() - cur_.enqueued_at);
  }

  ++stats_.ops;
  if (cur_.coherent) {
    ++stats_.amo_ops;
  } else {
    ++stats_.mao_ops;
  }
  start();
}

void Amu::start() {
  if (Entry* e = lookup(cur_.addr); e != nullptr) {
    ++stats_.cache_hits;
    e->lru = ++lru_clock_;
    engine_.schedule(config_.op_cycles, [this] { finish_op(); });
    return;
  }

  ++stats_.cache_misses;
  if (cur_.coherent) {
    // Fine-grained get through the local directory: this may recall an
    // exclusive processor copy, and it registers the AMU as a sharer.
    dir_.word_get(cur_.addr, [this](std::uint64_t value) {
      install(cur_.addr, value, /*coherent=*/true);
      engine_.schedule(config_.op_cycles, [this] { finish_op(); });
    });
    return;
  }

  // MAO: read straight from memory, outside the coherent domain.
  const std::uint64_t value = backing_.read_word(cur_.addr);
  const sim::Cycle when = dram_.access();
  engine_.schedule_at(when + config_.op_cycles, [this, value] {
    execute(install(cur_.addr, value, /*coherent=*/false));
  });
}

void Amu::finish_op() {
  // A processor GetX can drop our word during the op window
  // (drop_block); restart the operation so it re-fetches the
  // now-authoritative value.
  Entry* entry = lookup(cur_.addr);
  if (entry == nullptr) {
    ++stats_.op_restarts;
    start();
    return;
  }
  execute(*entry);
}

void Amu::execute(Entry& entry) {
  const AmoRequest& req = cur_;
  const std::uint64_t old = entry.value;
  const std::uint64_t result = apply(req.op, old, req.operand, req.operand2);
  entry.value = result;
  entry.dirty = true;
  if (req.coherent) {
    // Delayed put when a test value is supplied; eager otherwise. Silent
    // operations (result == old, e.g. a failed TAS swap writing 1 over 1)
    // never put: fanning out a no-change update would amplify contention
    // for nothing. Test-triggered puts are exempt — the wave IS the
    // signal, even if the value was already at the test target.
    const bool test_hit = req.has_test && result == req.test;
    bool put = config_.eager_put_all || !req.has_test || test_hit;
    if (put && !test_hit && result == old) {
      put = false;
      ++stats_.puts_suppressed;
    }
    if (put) {
      ++stats_.puts;
      dir_.word_put(req.addr, result);
      entry.dirty = false;  // memory + sharers now current
    }
  }
  if (!agg_routes_.empty() && req.coherent && result != old) {
    if (AggRoute* route = find_agg_route(req.addr);
        route != nullptr && result % route->threshold == 0) {
      agg_fire(*route, result);
    }
  }
  cur_.reply(old);
  cur_.reply = {};  // release the reply's captures now, not at the next op
  dispatching_ = false;
  pump();
}

void Amu::add_agg_route(AggRoute route) {
  assert(route.threshold > 0 && "aggregation threshold must be non-zero");
  assert(wiring_ != nullptr && peers_ != nullptr &&
         "connect_fabric before installing aggregation routes");
  for (AggRoute& r : agg_routes_) {
    if (r.counter == route.counter) {
      r = std::move(route);
      return;
    }
  }
  agg_routes_.push_back(std::move(route));
}

Amu::AggRoute* Amu::find_agg_route(sim::Addr counter) {
  for (AggRoute& r : agg_routes_) {
    if (r.counter == counter) return &r;
  }
  return nullptr;
}

void Amu::agg_fire(AggRoute& route, std::uint64_t result) {
  ++stats_.agg_fires;
  const std::uint64_t episode = result / route.threshold;
  if (!route.has_parent) {
    // Root: the machine-wide episode is complete; wake the tree.
    do_agg_release(route, episode);
    return;
  }
  // Forward ONE combined fetch-add up the tree. The never-matching test
  // value (monotonic counters are never 0 after an inc) keeps the parent
  // counter's put policy silent: nobody spins on intermediate counters,
  // the release wave is the signal.
  ++stats_.agg_forwards;
  Amu* parent = (*peers_)[route.parent_node];
  wiring_->post(node_, route.parent_node, net::MsgClass::kRequest,
                coh::MsgSizes{}.ctrl(),
                [parent, counter = route.parent_counter] {
                  AmoRequest fwd;
                  fwd.op = AmoOpcode::kFetchAdd;
                  fwd.addr = counter;
                  fwd.operand = 1;
                  fwd.has_test = true;
                  fwd.test = 0;
                  fwd.coherent = true;
                  fwd.reply = [](std::uint64_t) {};  // fire-and-forget
                  parent->submit(std::move(fwd));
                });
}

void Amu::agg_release(sim::Addr counter, std::uint64_t episode) {
  AggRoute* route = find_agg_route(counter);
  assert(route != nullptr && "release wave reached a node with no route");
  do_agg_release(*route, episode);
}

void Amu::do_agg_release(AggRoute& route, std::uint64_t episode) {
  ++stats_.agg_releases;
  if (route.release != 0) {
    // Publish through the AMU's own datapath: a direct word_put would be
    // dropped for a word the AMU does not hold, but an amo.max (eager
    // put, monotonic across pipelined episodes) first word-gets the
    // release word — registering this AMU as a sharer — and then fans
    // one update wave out to every spinner's cached copy.
    AmoRequest pub;
    pub.op = AmoOpcode::kMax;
    pub.addr = route.release;
    pub.operand = episode;
    pub.coherent = true;
    pub.reply = [](std::uint64_t) {};
    submit(std::move(pub));
  }
  for (const auto& [child_node, child_counter] : route.children) {
    Amu* child = (*peers_)[child_node];
    wiring_->post(node_, child_node, net::MsgClass::kUpdate,
                  coh::MsgSizes{}.word(),
                  [child, child_counter, episode] {
                    child->agg_release(child_counter, episode);
                  });
  }
}

Amu::Entry* Amu::lookup(sim::Addr addr) {
  for (Entry& e : entries_) {
    if (e.valid && e.addr == addr) return &e;
  }
  return nullptr;
}

const Amu::Entry* Amu::lookup(sim::Addr addr) const {
  return const_cast<Amu*>(this)->lookup(addr);
}

Amu::Entry& Amu::install(sim::Addr addr, std::uint64_t value, bool coherent) {
  Entry* slot = nullptr;
  for (Entry& e : entries_) {
    if (!e.valid) {
      slot = &e;
      break;
    }
    if (slot == nullptr || e.lru < slot->lru) slot = &e;
  }
  if (slot->valid) evict(*slot);
  slot->addr = addr;
  slot->value = value;
  slot->valid = true;
  slot->dirty = false;
  slot->coherent = coherent;
  slot->lru = ++lru_clock_;
  return *slot;
}

void Amu::evict(Entry& entry) {
  ++stats_.evictions;
  if (entry.dirty) {
    // Flush straight to memory: the put path checks holds_word() at its
    // pipeline slot, and this entry is about to be invalid. Sharers keep
    // their (release-consistent) stale copies; future gets re-read memory.
    backing_.write_word(entry.addr, entry.value);
  }
  if (entry.coherent) {
    // Last word of its block? Then the AMU stops being a sharer.
    const sim::Addr block = backing_.line_base(entry.addr);
    bool more = false;
    for (const Entry& e : entries_) {
      if (&e != &entry && e.valid && e.coherent &&
          backing_.line_base(e.addr) == block) {
        more = true;
        break;
      }
    }
    if (!more) dir_.amu_release(block);
  }
  entry.valid = false;
}

bool Amu::holds_word(sim::Addr addr) const { return lookup(addr) != nullptr; }

std::uint64_t Amu::peek_word(sim::Addr addr) const {
  const Entry* e = lookup(addr);
  assert(e != nullptr);
  return e->value;
}

void Amu::store_word(sim::Addr addr, std::uint64_t value) {
  Entry* e = lookup(addr);
  assert(e != nullptr);
  e->value = value;
  e->dirty = true;
}

void Amu::drop_block(sim::Addr block) {
  for (Entry& e : entries_) {
    if (e.valid && backing_.line_base(e.addr) == block) {
      // The directory has already merged our values; discard.
      e.valid = false;
      e.dirty = false;
    }
  }
}

namespace {

// AmuStats as the registry reads it, in snapshot order. The aggregation
// and restart counters stay struct-only.
constexpr sim::StatField kAmuStatFields[] = {
    {"ops", offsetof(AmuStats, ops)},
    {"amo_ops", offsetof(AmuStats, amo_ops)},
    {"mao_ops", offsetof(AmuStats, mao_ops)},
    {"cache_hits", offsetof(AmuStats, cache_hits)},
    {"cache_misses", offsetof(AmuStats, cache_misses)},
    {"evictions", offsetof(AmuStats, evictions)},
    {"puts", offsetof(AmuStats, puts)},
    {"puts_suppressed", offsetof(AmuStats, puts_suppressed)},
    {"queue_depth", offsetof(AmuStats, queue_depth),
     sim::StatField::Kind::kAccum},
};

}  // namespace

void Amu::register_stats(sim::StatsRegistry& reg,
                         const std::string& prefix) {
  reg.add_group(prefix, &stats_, kAmuStatFields);
  stats_.queue_wait_hist = reg.hist(prefix + ".queue_wait_hist");
}

}  // namespace amo::amu
