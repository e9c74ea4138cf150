#include "cpu/am_server.hpp"

#include <cassert>
#include <cstddef>

#include "cpu/core.hpp"

namespace amo::cpu {

AmServer::AmServer(sim::Engine& engine, coh::Wiring& wiring, Core& host,
                   const AmServerConfig& config)
    : engine_(engine), wiring_(wiring), host_(host), config_(config) {}

void AmServer::on_request(Core& src, std::uint64_t seq, std::uint32_t token,
                          amu::AmoOpcode op, sim::Addr addr,
                          std::uint64_t operand, std::uint64_t operand2) {
  ++stats_.requests;
  SourceState& st = sources_[src.cpu()];
  if (st.has_completed && seq <= st.completed_seq) {
    // Retransmission of an already-handled request: replay the last
    // reply. (A stale duplicate of an older seq can surface after the
    // client moved on; its token is no longer current, so the replayed
    // value is simply discarded at the client.)
    ++stats_.duplicates;
    ++stats_.replays;
    send_reply(src, token, st.completed_value);
    return;
  }
  if (st.inflight && st.inflight_seq == seq) {
    // Retransmission while the original is still queued/executing:
    // remember the new attempt, answer every one at completion.
    ++stats_.duplicates;
    st.inflight_tokens.push_back(token);
    return;
  }
  assert(!st.inflight && "one outstanding AM per source context");
  st.inflight = true;
  st.inflight_seq = seq;
  st.inflight_tokens.assign(1, token);
  queue_.push_back(Request{&src, seq, op, addr, operand, operand2});
  pump();
}

void AmServer::pump() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  Request req = queue_.front();
  queue_.pop_front();
  sim::detach(process(req));
}

sim::Task<void> AmServer::process(Request req) {
  // Invocation overhead dominates (trap + dispatch), then the handler
  // performs the operation through the host core's coherent cache.
  co_await host_.occupy(config_.invoke_cycles);
  const std::uint64_t old = co_await host_.cache().atomic_rmw(
      req.op, req.addr, req.operand, req.operand2);
  co_await host_.occupy(config_.handler_cycles);
  ++stats_.handled;

  SourceState& st = sources_[req.src->cpu()];
  assert(st.inflight && st.inflight_seq == req.seq);
  st.inflight = false;
  st.has_completed = true;
  st.completed_seq = req.seq;
  st.completed_value = old;
  for (std::uint32_t token : st.inflight_tokens) {
    send_reply(*req.src, token, old);
  }

  busy_ = false;
  pump();
}

void AmServer::send_reply(Core& dst, std::uint32_t token,
                          std::uint64_t value) {
  wiring_.post(host_.node(), dst.node(), net::MsgClass::kActiveMsg,
               coh::MsgSizes::word(), [dst = &dst, token, value] {
                 dst->am_reply(token, value);
               });
}

namespace {

// AmServerStats as the registry reads it, in snapshot order.
constexpr sim::StatField kAmServerStatFields[] = {
    {"requests", offsetof(AmServerStats, requests)},
    {"duplicates", offsetof(AmServerStats, duplicates)},
    {"replays", offsetof(AmServerStats, replays)},
    {"handled", offsetof(AmServerStats, handled)},
};

}  // namespace

void AmServer::register_stats(sim::StatsRegistry& reg,
                              const std::string& prefix) const {
  reg.add_group(prefix, &stats_, kAmServerStatFields);
}

}  // namespace amo::cpu
