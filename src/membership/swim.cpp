#include "lesslog/membership/swim.hpp"

#include <algorithm>
#include <cassert>

namespace lesslog::membership {

namespace {

/// Odd 64-bit multiplier (splitmix64's increment) decorrelating the
/// per-agent RNG streams; any fixed odd constant works.
constexpr std::uint64_t kStreamMix = 0x9E3779B97F4A7C15ULL;

/// Deterministic tick phase in (0, 1): a pure function of the PID, so an
/// agent's tick times are identical for every shard count, yet the fleet
/// staggers instead of synchronizing every probe on period boundaries.
double tick_phase(std::uint32_t pid) {
  const std::uint32_t h = pid * 2654435761u;  // Fibonacci hashing
  return (static_cast<double>(h & 0xFFFu) + 1.0) / 4098.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// SwimAgent

SwimAgent::SwimAgent(SwimRuntime& runtime, proto::Peer& peer,
                     sim::Engine& engine, const obs::WireMetrics* metrics)
    : runtime_(&runtime),
      peer_(&peer),
      engine_(&engine),
      metrics_(metrics),
      // Seed the belief from whatever the peer already believed (O(1)
      // aliasing snapshot) — attach must not teleport knowledge in.
      view_(peer.liveness().snapshot()),
      rng_(runtime.seed() ^
           ((peer.pid().value() + 1ULL) * kStreamMix)),
      // Stripe probe ids per agent so correlation ids never collide with
      // another agent's (same scheme as Peer's push ids).
      next_probe_id_((std::uint64_t{0x5717ULL} << 48) |
                     (std::uint64_t{peer.pid().value()} << 20)) {
  enqueue_gossip(pid().value(), kAlive, self_incarnation_);
}

SwimAgent::Member& SwimAgent::member(std::uint32_t p) {
  return members_[p];  // default: alive at incarnation 0
}

void SwimAgent::enable() {
  ++generation_;  // invalidate timers from the previous life
  enabled_ = true;
  ticking_ = false;
  outstanding_ = false;
  tick_k_ = -1;  // re-anchor the grid at the (barrier-aligned) enable time
  period_index_ = 0;
  // A reincarnation must outrank every piece of gossip about the previous
  // life, including its confirmed death.
  ++self_incarnation_;
  members_.clear();
  view_.clear_suspects();
  gossip_queue_.clear();
  dead_cursor_ = 0;
  enqueue_gossip(pid().value(), kAlive, self_incarnation_);
}

void SwimAgent::disable() {
  ++generation_;
  enabled_ = false;
  ticking_ = false;
  outstanding_ = false;
  members_.clear();
  view_.clear_suspects();
  gossip_queue_.clear();
}

void SwimAgent::start_ticking() {
  if (!enabled_ || ticking_) return;
  const double period = kProtocolPeriod;
  const double phase = period * tick_phase(pid().value());
  // Absolute tick grid: this agent's k-th tick fires at k*period + phase,
  // a pure function of (pid, period). Anchoring each (re)start on the
  // shard's own clock instead would shift the grid by the shard's private
  // post-settle quiescence point — and with it every probe, ack, and
  // confirm time — making the whole detection trace depend on the shard
  // layout. The clock is consulted only to *anchor* (find the first
  // future grid point), and callers reach an unanchored agent only at
  // top-level barriers, where every shard clock equals the barrier time.
  if (tick_k_ < 0) {
    const double now = engine_->now();
    std::int64_t k =
        now <= phase ? 0 : static_cast<std::int64_t>((now - phase) / period);
    while (static_cast<double>(k) * period + phase <= now) ++k;
    tick_k_ = k;
  }
  // Resume may find the stored slot already behind the clock: the agent
  // went quiet at the old horizon, but the settle that followed drained
  // in-flight timer chains well past it. Skip to the first future slot —
  // scheduling a tick into the past would fire it out of time order (and
  // push its deliveries into other shards' pasts), in a way that depends
  // on how far each shard's clock ran. The clock read here is barrier-
  // aligned (run_until edge or the fleet-wide quiesce point), so the
  // number of skipped slots is identical at any shard count.
  while (static_cast<double>(tick_k_) * period + phase <= engine_->now()) {
    ++tick_k_;
  }
  const double t = static_cast<double>(tick_k_) * period + phase;
  if (t > runtime_->horizon()) return;
  ticking_ = true;
  const std::uint64_t gen = generation_;
  engine_->at(t, [this, gen] {
    if (generation_ == gen) tick();
  });
}

void SwimAgent::tick() {
  if (!enabled_) return;
  // 1. Resolve the previous period's probe: unanswered (direct and
  //    indirect) means the target becomes suspect.
  if (outstanding_ && !acked_) start_suspect(outstanding_target_);
  outstanding_ = false;
  ++period_index_;
  // 2. Suspects whose refutation window elapsed are confirmed dead.
  //    Ordered map: the confirm order (and so the message order) is a
  //    pure function of the PIDs, not of heap addresses.
  for (auto& [p, mm] : members_) {
    if (mm.state == kSuspect &&
        period_index_ - mm.suspect_period >= kSuspectPeriods) {
      confirm(p, mm);
    }
  }
  // 3. Probe one uniformly random believed-alive member.
  probe();
  // 3b. Dead-node reclaim (Serf-style): every period, also ping one
  //     believed-dead member in deterministic rotation. A genuinely dead
  //     target costs one undeliverable datagram; a falsely confirmed one
  //     (partition casualty) answers, and the ack's direct evidence
  //     resurrects it on our side while our ping resurrects us on theirs.
  //     Without it a fully partitioned fleet never heals: once both
  //     sides confirm each other dead, the normal probe cycle (which only
  //     targets believed-alive members) sends nothing across the healed
  //     link. One reclaim ping per period bounds the re-merge at
  //     |believed dead| periods — the rotation walks the whole ID space,
  //     and unoccupied IDs count.
  probe_dead();
  // 4. Bounded rescheduling on the absolute grid: past the armed horizon
  //    the agent goes quiet so settle() terminates. tick_k_ keeps pointing
  //    at the skipped slot, so the next arm() resumes the same grid
  //    without consulting the shard's (layout-dependent) idle clock.
  const double period = kProtocolPeriod;
  const double phase = period * tick_phase(pid().value());
  ++tick_k_;
  const double t = static_cast<double>(tick_k_) * period + phase;
  if (t <= runtime_->horizon()) {
    const std::uint64_t gen = generation_;
    engine_->at(t, [this, gen] {
      if (generation_ == gen) tick();
    });
  } else {
    ticking_ = false;
  }
}

void SwimAgent::probe() {
  const std::optional<core::Pid> target = pick_live(pid(), pid());
  if (!target.has_value()) return;
  outstanding_ = true;
  acked_ = false;
  outstanding_target_ = target->value();
  outstanding_id_ = next_probe_id_++;
  send_ping(*target, pid(), outstanding_id_);
  // Direct-ack deadline: still unanswered then -> indirect probes through
  // k proxies. Fixed delay, generation-guarded against rejoin cycles.
  const std::uint64_t gen = generation_;
  const std::uint64_t id = outstanding_id_;
  engine_->after_fixed(kDirectTimeout, [this, gen, id] {
    if (generation_ != gen || !enabled_) return;
    if (!outstanding_ || acked_ || outstanding_id_ != id) return;
    send_ping_reqs();
  });
}

void SwimAgent::probe_dead() {
  const util::StatusWord& w = view_.word();
  const std::uint32_t space = util::space_size(w.width());
  // Deterministic rotation, not sampling: every believed-dead pid gets a
  // reclaim ping once per |dead| reclaim periods, so a healed partition
  // re-merges within a bounded number of protocol periods. Random
  // contact is not enough here — a falsely-confirmed pair whose dead
  // record carries a unique incarnation can only heal by direct contact
  // (no third party's gossip outranks it), and hundreds of such pairs
  // each waiting on an independent coin flip leaves stragglers long
  // after the partition closed.
  for (std::uint32_t i = 0; i < space; ++i) {
    const std::uint32_t p = (dead_cursor_ + i) % space;
    if (p != pid().value() && !w.is_live(p)) {
      dead_cursor_ = (p + 1) % space;
      send_ping(core::Pid{p}, pid(), next_probe_id_++);
      return;
    }
  }
}

void SwimAgent::send_ping(core::Pid to, core::Pid origin,
                          std::uint64_t probe_id) {
  proto::Message ping;
  ping.request_id = probe_id;
  ping.type = proto::MsgType::kPing;
  ping.from = pid();
  ping.to = to;
  ping.requester = origin;  // acks go straight back to the origin
  ping.subject = to;
  attach_payload(ping);
  ++tally_.pings;
  peer_->network().send(ping);
}

void SwimAgent::send_ping_reqs() {
  const core::Pid target{outstanding_target_};
  // Up to k distinct proxies, alive-believed, neither self nor target.
  std::vector<std::uint32_t> chosen;
  for (int attempt = 0; attempt < kProxies * 8; ++attempt) {
    if (static_cast<int>(chosen.size()) >= kProxies) break;
    const std::optional<core::Pid> proxy = pick_live(pid(), target);
    if (!proxy.has_value()) break;
    bool duplicate = false;
    for (const std::uint32_t c : chosen) duplicate |= (c == proxy->value());
    if (duplicate) continue;
    chosen.push_back(proxy->value());
  }
  for (const std::uint32_t proxy : chosen) {
    proto::Message req;
    req.request_id = outstanding_id_;
    req.type = proto::MsgType::kPingReq;
    req.from = pid();
    req.to = core::Pid{proxy};
    req.requester = pid();   // origin: the relayed ack's destination
    req.subject = target;    // who the proxy should ping
    attach_payload(req);
    ++tally_.ping_reqs;
    peer_->network().send(req);
  }
}

void SwimAgent::send_ack(const proto::Message& ping) {
  proto::Message ack;
  ack.request_id = ping.request_id;
  ack.type = proto::MsgType::kPingAck;
  ack.from = pid();
  ack.to = ping.requester;  // direct or relayed: always the origin
  ack.requester = ping.requester;
  ack.subject = pid();
  ack.ok = true;
  attach_payload(ack);
  ++tally_.acks;
  peer_->network().send(ack);
}

void SwimAgent::attach_payload(proto::Message& m) {
  Gossip g{pid().value(), kAlive, self_incarnation_, 0};
  if (!gossip_queue_.empty()) {
    g = gossip_queue_.front();
    gossip_queue_.pop_front();
    if (--g.remaining > 0) gossip_queue_.push_back(g);
  }
  // No queued update: the default payload re-spreads our own aliveness
  // (and current incarnation) — SWIM's standing anti-entropy.
  m.file = core::FileId{pack_gossip(g.pid, g.state)};
  m.version = g.incarnation;
  tally_.gossip_bytes += 16;  // file + version fields
  if (metrics_ != nullptr) metrics_->swim_gossip_bytes->add(16);
}

void SwimAgent::enqueue_gossip(std::uint32_t p, State state,
                               std::uint64_t inc) {
  gossip_queue_.push_back(
      Gossip{p, state, inc, kGossipRepeats});
}

void SwimAgent::start_suspect(std::uint32_t p) {
  Member& mm = member(p);
  if (mm.state != kAlive) return;  // already suspect or dead
  mm.state = kSuspect;
  mm.suspect_period = period_index_;
  view_.set_suspected(p, true);
  ++tally_.suspects;
  if (runtime_->truth_live(p)) ++tally_.false_suspects;
  if (metrics_ != nullptr) metrics_->swim_suspects->inc();
  enqueue_gossip(p, kSuspect, mm.incarnation);
}

void SwimAgent::confirm(std::uint32_t p, Member& mm) {
  mm.state = kDead;
  view_.set_suspected(p, false);  // doubt resolved: the bitmap flips instead
  ++tally_.confirms;
  const bool false_confirm = runtime_->truth_live(p);
  if (false_confirm) ++tally_.false_confirms;
  if (metrics_ != nullptr) metrics_->swim_confirms->inc();
  enqueue_gossip(p, kDead, mm.incarnation);
  // The belief flip + Section 5.3 recovery, through the same entry point
  // the oracle's announcement path uses. Guarded: a status announce (a
  // graceful depart, say) may already have flipped the belief, and
  // recovery must run once per death, not once per evidence source.
  if (view_.is_live(p)) peer_->learn_dead(core::Pid{p});
  confirm_log_.push_back(
      ConfirmEvent{engine_->now(), p, pid().value(), false_confirm});
}

void SwimAgent::apply_gossip(std::uint32_t p, State state,
                             std::uint64_t inc) {
  if (p == pid().value()) {
    // Someone thinks we are suspect/dead. Refute with a fresher
    // incarnation; the bumped alive update spreads via the queue.
    if (state != kAlive && inc >= self_incarnation_) {
      self_incarnation_ = inc + 1;
      ++tally_.incarnation_bumps;
      ++tally_.refutations;
      if (metrics_ != nullptr) {
        metrics_->swim_incarnation_bumps->inc();
        metrics_->swim_refutations->inc();
      }
      enqueue_gossip(p, kAlive, self_incarnation_);
    }
    return;
  }
  Member& mm = member(p);
  switch (state) {
    case kAlive:
      // alive(i) overrides suspect(j) and dead(j) iff i > j.
      if (inc > mm.incarnation) {
        const State was = mm.state;
        mm.state = kAlive;
        mm.incarnation = inc;
        view_.set_suspected(p, false);
        if (was != kAlive) {
          ++tally_.refutations;
          if (metrics_ != nullptr) metrics_->swim_refutations->inc();
          if (!view_.is_live(p)) peer_->learn_live(core::Pid{p});
          enqueue_gossip(p, kAlive, inc);
        }
      }
      break;
    case kSuspect:
      // suspect(i) overrides alive(j <= i) and refreshes suspect(j < i).
      if ((mm.state == kAlive && inc >= mm.incarnation) ||
          (mm.state == kSuspect && inc > mm.incarnation)) {
        const State was = mm.state;
        mm.state = kSuspect;
        mm.incarnation = inc;
        view_.set_suspected(p, true);
        if (was == kAlive) mm.suspect_period = period_index_;
        enqueue_gossip(p, kSuspect, inc);
      }
      break;
    case kDead:
      // dead(i) is terminal for incarnation i: only alive(j > i) — a
      // reincarnation — revives the entry.
      if (mm.state != kDead && inc >= mm.incarnation) {
        mm.state = kDead;
        mm.incarnation = inc;
        view_.set_suspected(p, false);
        enqueue_gossip(p, kDead, inc);
        if (view_.is_live(p)) peer_->learn_dead(core::Pid{p});
      }
      break;
  }
}

void SwimAgent::direct_evidence_alive(core::Pid sender) {
  if (sender == pid()) return;
  // The simulated wire cannot spoof: a datagram from S proves S's process
  // was alive when it sent. Resurrect a suspected/declared-dead sender
  // with an incarnation bump so the correction outranks the stale gossip.
  Member& mm = member(sender.value());
  if (mm.state != kAlive) {
    mm.state = kAlive;
    view_.set_suspected(sender.value(), false);
    ++mm.incarnation;
    ++tally_.refutations;
    if (metrics_ != nullptr) metrics_->swim_refutations->inc();
    enqueue_gossip(sender.value(), kAlive, mm.incarnation);
  }
  if (!view_.is_live(sender.value())) peer_->learn_live(sender);
}

void SwimAgent::on_message(const proto::Message& m) {
  if (!enabled_) return;
  direct_evidence_alive(m.from);
  if (has_gossip(m.file.key())) {
    apply_gossip(gossip_pid(m.file.key()),
                 static_cast<State>(gossip_state(m.file.key())), m.version);
  }
  switch (m.type) {
    case proto::MsgType::kPing:
      send_ack(m);
      return;
    case proto::MsgType::kPingAck:
      if (outstanding_ && m.request_id == outstanding_id_) acked_ = true;
      return;
    case proto::MsgType::kPingReq:
      // Proxy duty: relay the probe, preserving the origin and its
      // correlation id so the target's ack reaches the origin directly.
      send_ping(m.subject, m.requester, m.request_id);
      return;
    default:
      return;  // not SWIM traffic; nothing to do
  }
}

std::optional<core::Pid> SwimAgent::pick_live(core::Pid exclude_a,
                                              core::Pid exclude_b) {
  const util::StatusWord& w = view_.word();
  const std::uint32_t space = util::space_size(w.width());
  const auto eligible = [&](std::uint32_t p) {
    return w.is_live(p) && p != exclude_a.value() && p != exclude_b.value();
  };
  // Rejection sampling with a deterministic linear fallback: cheap when
  // the space is reasonably populated, still terminating (and still a
  // pure function of the RNG stream) when it is nearly empty.
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto p = static_cast<std::uint32_t>(rng_.bounded(space));
    if (eligible(p)) return core::Pid{p};
  }
  const auto start = static_cast<std::uint32_t>(rng_.bounded(space));
  for (std::uint32_t i = 0; i < space; ++i) {
    const std::uint32_t p = (start + i) % space;
    if (eligible(p)) return core::Pid{p};
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// SwimRuntime

SwimRuntime::SwimRuntime(std::uint64_t seed, int m) : seed_(seed), m_(m) {
  agents_.resize(util::space_size(m_));
}

SwimRuntime::~SwimRuntime() = default;

SwimAgent& SwimRuntime::attach_peer(proto::Peer& peer, sim::Engine& engine,
                                    const obs::WireMetrics* metrics) {
  const std::uint32_t p = peer.pid().value();
  assert(p < agents_.size());
  if (!agents_[p]) {
    agents_[p] = std::make_unique<SwimAgent>(*this, peer, engine, metrics);
  }
  SwimAgent& agent = *agents_[p];
  peer.set_liveness_view(&agent.view());
  peer.set_membership_hook(&agent, [](void* ctx, const proto::Message& m) {
    static_cast<SwimAgent*>(ctx)->on_message(m);
  });
  agent.start_ticking();
  return agent;
}

void SwimRuntime::arm(double horizon) {
  if (horizon > horizon_) horizon_ = horizon;
  for (const auto& agent : agents_) {
    if (agent && agent->enabled()) agent->start_ticking();
  }
}

SwimRuntime::Tally SwimRuntime::tally() const {
  Tally sum;
  for (const auto& agent : agents_) {
    if (agent) sum += agent->tally_;
  }
  return sum;
}

std::vector<ConfirmEvent> SwimRuntime::drain_confirms() {
  std::vector<ConfirmEvent> out;
  for (const auto& agent : agents_) {
    if (!agent || agent->confirm_log_.empty()) continue;
    out.insert(out.end(), agent->confirm_log_.begin(),
               agent->confirm_log_.end());
    agent->confirm_log_.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const ConfirmEvent& a, const ConfirmEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.subject != b.subject) return a.subject < b.subject;
              return a.by < b.by;
            });
  return out;
}

bool SwimRuntime::converged(const util::StatusWord& truth) const {
  for (const auto& agent : agents_) {
    if (!agent || !agent->enabled()) continue;
    if (!(agent->view().word() == truth)) return false;
  }
  return true;
}

void SwimRuntime::on_peer(double /*time*/, core::Pid peer, bool live) {
  SwimAgent* agent = this->agent(peer);
  // A live event for a PID with no agent yet is a brand-new joiner: the
  // caller attaches it right after the join returns (the runtime cannot —
  // it holds no swarm reference).
  if (agent == nullptr) return;
  if (live) {
    agent->enable();
    agent->start_ticking();
  } else {
    agent->disable();
  }
}

}  // namespace lesslog::membership
