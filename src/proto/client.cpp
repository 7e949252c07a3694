#include "lesslog/proto/client.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "lesslog/util/rng.hpp"

namespace lesslog::proto {

namespace {
/// Karn-clean samples required before the hedge delay trusts the
/// empirical percentile; below this the hedge fires at half the base
/// timeout.
constexpr std::size_t kHedgeWarmup = 16;

// The adaptive layer's fixed policy. Each is the value every workload
// runs with; none is configurable.
constexpr double kRtoFloor = 0.03;    ///< lower clamp on any adaptive delay (s)
constexpr double kRtoCap = 2.0;       ///< upper clamp; the backoff ceiling (s)
constexpr double kBackoffBase = 2.0;  ///< per-retry delay multiplier
constexpr double kRetryJitter = 0.1;  ///< +/- fraction on retry delays
constexpr double kBusyBackoff = 0.05; ///< base migrate delay after kBusy (s)
static_assert(kRtoFloor > 0.0 && kRtoCap >= kRtoFloor);
static_assert(kBackoffBase >= 1.0);
// Strictly inside (0, 1): a -100% draw would schedule a zero delay.
static_assert(kRetryJitter > 0.0 && kRetryJitter < 1.0);
// Positive: a zero delay would hot-loop against a shedding peer.
static_assert(kBusyBackoff > 0.0);
}  // namespace

void ClientConfig::validate() const {
  if (std::isnan(timeout) || timeout <= 0.0) {
    throw std::invalid_argument(
        "ClientConfig: timeout must be strictly positive");
  }
  if (max_retries < 0) {
    throw std::invalid_argument(
        "ClientConfig: max_retries must be non-negative");
  }
  if (std::isnan(hedge_percentile) ||
      (hedge_percentile != 0.0 &&
       (hedge_percentile < 0.5 || hedge_percentile >= 1.0))) {
    throw std::invalid_argument(
        "ClientConfig: hedge_percentile must be 0 (off) or in [0.5, 1)");
  }
}

Client::Client(Peer& home, Network& network, ClientConfig cfg)
    : home_(&home), network_(&network), cfg_(cfg),
      // Stripe request ids by home PID so several clients in one swarm
      // never collide.
      next_id_((std::uint64_t{home.pid().value()} << 32) + 1) {
  cfg.validate();
  if (reliability_active()) reliability_ = std::make_unique<Reliability>();
  home_->set_reply_sink([this](const Message& m) { on_reply(m); });
}

const RttEstimator& Client::estimator() const noexcept {
  static const RttEstimator kUnprimed;
  return reliability_ != nullptr ? reliability_->estimator : kUnprimed;
}

std::optional<core::Pid> Client::entry_at(core::Pid target,
                                          std::uint32_t attempt) const {
  const util::StatusWord& status = home_->status();
  const core::LookupTree tree(status.width(), target);
  // Migration changes only the subtree identifier: the entry point is this
  // node's counterpart in the attempted subtree, or the nearest live proxy
  // below it. With b = 0 the entry is always the home node itself.
  const core::SubtreeView view(tree, home_->fault_bits());
  const std::uint32_t sid =
      (view.subtree_id(home_->pid()) + attempt) % view.subtree_count();
  const std::uint32_t vid = view.subtree_vid(home_->pid());
  const core::Pid counterpart = view.pid_at(vid, sid);
  if (cfg_.suspicion_routing) {
    const std::vector<std::uint32_t>* suspects = home_->liveness().suspects();
    if (suspects != nullptr) {
      // Failure-detector doubt masked into a scratch bitmap: suspected
      // peers are skipped up front instead of being discovered dead by a
      // timeout. When doubt covers every candidate in the subtree, fall
      // through to bitmap-only routing — a false mass-suspicion must not
      // make the subtree unreachable.
      util::StatusWord masked = status;
      for (const std::uint32_t s : *suspects) masked.set_dead(s);
      if (masked.is_live(counterpart.value())) return counterpart;
      const std::optional<core::Pid> alt =
          view.find_live_in_subtree(sid, vid, masked);
      if (alt.has_value()) return alt;
    }
  }
  if (status.is_live(counterpart.value())) return counterpart;
  return view.find_live_in_subtree(sid, vid, status);
}

void Client::get(core::FileId file, core::Pid r, GetCallback done) {
  const std::uint64_t id = next_id_++;
  PendingGet pending;
  pending.file = file;
  pending.target = r;
  pending.done = std::move(done);
  pending.issued_at = network_->engine().now();
  gets_.insert(id, std::move(pending));
  ++issued_;
  if (metrics_ != nullptr) metrics_->gets_issued->inc();
  send_get(id);
  // send_get may have completed the request synchronously (colocated
  // serve, or identifier exhaustion) — only a still-pending one hedges.
  if (cfg_.hedge_percentile > 0.0 && gets_.find(id) != nullptr) {
    arm_hedge(id);
  }
}

void Client::send_get(std::uint64_t id) {
  PendingGet* found = gets_.find(id);
  if (found == nullptr) return;
  PendingGet& g = *found;
  const std::optional<core::Pid> entry = entry_at(g.target, g.subtree_attempt);
  if (!entry.has_value()) {
    // The attempted subtree has no live node at all: migrate immediately,
    // keeping the current leg's retry budget (only definitive replies
    // refresh it).
    migrate_get(id, found, 0, 0.0, /*reset_retries=*/false);
    return;
  }
  Message m;
  m.request_id = id;
  m.type = MsgType::kGetRequest;
  m.from = home_->pid();
  m.to = *entry;
  m.requester = home_->pid();
  m.subject = g.target;
  m.file = g.file;
  ++g.generation;
  ++g.transmissions;
  arm_get_timeout(id, g);
  if (*entry == home_->pid()) {
    // Colocated: the request starts at this very node (the common case);
    // hand it to the peer directly rather than paying a datagram.
    // NOTE: may complete the request synchronously (local copy), so it
    // must come after the bookkeeping above.
    home_->handle(m);
  } else {
    network_->send(m);
  }
}

void Client::arm_get_timeout(std::uint64_t id, PendingGet& g) {
  const int generation = g.generation;
  if (!cfg_.adaptive) {
    // Fixed-timer core: the exact pre-layer schedule, on the event
    // queue's FIFO-lane fast path. The previous leg's timer can only
    // fire stale from here on, so its handler is released now.
    sim::Engine& engine = network_->engine();
    engine.release(g.timer);
    g.timer = engine.after_fixed(cfg_.timeout, [this, id, generation] {
      handle_get_timeout(id, generation);
    });
    return;
  }
  const int retries = g.retries;
  double delay =
      reliability_->estimator.rto(cfg_.timeout, kRtoFloor, kRtoCap);
  for (int i = 0; i < retries && delay < kRtoCap; ++i) {
    delay *= kBackoffBase;
  }
  delay = std::min(delay, kRtoCap);
  if (retries > 0) {
    // Deterministic +/- jitter hashed from (seed, request id, leg): no
    // draw from any shared RNG stream, so enabling the layer perturbs
    // nothing else and reruns stay bit-identical.
    delay *= 1.0 + kRetryJitter * (2.0 * leg_jitter(id, generation) - 1.0);
    delay = std::max(delay, kRtoFloor);
  }
  // Computed (non-constant) delay: must go through the wheel/heap, never
  // the fixed-constant FIFO lanes.
  network_->engine().after(delay, [this, id, generation] {
    handle_get_timeout(id, generation);
  });
}

void Client::handle_get_timeout(std::uint64_t id, int generation) {
  PendingGet* found = gets_.find(id);
  if (found == nullptr) return;  // already completed
  PendingGet& g = *found;
  if (g.generation != generation) return;  // a newer leg is in flight
  g.timer = {};  // the current leg's timer is the one firing
  if (metrics_ != nullptr) metrics_->get_timeouts->inc();
  if (g.retries >= cfg_.max_retries) {
    finish_get(id, found, false, 0, 0, /*via_hedge=*/false);
    return;
  }
  ++g.retries;
  if (metrics_ != nullptr) metrics_->get_retries->inc();
  send_get(id);
}

void Client::migrate_get(std::uint64_t id, PendingGet* found, int hops,
                         double delay, bool reset_retries) {
  PendingGet& g = *found;
  ++g.migrations;
  if (metrics_ != nullptr) metrics_->get_migrations->inc();
  ++g.subtree_attempt;
  if (g.hedged && !g.hedge_resolved && g.subtree_attempt == g.hedge_attempt) {
    // The hedge leg is already in flight down the target subtree: adopt
    // it as the primary instead of sending a duplicate, with a fresh
    // retry budget and timeout on the adopted leg.
    g.retries = 0;
    ++g.generation;
    arm_get_timeout(id, g);
    return;
  }
  if (g.hedged && g.hedge_resolved && g.subtree_attempt == g.hedge_attempt) {
    // The hedge already answered for that subtree (miss or shed): the
    // migration it would have cost is skipped outright.
    ++g.migrations;
    if (metrics_ != nullptr) metrics_->get_migrations->inc();
    ++g.subtree_attempt;
  }
  const core::LookupTree tree(home_->status().width(), g.target);
  const core::SubtreeView view(tree, home_->fault_bits());
  if (g.subtree_attempt >= view.subtree_count()) {
    if (g.busy_bounces > 0 && g.busy_wraps < cfg_.max_retries) {
      // The walk was shed somewhere along the way: a kBusy peer was
      // loaded, not dead, so exhaustion is not definitive — wrap and
      // revisit. A wrap consumes the sheds seen so far and the wrap
      // count is capped, so a request always terminates.
      g.busy_bounces = 0;
      ++g.busy_wraps;
      g.subtree_attempt %= view.subtree_count();
    } else {
      finish_get(id, found, false, 0, hops, /*via_hedge=*/false);
      return;
    }
  }
  if (reset_retries) g.retries = 0;
  if (delay <= 0.0) {
    send_get(id);
    return;
  }
  // Deferred re-route (the BUSY backoff): stale the shed leg's pending
  // timeout now so it cannot fire a duplicate send during the wait.
  ++g.generation;
  network_->engine().release(g.timer);
  g.timer = {};
  const int generation = g.generation;
  network_->engine().after(delay, [this, id, generation] {
    PendingGet* p = gets_.find(id);
    if (p == nullptr || p->generation != generation) return;
    send_get(id);
  });
}

void Client::arm_hedge(std::uint64_t id) {
  const RttEstimator& estimator = reliability_->estimator;
  double delay = estimator.window_size() >= kHedgeWarmup
                     ? estimator.percentile(cfg_.hedge_percentile)
                     : 0.5 * cfg_.timeout;
  // Colocated serves contribute near-zero samples; never hedge *faster*
  // than the adaptive floor.
  delay = std::max(delay, kRtoFloor);
  network_->engine().after(delay, [this, id] {
    PendingGet* found = gets_.find(id);
    if (found == nullptr) return;  // served before the hedge delay ran out
    PendingGet& g = *found;
    // Only a first-leg, untouched request hedges: once it has retried or
    // migrated, the backoff machinery owns it.
    if (g.hedged || g.retries > 0 || g.migrations > 0) return;
    launch_hedge(id, g);
  });
}

void Client::launch_hedge(std::uint64_t id, PendingGet& g) {
  const core::LookupTree tree(home_->status().width(), g.target);
  const core::SubtreeView view(tree, home_->fault_bits());
  const std::uint32_t alt = g.subtree_attempt + 1;
  if (alt >= view.subtree_count()) return;  // no alternate replica subtree
  const std::optional<core::Pid> entry = entry_at(g.target, alt);
  if (!entry.has_value()) return;  // nothing live to race against
  const std::uint64_t hedge_id = next_id_++;
  g.hedged = true;
  g.hedge_attempt = alt;
  g.hedge_id = hedge_id;
  reliability_->hedge_ids.insert(hedge_id, id);
  if (metrics_ != nullptr) metrics_->hedges->inc();
  Message m;
  m.request_id = hedge_id;
  m.type = MsgType::kGetRequest;
  m.from = home_->pid();
  m.to = *entry;
  m.requester = home_->pid();
  m.subject = g.target;
  m.file = g.file;
  if (*entry == home_->pid()) {
    home_->handle(m);  // may complete synchronously; bookkeeping is done
  } else {
    network_->send(m);
  }
}

double Client::busy_delay(const PendingGet& g) const noexcept {
  // Exponential in the number of subtree moves already made, capped: a
  // request bounced around a loaded system backs off harder each hop.
  double d = kBusyBackoff;
  for (int i = 0; i < g.migrations && d < kRtoCap; ++i) {
    d *= kBackoffBase;
  }
  return std::min(d, kRtoCap);
}

double Client::leg_jitter(std::uint64_t id, int generation) const noexcept {
  std::uint64_t state = cfg_.seed ^ (id * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(generation) << 32);
  return static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
}

void Client::finish_get(std::uint64_t id, PendingGet* found, bool ok,
                        std::uint64_t version, int hops, bool via_hedge) {
  assert(found != nullptr && found == gets_.find(id));
  PendingGet g = std::move(*found);
  gets_.erase(id);
  // The answered leg's timeout would fire into nothing: free its handler
  // now rather than hold it for the rest of the timeout.
  network_->engine().release(g.timer);
  GetResult result;
  result.ok = ok;
  result.version = version;
  result.latency = network_->engine().now() - g.issued_at;
  result.hops = hops;
  result.retries = g.retries;
  result.migrations = g.migrations;
  if (g.hedged) {
    // Every launched hedge resolves exactly once, right here: either the
    // hedge leg completed the request, or the other leg did (timeout
    // exhaustion included) and the hedge is cancelled. Late replies to
    // the retired correlation id fall through on_reply's guards.
    if (via_hedge) {
      if (metrics_ != nullptr) metrics_->hedge_wins->inc();
    } else {
      if (metrics_ != nullptr) metrics_->hedge_cancels->inc();
    }
    // No-op if the hedge already resolved.
    reliability_->hedge_ids.erase(g.hedge_id);
  }
  if (ok) {
    latencies_.push_back(result.latency);
    if (metrics_ != nullptr) metrics_->get_latency->add(result.latency);
    // Karn's rule, conservatively: only a request served on its very
    // first transmission — no retry, no migration, no hedge — yields an
    // unambiguous round-trip sample. Zero-latency colocated serves never
    // crossed the wire and are excluded too.
    if (reliability_ != nullptr && g.transmissions == 1 && !g.hedged &&
        result.latency > 0.0) {
      reliability_->estimator.add_sample(result.latency);
      if (metrics_ != nullptr) metrics_->rtt_samples->inc();
    }
  } else {
    ++faults_;
    if (metrics_ != nullptr) metrics_->get_faults->inc();
  }
  if (g.done) g.done(result);
}

void Client::on_reply(const Message& m) {
  if (m.type == MsgType::kInsertAck) {
    PendingInsert* ins = inserts_.find(m.request_id);
    if (ins == nullptr) return;
    auto done = std::move(ins->done);
    inserts_.erase(m.request_id);
    if (done) done(true);
    return;
  }
  assert(m.type == MsgType::kGetReply || m.type == MsgType::kBusy);
  std::uint64_t id = m.request_id;
  bool hedge_leg = false;
  PendingGet* found = gets_.find(id);
  if (found == nullptr) {
    const std::uint64_t* primary =
        reliability_ != nullptr ? reliability_->hedge_ids.find(m.request_id)
                                : nullptr;
    if (primary == nullptr) return;  // late duplicate after completion
    id = *primary;
    hedge_leg = true;
    found = gets_.find(id);
    if (found == nullptr) {
      // The primary finished while this alias lingered; retire it.
      reliability_->hedge_ids.erase(m.request_id);
      return;
    }
  }
  PendingGet& g = *found;
  if (m.type == MsgType::kBusy) {
    if (metrics_ != nullptr) metrics_->busy_received->inc();
    if (hedge_leg && g.subtree_attempt != g.hedge_attempt) {
      // The shed hedge leg is abandoned; the primary leg keeps going.
      g.hedge_resolved = true;
      reliability_->hedge_ids.erase(m.request_id);
      return;
    }
    // The serving subtree refused us: migrate, but only after a backoff
    // so a loaded peer is not immediately hammered from the next angle.
    ++g.busy_bounces;
    migrate_get(id, found, m.hop_count, busy_delay(g), /*reset_retries=*/true);
    return;
  }
  if (m.ok) {
    finish_get(id, found, true, m.version, m.hop_count, hedge_leg);
    return;
  }
  if (hedge_leg && g.subtree_attempt != g.hedge_attempt) {
    // Definitive miss on the hedge leg while the primary still works an
    // earlier subtree: remember the answer, don't disturb the primary.
    g.hedge_resolved = true;
    reliability_->hedge_ids.erase(m.request_id);
    return;
  }
  // Definitive miss in that subtree: migrate to the next identifier.
  migrate_get(id, found, m.hop_count, 0.0, /*reset_retries=*/true);
}

void Client::insert(core::FileId file, core::Pid r, core::Pid at,
                    std::function<void(bool)> done) {
  const std::uint64_t id = next_id_++;
  PendingInsert pending{file, r, at, std::move(done), 0};
  inserts_.insert(id, std::move(pending));
  send_insert(id);
}

void Client::send_insert(std::uint64_t id) {
  PendingInsert* found = inserts_.find(id);
  if (found == nullptr) return;
  PendingInsert& ins = *found;
  Message m;
  m.request_id = id;
  m.type = MsgType::kInsertRequest;
  m.from = home_->pid();
  m.to = ins.at;
  m.requester = home_->pid();
  m.subject = ins.target;
  m.file = ins.file;
  network_->send(m);
  const int expected = ins.retries;
  network_->engine().after_fixed(cfg_.timeout, [this, id, expected] {
    PendingInsert* pending = inserts_.find(id);
    if (pending == nullptr) return;
    if (pending->retries != expected) return;
    if (pending->retries >= cfg_.max_retries) {
      auto done = std::move(pending->done);
      inserts_.erase(id);
      if (done) done(false);
      return;
    }
    ++pending->retries;
    send_insert(id);
  });
}

}  // namespace lesslog::proto
