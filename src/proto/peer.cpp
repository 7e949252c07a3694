#include "lesslog/proto/peer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "lesslog/core/children_list.hpp"
#include "lesslog/core/replication.hpp"
#include "lesslog/util/hashing.hpp"

namespace lesslog::proto {

namespace {
// Reliable-push retransmit policy (Section 5 data motion): a fixed timer
// on the event queue's FIFO-lane fast path.
constexpr double kPushTimeout = 0.3;  ///< seconds before a push retransmit
constexpr int kPushMaxRetries = 5;    ///< retransmissions before dropping
static_assert(kPushTimeout > 0.0 && kPushMaxRetries >= 0);
}  // namespace

void PeerConfig::validate() const {
  if (busy_budget < 0) {
    throw std::invalid_argument(
        "PeerConfig: busy_budget must be non-negative");
  }
  if (std::isnan(busy_refill) || busy_refill < 0.0) {
    throw std::invalid_argument(
        "PeerConfig: busy_refill must be non-negative");
  }
  if (busy_budget > 0 && busy_refill <= 0.0) {
    throw std::invalid_argument(
        "PeerConfig: a positive busy_budget needs a positive busy_refill "
        "(a bucket that never refills sheds forever)");
  }
}

Peer::Peer(core::Pid pid, int b, util::StatusWord initial_status,
           Network& network, PeerConfig cfg)
    : Peer(pid, b, util::CowStatus(std::move(initial_status)), network,
           cfg) {}

Peer::Peer(core::Pid pid, int b, util::CowStatus initial_status,
           Network& network, PeerConfig cfg)
    : pid_(pid), b_(b), view_(&oracle_),
      oracle_(std::move(initial_status)), network_(&network), cfg_(cfg),
      busy_tokens_(static_cast<double>(cfg.busy_budget)),
      // Stripe push ids per peer so concurrent pushes never collide.
      next_push_id_((std::uint64_t{0xF11EULL} << 48) |
                    (std::uint64_t{pid.value()} << 20)) {
  cfg_.validate();
  assert(b_ >= 0 && b_ < status().width());
}

void Peer::attach() {
  // Raw registration: the dispatch slot is (this, shim) — per delivery
  // the network makes one indirect call straight into handle().
  network_->attach_raw(pid_, this, [](void* ctx, const Message& m) {
    static_cast<Peer*>(ctx)->handle(m);
  });
}

void Peer::detach() { network_->detach(pid_); }

void Peer::rejoin(util::CowStatus fresh_status) {
  view_->reset(std::move(fresh_status));
  store_ = core::FileStore{};
  cold_.reset();  // stale push timers find nothing: no-ops
  served_ = 0;
  forwarded_ = 0;
  // A rejoined node starts with a full service budget.
  busy_tokens_ = static_cast<double>(cfg_.busy_budget);
  busy_last_refill_ = network_->engine().now();
  attach();
}

Peer::Cold& Peer::cold() {
  if (cold_ == nullptr) cold_ = std::make_unique<Cold>();
  return *cold_;
}

void Peer::handle(const Message& m) {
  assert(m.to == pid_);
  switch (m.type) {
    case MsgType::kGetRequest: on_get(m); return;
    case MsgType::kInsertRequest: on_insert(m); return;
    case MsgType::kCreateReplica: on_create_replica(m); return;
    case MsgType::kUpdatePush: on_update(m); return;
    case MsgType::kStatusAnnounce: on_status(m); return;
    case MsgType::kFilePush: on_file_push(m); return;
    case MsgType::kFilePushAck: on_push_ack(m); return;
    case MsgType::kReclaim: on_reclaim(m); return;
    case MsgType::kGetReply:
    case MsgType::kInsertAck:
    case MsgType::kBusy:
      if (reply_sink_) reply_sink_(m);
      return;
    case MsgType::kPing:
    case MsgType::kPingAck:
    case MsgType::kPingReq:
      // SWIM probe traffic belongs to the colocated membership runtime;
      // without one (oracle mode) the datagram is silently dropped.
      if (membership_fn_ != nullptr) membership_fn_(membership_ctx_, m);
      return;
  }
}

core::Pid Peer::target_of(core::FileId f) const noexcept {
  return core::Pid{util::psi_u64(f.key(), status().width())};
}

std::optional<core::Pid> Peer::next_hop(core::Pid r) const {
  const util::StatusWord& st = status();
  const core::LookupTree tree(st.width(), r);
  const core::SubtreeView view(tree, b_);
  if (const std::optional<core::Pid> up =
          view.first_alive_subtree_ancestor(pid_, st)) {
    return up;
  }
  // Every subtree ancestor is dead; the original copy (if any) lives at
  // the subtree's stand-in holder. Forwarding to ourselves would loop.
  const std::uint32_t sid = view.subtree_id(pid_);
  if (!st.is_live(view.subtree_root(sid).value())) {
    const std::optional<core::Pid> stand_in =
        view.insertion_target(sid, st);
    if (stand_in.has_value() && *stand_in != pid_) return stand_in;
  }
  return std::nullopt;
}

bool Peer::admit_get() {
  const double now = network_->engine().now();
  const double budget = static_cast<double>(cfg_.busy_budget);
  busy_tokens_ = std::min(
      budget, busy_tokens_ + (now - busy_last_refill_) * cfg_.busy_refill);
  busy_last_refill_ = now;
  if (busy_tokens_ < 1.0) return false;
  busy_tokens_ -= 1.0;
  return true;
}

void Peer::reply_busy(const Message& request) {
  Message reply;
  reply.request_id = request.request_id;
  reply.type = MsgType::kBusy;
  reply.from = pid_;
  reply.to = request.requester;
  reply.requester = request.requester;
  reply.subject = request.subject;
  reply.file = request.file;
  reply.hop_count = request.hop_count;
  reply.ok = false;
  if (request.requester == pid_) {
    if (reply_sink_) reply_sink_(reply);
    return;
  }
  network_->send(reply);
}

void Peer::on_get(const Message& m) {
  if (cfg_.busy_budget > 0 && !admit_get()) {
    // Over the service budget: refuse loudly instead of queueing into a
    // requester-side timeout. The requester migrates with backoff.
    if (metrics_ != nullptr) metrics_->busy_shed->inc();
    reply_busy(m);
    return;
  }
  if (const std::optional<std::uint64_t> version = store_.serve(m.file)) {
    ++served_;
    if (metrics_ != nullptr) metrics_->served->inc();
    reply_get(m, /*ok=*/true, *version);
    return;
  }
  // Hop-count fence: forwarding ascends strictly in subtree VID plus at
  // most one stand-in jump, so anything past m + 1 hops means stale
  // status words have produced a cycle; fail fast instead of looping.
  if (m.hop_count > static_cast<std::uint8_t>(status().width() + 1)) {
    reply_get(m, /*ok=*/false, 0);
    return;
  }
  const std::optional<core::Pid> next = next_hop(m.subject);
  if (!next.has_value()) {
    reply_get(m, /*ok=*/false, 0);
    return;
  }
  ++forwarded_;
  if (metrics_ != nullptr) metrics_->forwarded->inc();
  Message fwd = m;
  fwd.from = pid_;
  fwd.to = *next;
  ++fwd.hop_count;
  network_->send(fwd);
}

void Peer::reply_get(const Message& request, bool ok, std::uint64_t version) {
  Message reply;
  reply.request_id = request.request_id;
  reply.type = MsgType::kGetReply;
  reply.from = pid_;
  reply.to = request.requester;
  reply.requester = request.requester;
  reply.subject = request.subject;
  reply.file = request.file;
  reply.version = version;
  reply.hop_count = request.hop_count;
  reply.ok = ok;
  // The requester's client is colocated with its peer: a reply to
  // ourselves is a local upcall, not a datagram.
  if (request.requester == pid_) {
    if (reply_sink_) reply_sink_(reply);
    return;
  }
  network_->send(reply);
}

void Peer::on_insert(const Message& m) {
  store_.put_inserted(m.file, m.version);
  Message ack;
  ack.request_id = m.request_id;
  ack.type = MsgType::kInsertAck;
  ack.from = pid_;
  ack.to = m.requester;
  ack.requester = m.requester;
  ack.file = m.file;
  ack.ok = true;
  network_->send(ack);
}

void Peer::on_create_replica(const Message& m) {
  store_.put_replica(m.file, m.version);
}

void Peer::on_update(const Message& m) {
  // Non-holders prune the broadcast (paper: "Otherwise, the child node
  // discards the request."). The push's origin always holds the file.
  if (!store_.apply_update(m.file, m.version)) return;
  const util::StatusWord& st = status();
  const core::LookupTree tree(st.width(), m.subject);
  const core::SubtreeView view(tree, b_);
  for (const core::Pid child : view.children_list(pid_, st)) {
    Message push = m;
    push.from = pid_;
    push.to = child;
    ++push.hop_count;
    network_->send(push);
  }
  // A stand-in for a dead subtree root also covers the replicas hanging
  // off the dead root's children list (the proportional placements).
  const std::uint32_t sid = view.subtree_id(pid_);
  const core::Pid sub_root = view.subtree_root(sid);
  if (pid_ != sub_root && !st.is_live(sub_root.value()) &&
      !view.live_vid_above(pid_, st)) {
    for (const core::Pid child : view.children_list(sub_root, st)) {
      if (child == pid_) continue;
      Message push = m;
      push.from = pid_;
      push.to = child;
      ++push.hop_count;
      network_->send(push);
    }
  }
}

void Peer::on_status(const Message& m) {
  if (m.ok) {
    learn_live(m.subject);
  } else {
    learn_dead(m.subject);
  }
}

void Peer::learn_live(core::Pid subject) {
  // believe_live is a check-before-mutate no-op when the bit is already
  // set: a redundant announcement must not clone a shared snapshot — at
  // scale most peers never diverge from the swarm-wide construction
  // snapshot at all.
  view_->believe_live(subject.value());
}

void Peer::learn_dead(core::Pid subject) {
  // snapshot() is O(1): it aliases the current bits, and the mutation
  // below copies-on-write precisely because the snapshot references them.
  // Recovery runs even for a redundant death notice — re-running against
  // an unchanged word finds nothing to push, and keeping the call
  // unconditional pins the pre-seam message schedule bit for bit.
  const util::CowStatus before = view_->snapshot();
  view_->believe_dead(subject.value());
  recover_after_crash(subject, before.read());
}

void Peer::recover_after_crash(core::Pid crashed,
                               const util::StatusWord& before) {
  if (b_ == 0) return;  // nothing to pull from without sibling subtrees
  const util::StatusWord& st = status();
  for (const core::FileId f : store_.inserted_files()) {
    const core::LookupTree tree(st.width(), target_of(f));
    const core::SubtreeView view(tree, b_);
    const std::uint32_t lost_sid = view.subtree_id(crashed);
    if (view.insertion_target(lost_sid, before) != crashed) continue;
    const std::optional<core::Pid> new_holder =
        view.insertion_target(lost_sid, st);
    if (!new_holder.has_value()) continue;  // subtree emptied out
    // Deterministic designation: the holder of the first non-empty sibling
    // subtree after the lost one performs the re-insert; every live node
    // computes the same designation from its status word.
    std::optional<core::Pid> designated;
    for (std::uint32_t step = 1; step < view.subtree_count(); ++step) {
      const std::uint32_t sid =
          (lost_sid + step) % view.subtree_count();
      designated = view.insertion_target(sid, st);
      if (designated.has_value()) break;
    }
    if (designated != pid_) continue;
    const auto info = store_.info(f);
    push_file(f, info.has_value() ? info->version : 0, *new_holder);
  }
}

void Peer::on_file_push(const Message& m) {
  // Idempotent store plus an ack so the sender can stop retransmitting.
  store_.put_inserted(m.file, m.version);
  Message ack;
  ack.request_id = m.request_id;
  ack.type = MsgType::kFilePushAck;
  ack.from = pid_;
  ack.to = m.from;
  ack.requester = m.requester;
  ack.file = m.file;
  ack.ok = true;
  network_->send(ack);
}

void Peer::on_push_ack(const Message& m) {
  if (cold_ != nullptr) cold_->pending_pushes.erase(m.request_id);
}

void Peer::on_reclaim(const Message& m) {
  // The reclaim may race ahead of the joiner's status announcement;
  // learning "X is live" from X's own reclaim message is sound.
  learn_live(m.subject);
  const util::StatusWord& st = status();
  for (const core::FileId f : store_.inserted_files()) {
    const core::LookupTree tree(st.width(), target_of(f));
    const core::SubtreeView view(tree, b_);
    const std::uint32_t my_sid = view.subtree_id(pid_);
    if (view.subtree_id(m.subject) != my_sid) continue;
    if (view.insertion_target(my_sid, st) != m.subject) continue;
    // The joiner is now this subtree's authoritative holder: move the
    // inserted copy over (the paper "copies f back to P(k)"; moving keeps
    // a single authoritative copy per subtree).
    const auto info = store_.info(f);
    push_file(f, info.has_value() ? info->version : 0, m.subject);
    store_.erase(f);
  }
}

void Peer::push_file(core::FileId f, std::uint64_t version, core::Pid to) {
  Message push;
  push.request_id = next_push_id_++;
  push.type = MsgType::kFilePush;
  push.from = pid_;
  push.to = to;
  push.requester = pid_;
  push.subject = target_of(f);
  push.file = f;
  push.version = version;
  push.ok = true;
  // Every kFilePush is membership repair traffic (reclaim, graceful
  // leave, crash recovery) — the chaos bench reports this as repair cost.
  if (metrics_ != nullptr) metrics_->repair_pushes->inc();
  cold().pending_pushes.insert(push.request_id, PendingPush{push, 0, 0});
  transmit_push(push.request_id);
}

void Peer::transmit_push(std::uint64_t id) {
  PendingPush* pending = find_push(id);
  if (pending == nullptr) return;
  network_->send(pending->msg);
  const int generation = ++pending->generation;
  network_->engine().after_fixed(kPushTimeout, [this, id, generation] {
    PendingPush* entry = find_push(id);
    if (entry == nullptr) return;  // acked
    if (entry->generation != generation) return;  // stale timer
    if (entry->retries >= kPushMaxRetries) {
      // Out of budget: drop the transfer. The next membership event (or
      // the System-level bookkeeping in tests) re-detects the gap.
      cold_->pending_pushes.erase(id);
      return;
    }
    ++entry->retries;
    if (metrics_ != nullptr) metrics_->push_retries->inc();
    transmit_push(id);
  });
}

void Peer::reset_window() noexcept {
  served_ = 0;
  forwarded_ = 0;
  store_.reset_access_counts();
}

std::optional<core::Pid> Peer::shed_hottest() {
  // Locally hottest file since the last window reset.
  std::optional<core::FileId> hottest;
  std::uint64_t hottest_count = 0;
  const auto consider = [&](core::FileId f) {
    const auto info = store_.info(f);
    if (info.has_value() && info->access_count > hottest_count) {
      hottest_count = info->access_count;
      hottest = f;
    }
  };
  for (const core::FileId f : store_.inserted_files()) consider(f);
  for (const core::FileId f : store_.replica_files()) consider(f);
  if (!hottest.has_value()) return std::nullopt;

  const util::StatusWord& st = status();
  const core::LookupTree tree(st.width(), target_of(*hottest));
  std::vector<core::Pid>& mine = cold().placed[*hottest];
  const core::HoldsCopyFn holds = [this, &mine](core::Pid p) {
    if (p == pid_) return true;
    return std::find(mine.begin(), mine.end(), p) != mine.end();
  };

  std::optional<core::Pid> target;
  if (b_ == 0) {
    const std::optional<core::Placement> placement = core::replicate_target(
        tree, pid_, st, holds, network_->engine().rng());
    if (placement.has_value()) target = placement->target;
  } else {
    const core::SubtreeView view(tree, b_);
    target = view.replicate_target(pid_, st, holds,
                                   network_->engine().rng());
  }
  if (!target.has_value()) return std::nullopt;
  mine.push_back(*target);

  Message create;
  create.type = MsgType::kCreateReplica;
  create.from = pid_;
  create.to = *target;
  create.requester = pid_;
  create.subject = target_of(*hottest);
  create.file = *hottest;
  const auto info = store_.info(*hottest);
  create.version = info.has_value() ? info->version : 0;
  create.ok = true;
  network_->send(create);
  return target;
}

void Peer::graceful_leave() {
  util::StatusWord without_me = status();
  without_me.set_dead(pid_.value());
  for (const core::FileId f : store_.inserted_files()) {
    const core::LookupTree tree(without_me.width(), target_of(f));
    const core::SubtreeView view(tree, b_);
    const std::optional<core::Pid> new_holder =
        view.insertion_target(view.subtree_id(pid_), without_me);
    if (!new_holder.has_value()) continue;  // last node of the subtree
    const auto info = store_.info(f);
    push_file(f, info.has_value() ? info->version : 0, *new_holder);
  }
  store_ = core::FileStore{};  // replicas are discarded with the node
}

}  // namespace lesslog::proto
