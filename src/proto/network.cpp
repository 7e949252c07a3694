#include "lesslog/proto/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "lesslog/util/rng.hpp"

namespace lesslog::proto {

void NetworkConfig::validate() const {
  if (std::isnan(base_latency) || base_latency < 0.0) {
    throw std::invalid_argument(
        "NetworkConfig: base_latency must be non-negative");
  }
  if (std::isnan(jitter) || jitter < 0.0) {
    throw std::invalid_argument("NetworkConfig: jitter must be non-negative");
  }
  if (!(drop_probability >= 0.0 && drop_probability <= 1.0)) {
    throw std::invalid_argument(
        "NetworkConfig: drop_probability must be in [0, 1]");
  }
  if (std::isnan(link_stagger) || link_stagger < 0.0) {
    throw std::invalid_argument(
        "NetworkConfig: link_stagger must be non-negative");
  }
}

Network::Network(sim::Engine& engine, NetworkConfig cfg,
                 std::optional<PidSlice> slice)
    : engine_(&engine),
      cfg_(cfg),
      slice_(slice.value_or(PidSlice{})),
      bounded_(slice.has_value()) {
  cfg.validate();
  if (slice_.stride == 0) {
    throw std::invalid_argument("Network: PID slice stride must be positive");
  }
  handlers_.resize(slice_.count);
}

std::size_t Network::attach_slot(core::Pid pid) {
  if (!bounded_) {
    if (handlers_.size() <= pid.value()) handlers_.resize(pid.value() + 1u);
    return pid.value();
  }
  const std::size_t slot = slot_of(pid.value());
  if (slot == kNoSlot) {
    throw std::invalid_argument("Network: PID outside this network's slice");
  }
  return slot;
}

void Network::attach(core::Pid pid, Handler handler) {
  if (!handler) {  // a null std::function was always undeliverable
    detach(pid);
    return;
  }
  const std::size_t slot = attach_slot(pid);
  if (boxed_.size() <= slot) boxed_.resize(slot + 1u);
  boxed_[slot] = std::make_unique<Handler>(std::move(handler));
  handlers_[slot] = HandlerSlot{boxed_[slot].get(),
                                [](void* ctx, const Message& m) {
                                  (*static_cast<Handler*>(ctx))(m);
                                }};
}

void Network::attach_raw(core::Pid pid, void* ctx, RawHandler fn) {
  handlers_[attach_slot(pid)] = HandlerSlot{ctx, fn};
}

void Network::detach(core::Pid pid) {
  const std::size_t slot = slot_of(pid.value());
  if (slot == kNoSlot) return;
  handlers_[slot] = HandlerSlot{};
  if (slot < boxed_.size()) boxed_[slot].reset();
}

void Network::add_sink(obs::DeliverySink& sink) {
  if (std::find(sinks_.begin(), sinks_.end(), &sink) == sinks_.end()) {
    sinks_.push_back(&sink);
  }
}

void Network::remove_sink(obs::DeliverySink& sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), &sink),
               sinks_.end());
}

void Network::notify_peer_event(double time, core::Pid peer, bool live) {
  for (obs::DeliverySink* sink : sinks_) sink->on_peer(time, peer, live);
}

namespace {
/// Half-width of a cluster's square blob (Geography::clusters > 0).
constexpr double kClusterRadius = 0.04;
static_assert(kClusterRadius > 0.0);
}  // namespace

std::vector<std::pair<double, double>> make_coordinates(
    const Geography& geo) {
  std::vector<std::pair<double, double>> coords(geo.slots);
  util::Rng rng(geo.seed ^ 0x6E06'12A9ULL);
  if (geo.clusters == 0) {
    for (auto& [x, y] : coords) {
      x = rng.uniform01();
      y = rng.uniform01();
    }
    return coords;
  }
  // Clustered placement: PID-contiguous blocks around evenly spaced
  // centers. Two uniform draws per slot either way, and the uniform
  // branch above is untouched — clusters == 0 stays bit-identical to
  // the pre-cluster model.
  const std::uint32_t k = geo.clusters;
  const double two_pi = 2.0 * 3.14159265358979323846;
  std::vector<std::pair<double, double>> centers(k);
  for (std::uint32_t c = 0; c < k; ++c) {
    const double a = two_pi * static_cast<double>(c) /
                     static_cast<double>(k);
    centers[c] = {0.5 + 0.35 * std::cos(a), 0.5 + 0.35 * std::sin(a)};
  }
  const std::uint32_t block = (geo.slots + k - 1u) / k;
  for (std::uint32_t p = 0; p < geo.slots; ++p) {
    const auto [cx, cy] = centers[std::min(p / block, k - 1u)];
    coords[p] = {cx + (rng.uniform01() - 0.5) * 2.0 * kClusterRadius,
                 cy + (rng.uniform01() - 0.5) * 2.0 * kClusterRadius};
  }
  return coords;
}

void Network::enable_geography(const Geography& geo) {
  assert(geo.slots > 0 && geo.latency_per_unit >= 0.0);
  geo_ = geo;
  coords_ = make_coordinates(geo);
}

double Network::distance(core::Pid a, core::Pid b) const {
  assert(!coords_.empty());
  assert(a.value() < coords_.size() && b.value() < coords_.size());
  const auto [ax, ay] = coords_[a.value()];
  const auto [bx, by] = coords_[b.value()];
  const double dx = ax - bx;
  const double dy = ay - by;
  return std::sqrt(dx * dx + dy * dy);
}

double Network::link_latency(core::Pid a, core::Pid b) const {
  const double geographic =
      coords_.empty() ? 0.0 : distance(a, b) * geo_.latency_per_unit;
  return cfg_.base_latency + geographic;
}

double Network::link_stagger(core::Pid a, core::Pid b) const noexcept {
  if (cfg_.link_stagger == 0.0) return 0.0;
  // SplitMix64 finalizer over the ordered pair: a fixed, well-mixed
  // fraction per directed link, consuming no RNG stream.
  std::uint64_t x = (std::uint64_t{a.value()} << 32) | b.value();
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return cfg_.link_stagger * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

void Network::DeliveryEvent::prefetch(int stage) const noexcept {
  const std::size_t to = net->slot_of(wire_to(wire));
  if (to == kNoSlot) return;
  const HandlerSlot& slot = net->handlers_[to];
  if (stage == 0) {
    __builtin_prefetch(&slot);
    return;
  }
  if (slot.ctx != nullptr) {
    __builtin_prefetch(slot.ctx);
    __builtin_prefetch(static_cast<const char*>(slot.ctx) + 64);
  }
}

void Network::send(const Message& m) {
  static_assert(sim::InplaceEvent::stored_inline<DeliveryEvent>(),
                "the per-message delivery event must fit the event "
                "queue's inline buffer (allocation-free wire path)");
  static_assert(sim::InplaceEvent::kHasPrefetch<DeliveryEvent>,
                "the delivery event declares the queue's lookahead hook");
  ++messages_sent_;
  DeliveryEvent ev{this, {}};
  encode_into(m, ev.wire);
  bytes_sent_ += static_cast<std::int64_t>(kWireSize);
  if (metrics_ != nullptr) {
    metrics_->out_for(m.type).inc();
    metrics_->bytes_out->add(kWireSize);
  }
  if (cfg_.drop_probability > 0.0 &&
      engine_->rng().bernoulli(cfg_.drop_probability)) {
    ++dropped_;
    if (metrics_ != nullptr) metrics_->dropped->inc();
    return;
  }
  const double latency =
      (coords_.empty() ? cfg_.base_latency : link_latency(m.from, m.to)) +
      link_stagger(m.from, m.to) +
      (cfg_.jitter > 0.0 ? engine_->rng().uniform01() * cfg_.jitter : 0.0);
  if (injector_ == nullptr) {
    if (forward_ != nullptr) {
      // Shard-boundary accounting only when a hook is installed (S > 1),
      // so serial and single-shard snapshots stay byte-identical.
      if (forward_(m.to, engine_->now() + latency, ev.wire)) {
        if (metrics_ != nullptr) metrics_->cross_shard_msgs->inc();
        return;  // crossed a shard boundary; delivered at the next barrier
      }
      if (metrics_ != nullptr) metrics_->intra_shard_msgs->inc();
    }
    if (cfg_.jitter == 0.0 && coords_.empty() && cfg_.link_stagger == 0.0) {
      // Deterministic flat-latency link: every delivery shares the one
      // constant delay, so the O(1) FIFO lane replaces a wheel insertion
      // (and its lazy bucket sort). Same (time, seq) key either way —
      // execution order is identical, only admission cost changes.
      engine_->after_fixed(cfg_.base_latency, std::move(ev));
    } else {
      engine_->after(latency, std::move(ev));
    }
    return;
  }
  send_faulty(m, ev, latency);
}

void Network::deliver_at(double at, const WireBuffer& wire) {
  engine_->at(at, DeliveryEvent{this, wire});
}

void Network::deliver_batch(const double* times, const WireBuffer* wires,
                            std::size_t n) {
  engine_->queue().schedule_batch(
      n, [times](std::size_t i) { return times[i]; },
      [this, wires](std::size_t i, sim::EventFn& slot) {
        slot.emplace(DeliveryEvent{this, wires[i]});
      });
}

void Network::send_faulty(const Message& m, DeliveryEvent& ev,
                          double latency) {
  // The injector pipeline. Every datagram handed to send() terminates as
  // exactly one of: partition_dropped, burst_dropped, corrupted,
  // undeliverable, or delivered — plus `duplicated` extra copies that
  // each terminate the same way. That exhaustiveness is what makes the
  // auditor's counter-reconciliation invariant hold at quiescence.
  if (injector_->partition_blocks(m.from, m.to)) {
    if (metrics_ != nullptr) metrics_->injected_partition_drops->inc();
    return;
  }
  const int copies = injector_->duplicate() ? 2 : 1;
  if (copies > 1 && metrics_ != nullptr) metrics_->injected_duplicates->inc();
  for (int c = 0; c < copies; ++c) {
    if (injector_->burst_drop(m.from, m.to)) {
      if (metrics_ != nullptr) metrics_->injected_burst_drops->inc();
      continue;
    }
    DeliveryEvent copy = ev;
    if (injector_->corrupt(copy.wire)) {
      if (metrics_ != nullptr) metrics_->injected_corruptions->inc();
    }
    const double spike = injector_->delay_spike();
    if (spike > 0.0 && metrics_ != nullptr) {
      metrics_->injected_delay_spikes->inc();
    }
    // The first copy reuses send()'s latency draw (so an empty plan's
    // timing would be unchanged); a duplicate gets its own jitter from
    // the injector's stream to land at a distinct time.
    const double base =
        (coords_.empty() ? cfg_.base_latency : link_latency(m.from, m.to)) +
        link_stagger(m.from, m.to);
    const double copy_latency =
        (c == 0 ? latency : base + injector_->jitter(cfg_.jitter)) + spike;
    if (forward_ != nullptr) {
      if (forward_(m.to, engine_->now() + copy_latency, copy.wire)) {
        if (metrics_ != nullptr) metrics_->cross_shard_msgs->inc();
        continue;
      }
      if (metrics_ != nullptr) metrics_->intra_shard_msgs->inc();
    }
    engine_->after(copy_latency, std::move(copy));
  }
}

void Network::install_fault_plan(const FaultPlan& plan) {
  plan.validate();
  injector_ = std::make_unique<FaultInjector>(plan);
  FaultInjector* inj = injector_.get();
  const double now = engine_->now();
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    const FaultRule& r = plan.rules[i];
    if (r.start <= now) {
      inj->activate(i);
    } else {
      engine_->at(r.start, [inj, i] { inj->activate(i); });
    }
    // Rules healing at infinity never deactivate; scheduling an event at
    // t = inf would keep the engine from ever draining.
    if (std::isfinite(r.stop)) {
      engine_->at(r.stop, [inj, i] { inj->deactivate(i); });
    }
  }
}

void Network::deliver(const WireBuffer& wire) {
  const std::optional<Message> delivered = decode(wire);
  if (!delivered.has_value()) {
    // Corrupted in flight: the wire image no longer decodes. Counted and
    // dropped — the receiver never sees it (the client's timeout/retry
    // machinery recovers, same as a loss).
    ++corrupted_;
    if (metrics_ != nullptr) metrics_->corrupted->inc();
    return;
  }
  const std::size_t to = slot_of(delivered->to.value());
  if (to == kNoSlot || handlers_[to].fn == nullptr) {
    ++undeliverable_;
    if (metrics_ != nullptr) metrics_->undeliverable->inc();
    return;
  }
  ++delivered_;
  if (metrics_ != nullptr) {
    metrics_->delivered->inc();
    metrics_->in_for(delivered->type).inc();
  }
  // Sinks observe the datagram at delivery time, before the handler — so
  // a trace's record order matches the order handlers fired in.
  for (obs::DeliverySink* sink : sinks_) {
    sink->on_deliver(engine_->now(), *delivered);
  }
  const HandlerSlot h = handlers_[to];
  h.fn(h.ctx, *delivered);
}

}  // namespace lesslog::proto
