// Simulated datagram network.
//
// Delivers Messages between peers through the discrete-event engine with
// configurable one-way latency (base + uniform jitter) and an optional
// drop probability for fault injection. Accounting (messages, bytes,
// drops) feeds the latency/overhead benches. Delivery is best-effort and
// unordered, like UDP — the client layer owns timeouts and retries.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lesslog/obs/sink.hpp"
#include "lesslog/proto/fault.hpp"
#include "lesslog/proto/message.hpp"
#include "lesslog/sim/engine.hpp"

namespace lesslog::proto {

struct NetworkConfig {
  double base_latency = 0.010;   ///< seconds, one way
  double jitter = 0.005;         ///< uniform in [0, jitter) added per hop
  double drop_probability = 0.0; ///< per-message loss
  /// Deterministic per-link latency spread: link (a, b) gains a fixed
  /// extra delay in [0, link_stagger), a pure hash of the ordered pair —
  /// no RNG stream is consumed. With jitter == 0 every link would share
  /// one constant latency and concurrent fan-outs (SWIM's ping-req) land
  /// at a single destination at the *same* timestamp; the tie order then
  /// depends on queue seq assignment, which differs between a serial run
  /// and a sharded drain. A per-link stagger makes arrival times on
  /// distinct links distinct by construction, so the delivery order is a
  /// pure function of time — identical at any shard count. The SWIM
  /// chaos driver enables this; everything else defaults to 0 (off).
  double link_stagger = 0.0;

  /// Throws std::invalid_argument on nonsense (drop_probability outside
  /// [0, 1], negative or non-finite latency/jitter). Called by the
  /// Network constructor, so a misconfigured network cannot be built.
  void validate() const;
};

/// Optional geographic model: nodes get coordinates in the unit square
/// and the one-way latency of a link becomes
/// base_latency + euclidean_distance * latency_per_unit (+ jitter).
/// LessLog's routing is proximity-oblivious, so this model is what the
/// stretch ablation measures against.
///
/// With clusters == 0 (the default) every slot draws an independent
/// uniform position — the original model, bit-identical draws. With
/// clusters == k > 0 the ID space splits into k PID-contiguous blocks;
/// block i's nodes land in a square blob of half-width 0.04 around
/// center i, and the k centers sit evenly spaced on a circle of
/// radius 0.35 about (0.5, 0.5) — deterministically separated, so a
/// range-sharded swarm whose shards align with the blocks gets a
/// strictly positive pairwise distance floor (the adaptive lookahead's
/// fuel).
struct Geography {
  std::uint32_t slots = 0;          ///< ID-space size (coordinate count)
  std::uint64_t seed = 1;           ///< placement seed
  double latency_per_unit = 0.060;  ///< seconds across one unit of distance
  std::uint32_t clusters = 0;       ///< 0 = uniform; k = PID-block blobs
};

/// The coordinate table a Network with this Geography uses — exposed so
/// the sharded swarm can derive pairwise latency floors from the same
/// placement without building a Network first (single source of truth).
[[nodiscard]] std::vector<std::pair<double, double>> make_coordinates(
    const Geography& geo);

class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  /// Bare receive handler: `ctx` is whatever the owner registered (for a
  /// peer, the Peer itself). The hot-path form of Handler — one indirect
  /// call, no type-erasure trampoline.
  using RawHandler = void (*)(void* ctx, const Message&);

  /// Cross-shard hook: called with (destination PID, absolute delivery
  /// time, wire image) right before a delivery event would be scheduled.
  /// Returning true means the datagram was taken (the destination lives
  /// on another shard and the image went into a mailbox); false falls
  /// through to the local engine. With no hook installed the send path
  /// is exactly the single-engine code (one null check).
  using ForwardFn =
      std::function<bool(core::Pid, double, const WireBuffer&)>;

  Network(sim::Engine& engine, NetworkConfig cfg);

  /// Registers the receive handler for a PID. One handler per PID; later
  /// registrations replace earlier ones (a rejoining peer re-registers).
  void attach(core::Pid pid, Handler handler);

  /// Raw-handler form of attach(): registers a bare (context, function
  /// pointer) pair. Same one-handler-per-PID replace semantics; this is
  /// what peers use, so the per-delivery dispatch is a 16-byte table slot
  /// and a single indirect call.
  void attach_raw(core::Pid pid, void* ctx, RawHandler fn);

  /// Removes a peer's handler; in-flight messages to it are dropped on
  /// arrival (counted as undeliverable, like a crashed host).
  void detach(core::Pid pid);

  /// Sends m to m.to. The message is encoded and decoded across the
  /// simulated wire, so only what the format carries arrives. The wire
  /// image travels inline inside the scheduled delivery event, so the
  /// steady-state per-message path performs no heap allocation.
  void send(const Message& m);

  /// Switches to distance-based link latency (see Geography).
  void enable_geography(const Geography& geo);

  /// Installs (or clears, with nullptr) the cross-shard forwarding hook.
  /// Installed by proto::ShardedSwarm on every shard network when S > 1.
  void set_forward(ForwardFn fn) { forward_ = std::move(fn); }

  /// Schedules the arrival half of send() at absolute time `at`: the
  /// shard router's barrier-drain path hands over datagrams that crossed
  /// shards. The sender already drew latency (and ran the fault
  /// pipeline) on its own shard, so arrival is all that remains.
  void deliver_at(double at, const WireBuffer& wire);

  /// Batch form of deliver_at(): schedules arrivals (times[i], wires[i])
  /// for i in [0, n) as one contiguous run through the event queue's
  /// batch-admission path — the shard router hands over a whole
  /// (source, destination) mailbox per call. Index order is preserved,
  /// so the merged event order matches n deliver_at() calls exactly.
  void deliver_batch(const double* times, const WireBuffer* wires,
                     std::size_t n);

  /// Installs a fault plan (replacing any previous one): validates it,
  /// creates the injector, and schedules every rule's activation and heal
  /// through the event engine, so the whole fault schedule replays
  /// bit-identically from (engine seed, plan). With no plan installed the
  /// send path is exactly the pre-fault-model code (one null check).
  void install_fault_plan(const FaultPlan& plan);

  /// The installed injector (nullptr when no plan was installed). The
  /// chaos auditor reads stats() and reachability from here.
  [[nodiscard]] const FaultInjector* fault_injector() const noexcept {
    return injector_.get();
  }

  /// Registers an observer notified (in registration order) about every
  /// delivered datagram, at delivery time, before the receiving handler
  /// runs. The network is the single delivery funnel, so sinks see peers
  /// that attach at any later time too. The sink must stay alive until
  /// removed (or the network is destroyed).
  void add_sink(obs::DeliverySink& sink);
  void remove_sink(obs::DeliverySink& sink);

  /// Fans a membership event out to every sink (called by the swarm from
  /// join / depart / crash).
  void notify_peer_event(double time, core::Pid peer, bool live);

  /// Points the send/deliver accounting at pre-resolved metric cells
  /// (nullptr detaches). A delivery bumps `delivered` and its type's
  /// msgs_in cell before any sink sees it.
  void set_metrics(const obs::WireMetrics* metrics) noexcept {
    metrics_ = metrics;
  }

  /// Euclidean distance between two nodes' coordinates. Precondition:
  /// geography enabled and both PIDs within its slot count.
  [[nodiscard]] double distance(core::Pid a, core::Pid b) const;

  /// One-way latency of the (a, b) link excluding jitter.
  [[nodiscard]] double link_latency(core::Pid a, core::Pid b) const;

  /// The deterministic per-link extra delay (see NetworkConfig::
  /// link_stagger); 0 when the knob is off.
  [[nodiscard]] double link_stagger(core::Pid a, core::Pid b) const noexcept;

  [[nodiscard]] std::int64_t messages_sent() const noexcept {
    return messages_sent_;
  }
  [[nodiscard]] std::int64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::int64_t undeliverable() const noexcept {
    return undeliverable_;
  }
  /// Datagrams handed to an attached handler.
  [[nodiscard]] std::int64_t delivered() const noexcept { return delivered_; }
  /// Datagrams whose wire image failed to decode on arrival (fault
  /// injection corrupts in flight; the decode-reject path counts here).
  [[nodiscard]] std::int64_t corrupted() const noexcept { return corrupted_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }

 private:
  /// The typed per-message event: carries the encoded bytes by value so
  /// nothing is heap-captured. Sized (pointer + kWireSize bytes) to fit
  /// the event queue's inline buffer — static_assert-ed in network.cpp.
  struct DeliveryEvent {
    Network* net;
    WireBuffer wire;
    void operator()() const { net->deliver(wire); }
    /// The event queue's lookahead hook (sim::InplaceEvent): stage 0
    /// prefetches the destination's dispatch slot, stage 1 the first two
    /// cache lines of the context that slot names (the receiving peer).
    /// Reads only the owning network's table; writes nothing.
    void prefetch(int stage) const noexcept;
  };

  /// Arrival half of send(): decode and dispatch to the target handler.
  void deliver(const WireBuffer& wire);

  /// Slow path of send(), entered only when a fault plan is installed:
  /// runs the datagram through the injector pipeline (partition, dup,
  /// burst loss, corruption, delay spike) and schedules surviving copies.
  void send_faulty(const Message& m, DeliveryEvent& ev, double latency);

  /// One dispatch-table slot: fn == nullptr means detached. Half the size
  /// of a std::function and invoked without its trampoline.
  struct HandlerSlot {
    void* ctx = nullptr;
    RawHandler fn = nullptr;
  };

  sim::Engine* engine_;
  NetworkConfig cfg_;
  Geography geo_;
  std::vector<std::pair<double, double>> coords_;  // empty = flat latency
  std::vector<HandlerSlot> handlers_;  // indexed by PID
  /// Heap boxes backing std::function handlers registered through the
  /// general attach() (tests, ad-hoc observers): the slot's ctx points at
  /// the box and fn is a stateless shim that invokes it. unique_ptr keeps
  /// the address stable across table growth.
  std::vector<std::unique_ptr<Handler>> boxed_;
  ForwardFn forward_;  // null = every destination is local (serial mode)
  std::vector<obs::DeliverySink*> sinks_;
  const obs::WireMetrics* metrics_ = nullptr;
  std::unique_ptr<FaultInjector> injector_;  // null = clean fast path
  std::int64_t messages_sent_ = 0;
  std::int64_t bytes_sent_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t undeliverable_ = 0;
  std::int64_t delivered_ = 0;
  std::int64_t corrupted_ = 0;
};

}  // namespace lesslog::proto
