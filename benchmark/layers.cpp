#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "lesslog/baseline/policy.hpp"
#include "lesslog/core/file_store.hpp"
#include "lesslog/core/find_live_node.hpp"
#include "lesslog/core/lookup_tree.hpp"
#include "lesslog/core/replication.hpp"
#include "lesslog/proto/network.hpp"
#include "lesslog/proto/shard_router.hpp"
#include "lesslog/sim/engine.hpp"
#include "lesslog/sim/experiment.hpp"
#include "lesslog/util/bits.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::benchmark {

namespace {

constexpr int kReps = 5;
constexpr int kOps = 1 << 16;

core::Pid random_pid(util::Rng& rng, int m) {
  return core::Pid{static_cast<std::uint32_t>(rng.bounded(util::space_size(m)))};
}

double time_find_live(int m, const util::StatusWord& live, util::Rng& rng) {
  std::vector<core::LookupTree> trees;
  for (int i = 0; i < 1024; ++i) trees.emplace_back(m, random_pid(rng, m));
  return ns_per_op(kReps, kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      const std::optional<core::Pid> p =
          core::insertion_target(trees[static_cast<std::size_t>(i) & 1023u],
                                 live);
      keep(p);
    }
  });
}

double time_replicate_target(int m, const util::StatusWord& live,
                             util::Rng& rng) {
  const core::LookupTree tree(m, random_pid(rng, m));
  std::vector<std::uint8_t> holds(util::space_size(m), 0);
  holds[tree.root().value()] = 1;
  for (int i = 0; i < 16; ++i) holds[random_pid(rng, m).value()] = 1;
  const core::HoldsCopyFn holds_copy = [&holds](core::Pid p) {
    return holds[p.value()] != 0;
  };
  std::vector<core::Pid> overloaded;
  for (int i = 0; i < 1024; ++i) overloaded.push_back(random_pid(rng, m));
  constexpr int kCalls = 1 << 12;
  return ns_per_op(kReps, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      const auto placement = core::replicate_target(
          tree, overloaded[static_cast<std::size_t>(i) & 1023u], live,
          holds_copy, rng);
      keep(placement);
    }
  });
}

void time_filestore(std::size_t size, LayerCosts& out) {
  core::FileStore store;
  std::vector<core::FileId> present;
  for (std::size_t i = 0; i < size; ++i) {
    present.emplace_back(util::splitmix64_mix(i + 1));
    store.put_inserted(present.back());
  }
  std::vector<core::FileId> probes;  // alternating hit / miss
  for (std::size_t i = 0; i < 1024; ++i) {
    probes.push_back(i % 2 == 0 ? present[i % size]
                                : core::FileId{util::splitmix64_mix(~i)});
  }
  out.filestore_serve = ns_per_op(kReps, kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      const auto v = store.serve(probes[static_cast<std::size_t>(i) & 1023u]);
      keep(v);
    }
  });
  out.filestore_write = ns_per_op(kReps, 2.0 * kOps, [&] {
    for (std::uint64_t i = 0; i < std::uint64_t{kOps}; ++i) {
      const core::FileId f{util::splitmix64_mix(std::uint64_t{0xF11E0000} + i)};
      store.put_replica(f);
      keep(store.erase(f));
    }
  });
}

/// schedule + step at a steady queue depth of 4096: each step pops one
/// event and `schedule` adds one more.
template <typename Schedule>
double time_queue(Schedule&& schedule) {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  constexpr int kDepth = 4096;
  for (int i = 0; i < kDepth; ++i) schedule(q, &fired);
  const double ns = ns_per_op(kReps, kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      q.step();
      schedule(q, &fired);
    }
  });
  keep(fired);
  return ns;
}

/// Set-up: an experiment call that places nothing (median of three).
/// Solve: a small fig5-like mix — the three policies at 5k and 15k req/s —
/// whose wall minus its calls' set-up, per balance-loop iteration. Runs
/// at most at fig5's m = 14: at m = 20 the random policy alone would take
/// minutes, and no workload but fig5 runs the solver.
void time_solver(int m, std::uint64_t seed, LayerCosts& out) {
  sim::ExperimentConfig cfg;
  cfg.m = std::min(m, 14);
  cfg.b = 0;
  cfg.capacity = 100.0;
  cfg.total_rate = 20000.0;
  cfg.seed = seed;
  const sim::PlacementFn no_placement =
      [](const sim::PlacementContext&) -> std::optional<core::Pid> {
    return std::nullopt;
  };
  out.solver_setup = ns_per_op(3, 1.0, [&] {
    keep(sim::run_replication_experiment(cfg, no_placement));
  });
  double cells_ns = 0.0;
  double solves = 0.0;
  for (const sim::PlacementFn& policy :
       {baseline::logbased_policy(), baseline::lesslog_policy(),
        baseline::random_policy()}) {
    for (const double rate : {5000.0, 15000.0}) {
      cfg.total_rate = rate;
      const std::int64_t t0 = now_ns();
      const sim::ExperimentResult cell =
          sim::run_replication_experiment(cfg, policy);
      cells_ns += static_cast<double>(now_ns() - t0) - out.solver_setup;
      solves += static_cast<double>(cell.replicas_created + 1);
    }
  }
  out.solver_solve = cells_ns / solves;
}

void time_codec(std::vector<proto::Message> mix, LayerCosts& out) {
  if (mix.empty()) {
    proto::Message get;
    get.type = proto::MsgType::kGetRequest;
    get.request_id = 1;
    proto::Message reply = get;
    reply.type = proto::MsgType::kGetReply;
    reply.ok = true;
    mix = {get, reply};
  }
  std::vector<proto::WireBuffer> wires(mix.size());
  const auto n = static_cast<int>(mix.size());
  const int rounds = (kOps + n - 1) / n;
  const double ops = static_cast<double>(rounds) * n;
  out.encode = ns_per_op(kReps, ops, [&] {
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < mix.size(); ++i) {
        proto::encode_into(mix[i], wires[i]);
      }
      keep(wires);
    }
  });
  out.decode = ns_per_op(kReps, ops, [&] {
    for (int r = 0; r < rounds; ++r) {
      for (const proto::WireBuffer& w : wires) {
        const std::optional<proto::Message> m = proto::decode(w);
        keep(m);
      }
    }
  });
}

/// ShardRouter post + drain_into over four throwaway shard networks, at
/// the workload's per-window cross-shard volume.
double time_router(int m, std::size_t volume, util::Rng& rng) {
  constexpr std::size_t kShards = 4;
  const proto::ShardMap map(proto::ShardMap::Kind::kRange, m, kShards);
  proto::NetworkConfig net;
  net.jitter = 0.0;
  std::vector<std::pair<std::size_t, std::size_t>> routes;
  proto::Message msg;
  proto::WireBuffer wire{};
  proto::encode_into(msg, wire);
  for (std::size_t i = 0; i < volume; ++i) {
    const std::size_t from = rng.bounded(kShards);
    routes.emplace_back(from, (from + 1 + rng.bounded(kShards - 1)) % kShards);
  }
  std::vector<double> samples;
  for (int r = 0; r < kReps; ++r) {
    std::vector<std::unique_ptr<sim::Engine>> engines;
    std::vector<std::unique_ptr<proto::Network>> nets;
    for (std::size_t s = 0; s < kShards; ++s) {
      engines.push_back(std::make_unique<sim::Engine>(s + 1));
      nets.push_back(std::make_unique<proto::Network>(*engines.back(), net));
    }
    proto::ShardRouter router(map);
    const std::int64_t t0 = now_ns();
    for (const auto& [from, to] : routes) router.post(from, to, 0.010, wire);
    for (std::size_t s = 0; s < kShards; ++s) router.drain_into(s, *nets[s]);
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(volume));
  }
  return median(std::move(samples));
}

double time_cow_mutate(int m) {
  const auto shared = std::make_shared<util::StatusWord>(
      m, util::space_size(m));
  constexpr int kHandles = 64;
  std::vector<double> samples;
  for (int r = 0; r < kReps; ++r) {
    std::vector<util::CowStatus> handles(kHandles, util::CowStatus(shared));
    const std::int64_t t0 = now_ns();
    for (util::CowStatus& h : handles) h.mutate().set_dead(0);
    samples.push_back(static_cast<double>(now_ns() - t0) / kHandles);
  }
  return median(std::move(samples));
}

}  // namespace

LayerCosts measure_layers(const LayerInputs& in) {
  util::Rng rng(in.seed ^ 0x1A7E25ULL);
  const std::uint32_t slots = util::space_size(in.m);
  const util::StatusWord all_live(in.m, slots);
  const util::StatusWord& dense = in.status != nullptr ? *in.status : all_live;
  util::StatusWord sparse(in.m, slots);
  for (std::uint32_t p = 0; p < slots; ++p) {
    if (rng.bernoulli(0.5)) sparse.set_dead(p);
  }

  LayerCosts out;
  out.find_live_dense = time_find_live(in.m, dense, rng);
  out.find_live_sparse = time_find_live(in.m, sparse, rng);
  out.replicate_target = time_replicate_target(in.m, dense, rng);
  time_filestore(std::max<std::size_t>(in.store_size, 1), out);
  util::Rng qrng(in.seed);
  out.queue_lane = time_queue([](sim::EventQueue& q, std::uint64_t* fired) {
    q.schedule_after_fixed(0.010, [fired] { ++*fired; });
  });
  out.queue_wheel =
      time_queue([&qrng](sim::EventQueue& q, std::uint64_t* fired) {
        q.schedule(q.now() + 0.005 + 0.010 * qrng.uniform01(),
                   [fired] { ++*fired; });
      });
  time_solver(in.m, in.seed, out);
  time_codec(in.mix, out);
  out.router = time_router(in.m, std::max<std::size_t>(in.router_volume, 1024),
                           rng);
  out.cow_mutate = time_cow_mutate(in.m);
  return out;
}

void report_layers(const LayerCosts& c, const LayerCounts& n, Result& r) {
  r.layer("core.find_live_node_ns.dense", c.find_live_dense, "ns");
  r.layer("core.find_live_node_ns.sparse", c.find_live_sparse, "ns");
  r.layer("core.replicate_target_ns", c.replicate_target, "ns");
  r.layer("core.filestore_serve_ns", c.filestore_serve, "ns");
  r.layer("core.filestore_write_ns", c.filestore_write, "ns");
  r.layer("sim.queue_lane_ns", c.queue_lane, "ns");
  r.layer("sim.queue_wheel_ns", c.queue_wheel, "ns");
  r.layer("sim.solver_setup_ns", c.solver_setup, "ns");
  r.layer("sim.solver_ns_per_solve", c.solver_solve, "ns");
  r.layer("proto.encode_ns", c.encode, "ns");
  r.layer("proto.decode_ns", c.decode, "ns");
  r.layer("proto.router_ns_per_msg", c.router, "ns");
  r.layer("util.cow_mutate_ns", c.cow_mutate, "ns");

  r.layer("sim.solver_solves", n.solver_solves, "count");
  r.layer("sim.events", n.events, "count");
  r.layer("sim.windows", n.windows, "count");
  r.layer("proto.msgs_per_get", n.msgs_per_get, "ratio");
  r.layer("proto.hops_per_get.p50", n.hops_p50, "hops");
  r.layer("proto.hops_per_get.p99", n.hops_p99, "hops");
  for (std::size_t t = 1; t < n.msgs.size(); ++t) {
    r.layer(std::string("proto.msgs.") +
                proto::type_name(static_cast<proto::MsgType>(t)),
            n.msgs[t], "count");
  }
  r.layer("proto.router_cross_frac", n.router_cross_frac, "frac");
  r.layer("proto.client_retries", n.client_retries, "count");
  r.layer("proto.client_timeouts", n.client_timeouts, "count");
  r.layer("proto.update_fanout", n.update_fanout, "ratio");
  r.layer("proto.auto_replicas", n.auto_replicas, "count");
  r.layer("proto.auto_removals", n.auto_removals, "count");
  r.layer("net.frames_per_get", n.frames_per_get, "ratio");
  r.layer("net.gen_frames_per_poll", n.gen_frames_per_poll, "ratio");
  r.layer("net.drops", n.drops, "count");
  r.layer("net.serve_syscalls_per_frame", n.serve_syscalls_per_frame,
          "ratio");
  r.layer("net.serve_ctxsw_per_kget", n.serve_ctxsw_per_kget, "ratio");
  r.layer("net.serve_cpu_util.r25k", n.serve_cpu_util_r25k, "frac");
  r.layer("net.serve_cpu_util.r75k", n.serve_cpu_util_r75k, "frac");
  r.layer("net.gen_late_frac", n.gen_late_frac, "frac");
  r.layer("ledger.explained_frac", n.explained_frac, "frac");
  r.layer("setup.construct_frac", n.setup_construct_frac, "frac");
  r.layer("trace.overhead_frac", n.trace_overhead_frac, "frac");

  r.layer("fig5_wall_s", n.fig5_wall_s, "s");
  r.layer("sim_events_per_s", n.sim_events_per_s, "1/s");
  r.layer("get_ok_frac", n.get_ok_frac, "frac");
  r.layer("get_p50_us.r25k", n.get_p50_us_r25k, "us");
  r.layer("get_p99_us.r25k", n.get_p99_us_r25k, "us");
  r.layer("get_p50_us.r75k", n.get_p50_us_r75k, "us");
  r.layer("get_p99_us.r75k", n.get_p99_us_r75k, "us");
  r.layer("get_p999_us.r75k", n.get_p999_us_r75k, "us");
  r.layer("max_rate_ok", n.max_rate_ok, "1/s");
  r.layer("serve_cpu_us_per_get.r25k", n.serve_cpu_us_per_get_r25k, "us");
}

DeliveryRecorder::DeliveryRecorder(std::size_t shard, int m)
    : shard_(shard), heard_status_(util::space_size(m), 0) {}

void DeliveryRecorder::on_deliver(double time, const proto::Message& m) {
  const std::int64_t now = now_ns();
  const auto type = static_cast<std::size_t>(m.type);
  if (last_ns_ != 0) {
    gap_ns[last_type_] += static_cast<double>(now - last_ns_);
    ++gap_n[last_type_];
  }
  last_ns_ = now;
  last_type_ = type < kTypes ? type : 0;
  ++count[last_type_];
  if (m.type == proto::MsgType::kStatusAnnounce &&
      heard_status_[m.to.value()] == 0) {
    heard_status_[m.to.value()] = 1;
    ++status_receivers;
  }
  if (util::splitmix64_mix(m.request_id) % kSpanSample == 0 &&
      (m.type == proto::MsgType::kGetRequest ||
       m.type == proto::MsgType::kGetReply)) {
    spans_.push_back(
        {now, time, m.type, m.request_id, m.from.value(), m.to.value()});
  }
  if (seen_++ % 64 == 0 && mix.size() < 4096) mix.push_back(m);
}

void DeliveryRecorder::flush_spans(SpanLog& log) const {
  for (const Span& s : spans_) {
    std::ostringstream line;
    line.precision(17);
    line << "{\"wall_ns\": " << s.wall_ns << ", \"sim_time\": " << s.sim_time
         << ", \"shard\": " << shard_ << ", \"type\": \""
         << proto::type_name(s.type) << "\", \"id\": " << s.id
         << ", \"from\": " << s.from << ", \"to\": " << s.to << "}";
    log.add(line.str());
  }
}

void merge_recorders(const std::vector<const DeliveryRecorder*>& recorders,
                     LayerCounts& counts, Result& result) {
  for (std::size_t t = 1; t < DeliveryRecorder::kTypes; ++t) {
    double n = 0.0;
    double gap = 0.0;
    double gaps = 0.0;
    for (const DeliveryRecorder* r : recorders) {
      n += static_cast<double>(r->count[t]);
      gap += r->gap_ns[t];
      gaps += static_cast<double>(r->gap_n[t]);
    }
    if (t < counts.msgs.size()) counts.msgs[t] = n;
    if (gaps > 0.0) {
      result.detail(std::string("proto.deliver_gap_ns.") +
                        proto::type_name(static_cast<proto::MsgType>(t)),
                    gap / gaps, "ns");
    }
  }
}

}  // namespace lesslog::benchmark
