#include "lesslog/chaos/audit.hpp"

#include "lesslog/chaos/schedule.hpp"
#include "lesslog/util/bits.hpp"
#include "lesslog/util/hashing.hpp"

namespace lesslog::chaos {

namespace {

void violate(std::vector<Violation>& out, int epoch, const char* check,
             std::string detail) {
  out.push_back(Violation{epoch, check, std::move(detail)});
}

}  // namespace

bool Audit::live_copy_exists(proto::ShardedSwarm& swarm, core::FileId f) {
  const util::StatusWord& truth = swarm.status();
  for (std::uint32_t p = 0; p < truth.capacity(); ++p) {
    if (truth.is_live(p) && swarm.peer(core::Pid{p}).store().has(f)) {
      return true;
    }
  }
  return false;
}

void Audit::check(proto::ShardedSwarm& swarm,
                  const std::vector<std::uint64_t>& keys,
                  const proto::FaultStats& injected, std::int64_t issued,
                  std::int64_t completed, int epoch,
                  std::vector<Violation>& out) {
  // 1. Counter reconciliation at quiescence (sums over shards —
  // cross-shard datagrams are counted once on each side of the boundary,
  // so the identity holds for any shard count).
  const std::int64_t in = swarm.messages_sent() + injected.duplicated;
  const std::int64_t terminal = swarm.delivered() + swarm.dropped() +
                                swarm.undeliverable() + swarm.corrupted() +
                                injected.burst_dropped +
                                injected.partition_dropped;
  if (in != terminal) {
    violate(out, epoch, "counter_reconciliation",
            "sent+dup=" + std::to_string(in) +
                " != delivered+dropped+undeliverable+corrupted+burst+"
                "partition=" +
                std::to_string(terminal));
  }

  // 2. Corruption accounting: corrupted at send == rejected at decode.
  if (injected.corrupted != swarm.corrupted()) {
    violate(out, epoch, "corruption_accounting",
            "injected=" + std::to_string(injected.corrupted) +
                " decode_rejected=" + std::to_string(swarm.corrupted()));
  }

  // 3. Workload termination.
  if (issued != completed) {
    violate(out, epoch, "workload_termination",
            "issued=" + std::to_string(issued) +
                " completed=" + std::to_string(completed));
  }

  // 3b. Reliability-ledger reconciliation over the swarm's obs cells,
  // exact at quiescence: every GET the clients ever issued — workload,
  // prior audit probes, hedge-capable or shed — was resolved exactly
  // once, and every hedge leg launched was either won or cancelled,
  // never both and never neither, no matter how many replies the wire
  // dropped or duplicated. Read before the probe GETs below mutate the
  // ledger.
  const proto::ReliabilityLedger ledger = swarm.reliability_ledger();
  if (ledger.issued != ledger.ok + ledger.faults) {
    violate(out, epoch, "reliability_ledger",
            "issued=" + std::to_string(ledger.issued) +
                " != ok+faults=" + std::to_string(ledger.ok) + "+" +
                std::to_string(ledger.faults));
  }
  if (ledger.hedges_launched != ledger.hedge_won + ledger.hedge_cancelled) {
    violate(out, epoch, "hedge_reconciliation",
            "hedges_launched=" + std::to_string(ledger.hedges_launched) +
                " != won+cancelled=" + std::to_string(ledger.hedge_won) +
                "+" + std::to_string(ledger.hedge_cancelled));
  }

  // 4. Status convergence: live peers' local words vs ground truth.
  const util::StatusWord& truth = swarm.status();
  for (std::uint32_t p = 0; p < truth.capacity(); ++p) {
    if (!truth.is_live(p)) continue;
    if (swarm.peer(core::Pid{p}).status() != truth) {
      violate(out, epoch, "status_convergence",
              "peer " + std::to_string(p) +
                  " status word diverges from ground truth");
    }
  }

  // 5. Replica availability, by actually asking: one GET probe per file
  // from the lowest live PID.
  if (truth.live_count() == 0) return;
  std::uint32_t prober = 0;
  while (!truth.is_live(prober)) ++prober;
  struct Probe {
    std::uint64_t key;
    bool has_live_copy;
    bool done = false;
    bool ok = false;
  };
  std::vector<Probe> probes;
  probes.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    const core::FileId f{key};
    probes.push_back(Probe{key, live_copy_exists(swarm, f)});
    Probe* slot = &probes.back();
    const core::Pid r = swarm.peer(core::Pid{prober}).target_of(f);
    swarm.get(f, r, core::Pid{prober},
              [slot](const proto::GetResult& res) {
                slot->done = true;
                slot->ok = res.ok;
              });
  }
  swarm.settle();
  for (const Probe& probe : probes) {
    if (!probe.done) {
      violate(out, epoch, "probe_termination",
              "GET for key " + std::to_string(probe.key) +
                  " never completed");
      continue;
    }
    if (probe.has_live_copy && !probe.ok) {
      violate(out, epoch, "replica_availability",
              "GET for key " + std::to_string(probe.key) +
                  " faulted while a live replica exists");
    }
    if (!probe.has_live_copy && probe.ok) {
      violate(out, epoch, "replica_availability",
              "GET for key " + std::to_string(probe.key) +
                  " succeeded with no live replica (ghost copy)");
    }
  }
}

void Audit::check_swim(const SwimEpochStats& stats, int epoch,
                       std::vector<Violation>& out) {
  // 6. Detection convergence within the round cap.
  if (!stats.converged) {
    violate(out, epoch, "detection_convergence",
            "detector beliefs still diverge from ground truth after " +
                std::to_string(stats.rounds) + "/" +
                std::to_string(kSwimConvergenceRounds) + " extra periods");
  }
  // 7. Clean-wire suspicion: with no fault windows and no membership ops
  // this epoch, every probe must have been answered in time.
  if (stats.clean_epoch && stats.suspects > 0) {
    violate(out, epoch, "swim_false_suspicion",
            std::to_string(stats.suspects) +
                " suspicion(s) raised on a fault-free epoch (" +
                std::to_string(stats.false_suspects) + " on live nodes)");
  }
}

}  // namespace lesslog::chaos
