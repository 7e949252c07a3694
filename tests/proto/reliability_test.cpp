// The adaptive request-reliability layer, exercised at both granularities:
// the RttEstimator in isolation (RFC 6298 arithmetic, clamping, the
// percentile ring) and the Karn/hedge/shedding/suspicion behavior of a
// real message-driven swarm, reconciled against the ReliabilityLedger.
#include "lesslog/proto/rtt_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lesslog/core/fault_tolerant.hpp"
#include "lesslog/proto/sharded_swarm.hpp"
#include "lesslog/util/liveness_view.hpp"

namespace lesslog::proto {
namespace {

using core::FileId;
using core::Pid;

// ---------------------------------------------------------------------------
// RttEstimator unit tests: the Jacobson/Karn arithmetic.

TEST(RttEstimator, FirstSamplePrimesSrttAndRttvar) {
  RttEstimator est;
  EXPECT_FALSE(est.primed());
  est.add_sample(0.1);
  EXPECT_TRUE(est.primed());
  EXPECT_DOUBLE_EQ(est.srtt(), 0.1);
  EXPECT_DOUBLE_EQ(est.rttvar(), 0.05);
  EXPECT_EQ(est.window_size(), 1u);
}

TEST(RttEstimator, EwmaUpdateUsesRfc6298Coefficients) {
  RttEstimator est;
  est.add_sample(0.1);
  est.add_sample(0.2);
  // RTTVAR <- 3/4 * 0.05 + 1/4 * |0.1 - 0.2|;  SRTT <- 7/8 * 0.1 + 1/8 * 0.2
  EXPECT_DOUBLE_EQ(est.rttvar(), 0.0625);
  EXPECT_DOUBLE_EQ(est.srtt(), 0.1125);
  // RTO = SRTT + 4 RTTVAR, inside the clamps here.
  EXPECT_DOUBLE_EQ(est.rto(/*fallback=*/0.25, /*floor=*/0.03, /*cap=*/2.0),
                   0.3625);
}

TEST(RttEstimator, UnprimedReturnsFallbackUnclamped) {
  // Before the first sample the estimator must reproduce the fixed-timer
  // client exactly — even a fallback far outside [floor, cap] passes
  // through untouched.
  const RttEstimator est;
  EXPECT_DOUBLE_EQ(est.rto(/*fallback=*/5.0, /*floor=*/0.03, /*cap=*/2.0),
                   5.0);
  EXPECT_DOUBLE_EQ(est.rto(/*fallback=*/0.001, /*floor=*/0.03, /*cap=*/2.0),
                   0.001);
}

TEST(RttEstimator, RtoClampsToFloorAndCap) {
  RttEstimator fast;
  fast.add_sample(0.001);  // SRTT + 4 RTTVAR = 0.003 < floor
  EXPECT_DOUBLE_EQ(fast.rto(0.25, 0.03, 2.0), 0.03);
  RttEstimator slow;
  slow.add_sample(10.0);  // SRTT + 4 RTTVAR = 30 > cap
  EXPECT_DOUBLE_EQ(slow.rto(0.25, 0.03, 2.0), 2.0);
}

TEST(RttEstimator, PercentileQueriesTheSampleRing) {
  RttEstimator est;
  for (int i = 10; i >= 1; --i) {  // inserted descending: order must not
    est.add_sample(0.01 * i);      // matter to the percentile
  }
  EXPECT_EQ(est.window_size(), 10u);
  EXPECT_DOUBLE_EQ(est.percentile(0.0), 0.01);
  EXPECT_DOUBLE_EQ(est.percentile(0.5), 0.06);
  EXPECT_DOUBLE_EQ(est.percentile(0.9), 0.10);
}

TEST(RttEstimator, RingSaturatesAtWindow) {
  RttEstimator est;
  for (int i = 0; i < 200; ++i) est.add_sample(0.01);
  EXPECT_EQ(est.window_size(), RttEstimator::kWindow);
}

// ---------------------------------------------------------------------------
// Karn's rule, end to end: only first-transmission, unhedged completions
// may feed the estimator — a retransmitted or hedged leg's reply can never
// be credited to the wrong transmission.

ShardedSwarm::Config karn_config() {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.net.base_latency = 0.01;
  cfg.net.jitter = 0.0;
  cfg.client.adaptive = true;
  return cfg;
}

TEST(KarnRule, CleanFirstTransmissionFeedsEstimator) {
  ShardedSwarm swarm(karn_config());
  const FileId f = swarm.insert_named(0xFACE, Pid{0});
  swarm.settle();
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  const Pid requester{target.value() == 2u ? 6u : 2u};

  GetResult result;
  swarm.get(f, target, requester, [&](const GetResult& r) { result = r; });
  swarm.settle();

  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.retries, 0);
  const ReliabilityLedger ledger = swarm.reliability_ledger();
  EXPECT_EQ(ledger.rtt_samples, 1);
  const RttEstimator& est = swarm.client(requester).estimator();
  ASSERT_TRUE(est.primed());
  EXPECT_DOUBLE_EQ(est.srtt(), result.latency);
}

TEST(KarnRule, RetransmittedLegTakesNoSample) {
  ShardedSwarm::Config cfg = karn_config();
  cfg.client.timeout = 0.01;  // shorter than one 10 ms hop: every leg
  cfg.client.max_retries = 6; // retransmits before its reply can land
  cfg.net.base_latency = 0.02;
  ShardedSwarm swarm(cfg);
  const FileId f = swarm.insert_named(0xFADE, Pid{0});
  swarm.settle();
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  const Pid requester{target.value() == 3u ? 5u : 3u};

  GetResult result;
  swarm.get(f, target, requester, [&](const GetResult& r) { result = r; });
  swarm.settle();

  // The request succeeds — a reply from an earlier transmission
  // eventually lands — but the ambiguous sample is discarded.
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.retries, 0);
  EXPECT_EQ(swarm.reliability_ledger().rtt_samples, 0);
  EXPECT_FALSE(swarm.client(requester).estimator().primed());
}

TEST(KarnRule, HedgedRequestTakesNoSampleAndReconciles) {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 1;  // hedging needs an alternate replica subtree
  cfg.nodes = 16;
  cfg.net.base_latency = 0.3;  // round trip >= 0.6 s
  cfg.net.jitter = 0.0;
  cfg.client.timeout = 1.0;    // warmup hedge delay = timeout / 2 = 0.5 s
  cfg.client.hedge_percentile = 0.9;
  ShardedSwarm swarm(cfg);
  const FileId f = swarm.insert_named(0xFEED, Pid{0});
  swarm.settle();
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  // A requester that holds no copy: the primary leg needs the wire, so it
  // is still pending when the hedge timer fires.
  Pid requester{0};
  for (std::uint32_t p = 0; p < 16; ++p) {
    if (!swarm.peer(Pid{p}).store().has(f)) {
      requester = Pid{p};
      break;
    }
  }

  GetResult result;
  swarm.get(f, target, requester, [&](const GetResult& r) { result = r; });
  swarm.settle();

  ASSERT_TRUE(result.ok);
  const ReliabilityLedger ledger = swarm.reliability_ledger();
  EXPECT_EQ(ledger.hedges_launched, 1);
  // The hedge identity holds even for a single request: the losing leg is
  // resolved exactly once, never double-counted.
  EXPECT_EQ(ledger.hedges_launched, ledger.hedge_won + ledger.hedge_cancelled);
  // Karn: a hedged completion is ambiguous — no sample.
  EXPECT_EQ(ledger.rtt_samples, 0);
  EXPECT_EQ(ledger.issued, 1);
  EXPECT_EQ(ledger.ok, 1);
}

// ---------------------------------------------------------------------------
// Peer-side load shedding: a kBusy shed migrates the walk, and a shed
// subtree walk wraps and revisits instead of faulting — a busy peer is
// loaded, not dead.

TEST(BusyShedding, ShedBurstDrainsWithoutFaults) {
  ShardedSwarm::Config cfg;
  cfg.m = 3;
  cfg.b = 0;  // one subtree: any shed would fault without the wrap
  cfg.nodes = 8;
  cfg.net.base_latency = 0.01;
  cfg.net.jitter = 0.0;
  cfg.client.max_retries = 6;
  cfg.peer.busy_budget = 1;    // one token per peer: a burst must shed
  cfg.peer.busy_refill = 50.0; // ...and refill fast enough to drain
  ShardedSwarm swarm(cfg);
  const FileId f = swarm.insert_named(0xB0B0, Pid{0});
  swarm.settle();
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  const Pid requester{target.value() == 1u ? 4u : 1u};

  int ok = 0;
  for (int i = 0; i < 4; ++i) {  // same-instant burst
    swarm.get(f, target, requester, [&](const GetResult& r) { ok += r.ok; });
  }
  swarm.settle();

  const ReliabilityLedger ledger = swarm.reliability_ledger();
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(ledger.issued, 4);
  EXPECT_EQ(ledger.ok, 4);
  EXPECT_EQ(ledger.faults, 0);
  // The burst actually tripped the shedder on both sides of the wire.
  EXPECT_GT(ledger.busy_shed, 0);
  EXPECT_GT(ledger.busy_received, 0);
  EXPECT_EQ(ledger.issued, ledger.ok + ledger.faults);
}

// ---------------------------------------------------------------------------
// Suspicion-aware routing: failure-detector doubt steers entry selection
// away from suspects but never overrides the liveness bitmap, and a SWIM
// refutation restores direct routing.

/// A controllable failure-detector stand-in: OracleView's belief-update
/// semantics plus an externally scripted suspect list, installed via
/// Peer::set_liveness_view.
class FakeSuspicionView final : public util::MutableLivenessView {
 public:
  explicit FakeSuspicionView(util::CowStatus status) noexcept
      : MutableLivenessView(&status.read()), status_(std::move(status)) {}

  void believe_live(std::uint32_t pid) override {
    if (!status_.read().is_live(pid)) {
      status_.mutate().set_live(pid);
      rebind(&status_.read());
    }
  }
  void believe_dead(std::uint32_t pid) override {
    if (status_.read().is_live(pid)) {
      status_.mutate().set_dead(pid);
      rebind(&status_.read());
    }
  }
  [[nodiscard]] util::CowStatus snapshot() const override {
    return status_.snapshot();
  }
  void reset(util::CowStatus fresh) override {
    status_ = std::move(fresh);
    rebind(&status_.read());
  }

  [[nodiscard]] const std::vector<std::uint32_t>* suspects()
      const noexcept override {
    return suspects_.empty() ? nullptr : &suspects_;
  }

  void suspect(std::uint32_t pid) {
    const auto it = std::lower_bound(suspects_.begin(), suspects_.end(), pid);
    if (it == suspects_.end() || *it != pid) suspects_.insert(it, pid);
  }
  void refute(std::uint32_t pid) {
    const auto it = std::lower_bound(suspects_.begin(), suspects_.end(), pid);
    if (it != suspects_.end() && *it == pid) suspects_.erase(it);
  }

 private:
  util::CowStatus status_;
  std::vector<std::uint32_t> suspects_;  ///< ascending
};

ShardedSwarm::Config suspicion_config() {
  ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 1;
  cfg.nodes = 16;
  cfg.net.base_latency = 0.01;
  cfg.net.jitter = 0.0;
  cfg.client.suspicion_routing = true;
  return cfg;
}

TEST(SuspicionRouting, MassFalseSuspicionNeverBlocksASubtree) {
  ShardedSwarm swarm(suspicion_config());
  const FileId f = swarm.insert_named(0x5057, Pid{0});
  swarm.settle();
  const Pid target = swarm.peer(Pid{0}).target_of(f);
  Pid requester{0};
  for (std::uint32_t p = 0; p < 16; ++p) {
    if (!swarm.peer(Pid{p}).store().has(f)) {
      requester = Pid{p};
      break;
    }
  }
  // Every single peer falsely suspected: routing must fall through to
  // bitmap-only entry selection rather than declare the swarm unreachable.
  FakeSuspicionView fake(swarm.peer(requester).liveness().snapshot());
  for (std::uint32_t p = 0; p < 16; ++p) fake.suspect(p);
  swarm.peer(requester).set_liveness_view(&fake);

  GetResult result;
  swarm.get(f, target, requester, [&](const GetResult& r) { result = r; });
  swarm.settle();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(swarm.total_faults(), 0);

  swarm.peer(requester).set_liveness_view(nullptr);  // before fake dies
}

TEST(SuspicionRouting, FalseSuspectAvoidedUntilRefuted) {
  ShardedSwarm swarm(suspicion_config());
  const FileId f = swarm.insert_named(0x5058, Pid{0});
  swarm.settle();
  const Pid target = swarm.peer(Pid{0}).target_of(f);

  // With b = 1 the insert placed one holder per subtree. Force every GET
  // to migrate into the alternate subtree by erasing the copy the
  // requester's own subtree holds.
  const core::LookupTree tree(swarm.width(), target);
  const core::SubtreeView view(tree, /*b=*/1);
  std::vector<Pid> holders;
  for (std::uint32_t p = 0; p < 16; ++p) {
    if (swarm.peer(Pid{p}).store().has(f)) holders.push_back(Pid{p});
  }
  ASSERT_EQ(holders.size(), 2u);

  // Requester: holds nothing, and its counterpart in the alternate
  // subtree (the migrated walk's entry point) is not the holder there —
  // so suspicion of the counterpart is observable as re-routing.
  Pid requester{0};
  Pid counterpart{0};
  bool picked = false;
  for (std::uint32_t p = 0; p < 16 && !picked; ++p) {
    const Pid cand{p};
    if (swarm.peer(cand).store().has(f)) continue;
    const std::uint32_t alt_sid =
        (view.subtree_id(cand) + 1) % view.subtree_count();
    const Pid c = view.pid_at(view.subtree_vid(cand), alt_sid);
    bool c_holds = false;
    for (const Pid h : holders) c_holds |= (h == c);
    if (!c_holds && c != cand) {
      requester = cand;
      counterpart = c;
      picked = true;
    }
  }
  ASSERT_TRUE(picked);
  for (const Pid h : holders) {
    if (view.subtree_id(h) == view.subtree_id(requester)) {
      ASSERT_TRUE(swarm.peer(h).store().erase(f));
    }
  }

  FakeSuspicionView fake(swarm.peer(requester).liveness().snapshot());
  fake.suspect(counterpart.value());
  swarm.peer(requester).set_liveness_view(&fake);

  const auto touches = [&] {
    return swarm.peer(counterpart).served() +
           swarm.peer(counterpart).forwarded();
  };

  // Phase 1 — suspected: the migrated walk picks a different entry into
  // the alternate subtree; the suspect sees no traffic, yet the request
  // still completes (the suspect was never the only path).
  const std::int64_t before = touches();
  GetResult while_suspected;
  swarm.get(f, target, requester,
            [&](const GetResult& r) { while_suspected = r; });
  swarm.settle();
  EXPECT_TRUE(while_suspected.ok);
  EXPECT_GT(while_suspected.migrations, 0);
  EXPECT_EQ(touches(), before);

  // Phase 2 — refuted (SWIM alive rebuttal): direct routing through the
  // counterpart resumes immediately; no quarantine lingers.
  fake.refute(counterpart.value());
  GetResult after_refute;
  swarm.get(f, target, requester,
            [&](const GetResult& r) { after_refute = r; });
  swarm.settle();
  EXPECT_TRUE(after_refute.ok);
  EXPECT_GT(touches(), before);

  swarm.peer(requester).set_liveness_view(nullptr);  // before fake dies
}

}  // namespace
}  // namespace lesslog::proto
