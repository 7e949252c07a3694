// The invariant auditor and the chaos driver: healthy runs audit clean
// across seeds and fault mixes; a deliberately broken recovery protocol
// is caught.
#include "lesslog/chaos/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "lesslog/chaos/driver.hpp"

namespace lesslog::chaos {
namespace {

ChaosConfig quick_config(std::uint64_t seed) {
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.epochs = 3;
  cfg.epoch_length = 20.0;
  cfg.files = 32;
  cfg.get_rate = 15.0;
  return cfg;
}

TEST(Audit, HealthySwarmHasNoViolations) {
  Report report = Driver(quick_config(1)).run();
  EXPECT_TRUE(report.clean()) << report.violations.size() << " violations";
  for (const Violation& v : report.violations) {
    ADD_FAILURE() << "[" << v.epoch << "] " << v.check << ": " << v.detail;
  }
  EXPECT_GT(report.workload_issued, 0);
  EXPECT_EQ(report.workload_issued, report.workload_completed);
}

TEST(Audit, CleanAcrossSeedsUnderFullFaultMix) {
  // The soak: distinct seeds mixing partitions, burst loss, corruption,
  // duplication, delay spikes, crash -> restart, and churn.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ChaosConfig cfg = quick_config(seed);
    cfg.fault_intensity = 0.8;
    Report report = Driver(cfg).run();
    EXPECT_TRUE(report.clean()) << "seed " << seed << ": "
                                << report.violations.size() << " violations";
    for (const Violation& v : report.violations) {
      ADD_FAILURE() << "seed " << seed << " [" << v.epoch << "] " << v.check
                    << ": " << v.detail;
    }
  }
}

TEST(Audit, FaultsWereActuallyInjected) {
  ChaosConfig cfg = quick_config(3);
  cfg.fault_intensity = 0.8;
  cfg.epochs = 4;  // includes an odd (partition) epoch
  Report report = Driver(cfg).run();
  EXPECT_GT(report.injected.burst_dropped, 0);
  EXPECT_GT(report.injected.partition_dropped, 0);
  EXPECT_GT(report.injected.duplicated, 0);
  EXPECT_GT(report.injected.corrupted, 0);
  EXPECT_GT(report.injected.delay_spikes, 0);
  EXPECT_FALSE(report.record.rules.empty());
}

TEST(Audit, HedgeLedgerReconcilesExactly) {
  // A chaotic run with hedging live: every hedge leg must be resolved
  // exactly once (won or cancelled — never both, never neither), no
  // matter how many replies the wire drops, duplicates, or delays. The
  // auditor checks the identity per epoch; this pins it on the final
  // merged ledger too, and proves hedges actually fired.
  ChaosConfig cfg = quick_config(3);
  cfg.fault_intensity = 0.6;
  cfg.adaptive_timeouts = true;
  cfg.hedge_percentile = 0.9;
  Report report = Driver(cfg).run();
  EXPECT_TRUE(report.clean()) << report.violations.size() << " violations";
  for (const Violation& v : report.violations) {
    ADD_FAILURE() << "[" << v.epoch << "] " << v.check << ": " << v.detail;
  }
  const proto::ReliabilityLedger& led = report.reliability;
  EXPECT_GT(led.hedges_launched, 0);
  EXPECT_EQ(led.hedges_launched, led.hedge_won + led.hedge_cancelled);
  EXPECT_GT(led.rtt_samples, 0);
  EXPECT_EQ(led.issued, led.ok + led.faults);
}

TEST(Audit, RunsAreDeterministic) {
  const ChaosConfig cfg = quick_config(5);
  Report a = Driver(cfg).run();
  Report b = Driver(cfg).run();
  EXPECT_EQ(a.record, b.record);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.workload_issued, b.workload_issued);
}

TEST(Audit, SilentCrashIsCaught) {
  ChaosConfig cfg = quick_config(2);
  cfg.silent_crashes = true;
  Report report = Driver(cfg).run();
  ASSERT_FALSE(report.clean())
      << "a broken recovery protocol must not audit clean";
  // A node that vanishes without a failure announcement leaves every
  // survivor with a stale liveness view — the convergence check fires.
  const bool convergence_caught = std::any_of(
      report.violations.begin(), report.violations.end(),
      [](const Violation& v) { return v.check == "status_convergence"; });
  EXPECT_TRUE(convergence_caught);
  // And the schedule record names the silent crash that caused it.
  const bool silent_recorded = std::any_of(
      report.record.ops.begin(), report.record.ops.end(),
      [](const OpRecord& op) { return op.kind == OpKind::kSilentCrash; });
  EXPECT_TRUE(silent_recorded);
}

TEST(Audit, RepairTrafficIsAccounted) {
  ChaosConfig cfg = quick_config(4);
  Report report = Driver(cfg).run();
  // Membership ops ran, so files moved: joins reclaim, leavers push,
  // survivors re-insert after crashes.
  if (!report.record.ops.empty()) {
    EXPECT_GT(report.repair_pushes, 0);
  }
}

}  // namespace
}  // namespace lesslog::chaos
