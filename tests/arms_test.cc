// Tests for the arms-race layer: mitigation policies (quota charge/decay,
// rate-limit refill, backoff time tax), the MitigationStack's driver seam
// and denial attribution, strategy construction, the MaliciousApp
// denial-stop integration, the weak-table leak channel, and the matrix
// runner's determinism contract.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arms/matrix.h"
#include "arms/mitigation.h"
#include "arms/strategy.h"
#include "attack/malicious_app.h"
#include "attack/vuln_registry.h"
#include "common/clock.h"
#include "core/android_system.h"
#include "runtime/runtime.h"
#include "sim/device.h"
#include "snapshot/snapshot.h"

namespace jgre::arms {
namespace {

MitigationRequest RequestAt(TimeUs now, std::size_t live, SimClock* clock,
                            Uid uid = Uid{10100}) {
  MitigationRequest request;
  request.caller = Pid{100};
  request.caller_uid = uid;
  request.victim = Pid{1};
  request.descriptor_id = 7;
  request.code = 1;
  request.now_us = now;
  request.victim_live_refs = live;
  request.clock = clock;
  return request;
}

// --- PerUidQuota -------------------------------------------------------------

TEST(PerUidQuotaTest, DeniesAtTheChargeCapAndTracksPerUid) {
  PerUidQuota::Config config;
  config.max_charged_refs = 100;
  PerUidQuota quota(config);
  SimClock clock;

  // 10 calls x 10 charged refs fills the budget.
  std::size_t live = 1'000;
  for (int i = 0; i < 10; ++i) {
    const MitigationRequest request = RequestAt(0, live, &clock);
    ASSERT_TRUE(quota.Admit(request).ok());
    quota.Settle(request, 10);
    live += 10;
  }
  EXPECT_EQ(quota.ChargedTo(Uid{10100}), 100);
  EXPECT_EQ(quota.Admit(RequestAt(0, live, &clock)).code(),
            StatusCode::kLimitExceeded);
  // A different UID has its own budget.
  EXPECT_TRUE(quota.Admit(RequestAt(0, live, &clock, Uid{10200})).ok());
}

TEST(PerUidQuotaTest, ChargesDecayWhenTheVictimTableShrinks) {
  PerUidQuota::Config config;
  config.max_charged_refs = 100;
  PerUidQuota quota(config);
  SimClock clock;

  MitigationRequest request = RequestAt(0, 1'000, &clock);
  ASSERT_TRUE(quota.Admit(request).ok());
  quota.Settle(request, 100);
  EXPECT_EQ(quota.ChargedTo(Uid{10100}), 100);
  EXPECT_EQ(quota.Admit(RequestAt(0, 1'100, &clock)).code(),
            StatusCode::kLimitExceeded);

  // A GC (or defender recovery) reclaimed half the charged growth: the
  // next admission sees the smaller table and decays charges in proportion,
  // reopening the budget.
  EXPECT_TRUE(quota.Admit(RequestAt(0, 1'050, &clock)).ok());
  EXPECT_EQ(quota.ChargedTo(Uid{10100}), 50);
}

// --- TableGrowthBackoff ------------------------------------------------------

TEST(TableGrowthBackoffTest, TaxesTimeGeometricallyPastTheWatermark) {
  TableGrowthBackoff::Config config;
  config.watermark = 1'000;
  config.base_delay_us = 100;
  config.doubling_step = 500;
  config.max_delay_us = 10'000;
  TableGrowthBackoff backoff(config);
  SimClock clock;

  // Below the watermark: free.
  EXPECT_TRUE(backoff.Admit(RequestAt(0, 999, &clock)).ok());
  EXPECT_EQ(clock.NowUs(), 0u);
  EXPECT_EQ(backoff.delayed_calls(), 0);

  // Just past: one base delay. Never a refusal.
  EXPECT_TRUE(backoff.Admit(RequestAt(0, 1'001, &clock)).ok());
  EXPECT_EQ(clock.NowUs(), 100u);

  // Two doubling steps past: 4x base.
  EXPECT_TRUE(backoff.Admit(RequestAt(0, 2'100, &clock)).ok());
  EXPECT_EQ(clock.NowUs(), 500u);

  // Far past: clamped at the ceiling.
  EXPECT_TRUE(backoff.Admit(RequestAt(0, 100'000, &clock)).ok());
  EXPECT_EQ(clock.NowUs(), 10'500u);
  EXPECT_EQ(backoff.delayed_calls(), 3);
  EXPECT_EQ(backoff.total_delay_us(), 10'500u);
}

// --- PerInterfaceRateLimit ---------------------------------------------------

TEST(PerInterfaceRateLimitTest, BucketRefillsWithVirtualTime) {
  PerInterfaceRateLimit::Config config;
  config.tokens_per_sec = 10.0;
  config.burst = 5.0;
  PerInterfaceRateLimit limiter(config);
  SimClock clock;

  // The burst admits 5 back-to-back calls, then the bucket is dry.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(limiter.Admit(RequestAt(0, 0, &clock)).ok()) << i;
  }
  EXPECT_EQ(limiter.Admit(RequestAt(0, 0, &clock)).code(),
            StatusCode::kLimitExceeded);

  // 100 ms later one token has refilled — exactly one more call.
  EXPECT_TRUE(limiter.Admit(RequestAt(100'000, 0, &clock)).ok());
  EXPECT_EQ(limiter.Admit(RequestAt(100'000, 0, &clock)).code(),
            StatusCode::kLimitExceeded);

  // Buckets are per (descriptor, code): another interface is untouched.
  MitigationRequest other = RequestAt(100'000, 0, &clock);
  other.descriptor_id = 99;
  EXPECT_TRUE(limiter.Admit(other).ok());
}

// --- MitigationStack on the driver seam --------------------------------------

TEST(MitigationStackTest, GatesAppCallsAndAttributesDenials) {
  core::AndroidSystem system;
  system.Boot();
  services::AppProcess* app = system.InstallApp("com.test.caller");
  ASSERT_NE(app, nullptr);

  MitigationStack::Config config;
  config.victim = system.system_server_pid();
  MitigationStack stack(&system, config);
  PerInterfaceRateLimit::Config rate;
  rate.tokens_per_sec = 1.0;
  rate.burst = 2.0;
  stack.Add(std::make_unique<PerInterfaceRateLimit>(rate));
  stack.Install();

  const attack::VulnSpec* chosen = nullptr;
  const std::vector<attack::VulnSpec> vulns =
      attack::SystemServerVulnerabilities();
  for (const attack::VulnSpec& vuln : vulns) {
    if (vuln.permission.empty()) {
      chosen = &vuln;
      break;
    }
  }
  ASSERT_NE(chosen, nullptr);
  attack::MaliciousApp attacker(&system, app, *chosen);

  // Burst of 2 admitted, the rest denied with per-UID attribution.
  int denied = 0;
  for (int i = 0; i < 6; ++i) {
    if (attacker.Step().code() == StatusCode::kLimitExceeded) ++denied;
  }
  EXPECT_EQ(denied, 4);
  EXPECT_EQ(stack.total_denied(), 4);
  EXPECT_EQ(stack.DeniedForUid(app->uid()), 4);
  EXPECT_EQ(stack.denied_by_policy().at("per_interface_rate_limit"), 4);
}

TEST(MitigationStackTest, MaliciousAppStopsOnConsecutiveDenials) {
  core::AndroidSystem system;
  system.Boot();
  services::AppProcess* app = system.InstallApp("com.test.stopper");
  ASSERT_NE(app, nullptr);

  MitigationStack::Config config;
  config.victim = system.system_server_pid();
  MitigationStack stack(&system, config);
  PerUidQuota::Config quota;
  quota.max_charged_refs = 10;
  stack.Add(std::make_unique<PerUidQuota>(quota));
  stack.Install();

  const std::vector<attack::VulnSpec> vulns =
      attack::SystemServerVulnerabilities();
  const attack::VulnSpec* chosen = nullptr;
  for (const attack::VulnSpec& vuln : vulns) {
    if (vuln.permission.empty()) {
      chosen = &vuln;
      break;
    }
  }
  ASSERT_NE(chosen, nullptr);
  attack::MaliciousApp attacker(&system, app, *chosen);
  attack::MaliciousApp::RunOptions options;
  options.max_calls = 10'000;
  options.stop_after_consecutive_denials = 16;
  const attack::MaliciousApp::AttackResult result = attacker.Run(options);

  EXPECT_TRUE(result.stopped_by_denial);
  EXPECT_GE(result.calls_denied, 16);
  // Far fewer than the budget: the attacker gave up, not timed out.
  EXPECT_LT(result.calls_issued, 1'000);
  EXPECT_EQ(system.soft_reboots(), 0);
}

// --- Strategies --------------------------------------------------------------

TEST(StrategyTest, MakeStrategyCoversTheKnownCatalog) {
  EXPECT_GE(KnownStrategies().size(), 5u);
  for (const std::string& name : KnownStrategies()) {
    AttackPlan plan;
    plan.name = name;
    std::unique_ptr<AttackStrategy> strategy = MakeStrategy(plan);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_EQ(strategy->id(), name);
  }
  AttackPlan bogus;
  bogus.name = "no_such_strategy";
  EXPECT_EQ(MakeStrategy(bogus), nullptr);
}

TEST(StrategyTest, UidRotationColludersGetDistinctUids) {
  core::AndroidSystem system;
  system.Boot();
  AttackPlan plan;
  plan.name = "uid_rotation_colluders";
  plan.colluders = 4;
  std::unique_ptr<AttackStrategy> strategy = MakeStrategy(plan);
  ASSERT_TRUE(strategy->Setup(system).ok());
  std::vector<Uid> uids = strategy->attacker_uids();
  ASSERT_EQ(uids.size(), 4u);
  for (std::size_t i = 0; i < uids.size(); ++i) {
    for (std::size_t j = i + 1; j < uids.size(); ++j) {
      EXPECT_NE(uids[i].value(), uids[j].value());
    }
  }
  EXPECT_EQ(strategy->attacker_packages().size(), 4u);
}

TEST(StrategyTest, WeakrefChurnLeaksTheWeakTableNotTheStrongTable) {
  core::AndroidSystem system;
  system.Boot();
  AttackPlan plan;
  plan.name = "weakref_churn";
  plan.max_calls = 400;
  plan.leak_fraction = 0.5;
  plan.churn_think_us = 500;
  std::unique_ptr<AttackStrategy> strategy = MakeStrategy(plan);
  ASSERT_TRUE(strategy->Setup(system).ok());

  rt::Runtime* victim = system.system_runtime();
  ASSERT_NE(victim, nullptr);
  system.CollectAllGarbage();
  const std::size_t strong_before = victim->vm().GlobalRefCount();
  const std::size_t weak_before = victim->vm().WeakGlobalRefCount();
  for (int i = 0; i < 400; ++i) {
    if (!strategy->Step(system)) break;
  }
  system.CollectAllGarbage();
  const std::size_t strong_after = victim->vm().GlobalRefCount();
  const std::size_t weak_after = victim->vm().WeakGlobalRefCount();
  // ~0.5 weak slots leak per call and survive GC; the strong table (the one
  // the §V monitor watches) keeps only the in-flight window above its boot
  // baseline.
  EXPECT_GE(weak_after, weak_before + 150);
  EXPECT_LT(strong_after, strong_before + 50);
  EXPECT_EQ(strategy->stats().calls_ok, 400);
}

// --- MatrixRunner ------------------------------------------------------------

ArmsMatrix TinyMatrix() {
  ArmsMatrix matrix;
  matrix.warmup_apps = 1;
  matrix.warmup_foreground_us = 200'000;
  AttackPlan flood;
  flood.name = "flood";
  AttackPlan drip;
  drip.name = "sub_alarm_drip";
  drip.assumed_alarm_threshold = 1'000;
  matrix.attacks = {flood, drip};
  DefenseConfig none;
  none.name = "none";
  DefenseConfig quota;
  quota.name = "defender+quota";
  quota.defender = true;
  quota.alarm_threshold = 1'000;
  quota.report_threshold = 2'000;
  quota.mitigations.per_uid_quota = true;
  matrix.defenses = {none, quota};
  matrix.points = {{3'200, 1}, {6'400, 1}};
  matrix.max_calls = 4'000;
  matrix.horizon_us = 5'000'000;
  return matrix;
}

TEST(MatrixRunnerTest, GridIsByteIdenticalAcrossJobsAndImageBudgets) {
  MatrixRunner::Options serial;
  serial.jobs = 1;
  MatrixRunner a(TinyMatrix(), serial);
  EXPECT_EQ(a.cell_count(), 8u);
  const MatrixResult ra = a.Run();

  MatrixRunner::Options parallel;
  parallel.jobs = 4;
  parallel.image_budget = 1;  // 2 prefix keys on 1 slot: eviction path
  MatrixRunner b(TinyMatrix(), parallel);
  const MatrixResult rb = b.Run();

  ASSERT_EQ(ra.cells.size(), 8u);
  EXPECT_EQ(ra.boot_images, 2u);
  EXPECT_EQ(ra.GridJson().Dump(), rb.GridJson().Dump());

  // The headline mechanics hold even in the tiny grid: the unprotected
  // flood exhausts the small table, and the quota stack denies it.
  bool flood_exhausts = false, quota_denies = false;
  for (const MatrixCell& cell : ra.cells) {
    if (cell.attack == "flood" && cell.defense == "none" &&
        cell.outcome == CellOutcome::kExhausted) {
      flood_exhausts = true;
    }
    if (cell.attack == "flood" && cell.defense == "defender+quota" &&
        cell.outcome == CellOutcome::kDenied) {
      quota_denies = true;
    }
  }
  EXPECT_TRUE(flood_exhausts);
  EXPECT_TRUE(quota_denies);
  // Same-cap cells after the first ran on rewound systems.
  EXPECT_GT(ra.rewinds, 0u);
}

// A matrix cell's device under a mitigation stack, driven by the strategy
// that registers a service of its own: once the cell's stack and strategy
// are gone, Release leaves no hook behind — in particular no procfs provider
// pointing at the destroyed defender — and a rewind drops the cell's
// service.
TEST(MatrixRunnerTest, ReleasedCellDetachesAndRewinds) {
  sim::DeviceSpec spec;
  spec.WithSeed(42).WithWarmup(1, 200'000).WithBenignApps(1).WithThresholds(
      1'000, 2'000);
  const sim::DeviceFactory factory(spec);
  auto image = snapshot::SystemSnapshot::Capture(*factory.BootPrefix());
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  sim::RewindPool pool;
  std::unique_ptr<sim::DeviceSim> device =
      factory.CreateDeviceOn(pool.Restore(spec, image.value(), "cell test"));
  core::AndroidSystem& system = device->system();
  {
    MitigationStack::Config config;
    config.victim = system.system_server_pid();
    MitigationStack stack(&system, config);
    stack.Add(std::make_unique<PerUidQuota>());
    stack.Install();
    AttackPlan plan;
    plan.name = "weakref_churn";
    plan.max_calls = 200;
    std::unique_ptr<AttackStrategy> strategy = MakeStrategy(plan);
    ASSERT_TRUE(strategy->Setup(system).ok());
    while (strategy->Step(system)) {
    }
    EXPECT_TRUE(system.service_manager().GetService("weakwatch", Pid{1}).ok());
  }

  std::unique_ptr<core::AndroidSystem> released = device->Release();
  device.reset();
  EXPECT_FALSE(released->kernel().procfs().Exists("/proc/jgre_ipc_log"));
  EXPECT_EQ(released->kernel()
                .procfs()
                .Read("/proc/jgre_ipc_log", kSystemUid)
                .status()
                .code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(image.value().CanRewind(*released));
  pool.Recycle(image.value(), std::move(released));
  released = pool.Restore(spec, image.value(), "cell test");
  ASSERT_EQ(released->rewinds(), 1);
  EXPECT_FALSE(
      released->service_manager().GetService("weakwatch", Pid{1}).ok());
  auto recaptured = snapshot::SystemSnapshot::Capture(*released);
  ASSERT_TRUE(recaptured.ok());
  EXPECT_TRUE(recaptured.value().payload() == image.value().payload());
}

}  // namespace
}  // namespace jgre::arms
