// The unified per-device simulation API.
//
// Before this layer, a simulated device could be built three divergent ways
// (ExperimentConfig::Build, ExperimentConfig::BuildPrefix + BuildOn, and the
// branch-phase Experiment(config, system) constructor). DeviceFactory is now
// the ONE construction path every consumer goes through — the experiment
// scenario driver, harness::BranchRunner, the fuzzer's CampaignRunner, and
// the fleet::FleetRunner:
//
//   sim::DeviceSpec spec;
//   spec.WithSeed(42).WithBenignApps(10).WithAttack(vuln).WithDefense();
//   sim::DeviceFactory factory(spec);
//   std::unique_ptr<sim::DeviceSim> device = factory.CreateDevice();
//
// A DeviceSim owns ALL per-device state: the AndroidSystem (and with it the
// per-device kernel, binder driver, EventBus, and label interner), the
// installed defender, the trace/metrics sinks, the benign workload plus its
// interaction schedule, and the attacker. Nothing is aliased between two
// DeviceSims — two devices can be built, run, and destroyed on different
// threads with no shared mutable state, which is what lets the fleet layer
// run hundreds of heterogeneous devices across the work-stealing pool.
//
// Seed derivation (identical to the historical builder): the system boots
// with `seed`, the warmup workload draws from `seed + 3`; the scenario phase
// draws from `scenario_seed` (default: `seed`) — benign workload from
// `scenario_seed + 1`, the interaction scheduler from `scenario_seed + 2`.
// Splitting the scenario seed from the boot seed is what lets many fleet
// devices share one warmed boot image (same boot seed → same snapshot) while
// still running decorrelated scenarios.
//
// The build is split at the checkpoint boundary: BootPrefix() boots the
// device and runs the shared warmup workload to the quiescent state
// snapshot::SystemSnapshot captures, and CreateDeviceOn(system) completes
// the scenario on any such system — freshly built or restored from a
// checkpoint. CreateDevice() is CreateDeviceOn(BootPrefix()).
#ifndef JGRE_SIM_DEVICE_H_
#define JGRE_SIM_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attack/benign_workload.h"
#include "attack/malicious_app.h"
#include "attack/vuln_registry.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/android_system.h"
#include "defense/jgre_defender.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace jgre::snapshot {
class SystemSnapshot;
}

namespace jgre::sim {

// Declarative description of one simulated device plus its scenario. Pure
// data; DeviceFactory is the only thing that turns a spec into live state.
class DeviceSpec {
 public:
  DeviceSpec& WithSeed(std::uint64_t seed) {
    seed_ = seed;
    return *this;
  }
  // Decorrelates the scenario phase (benign workload, interaction schedule)
  // from the boot/warmup seed. Defaults to the boot seed, preserving the
  // historical single-seed behavior byte-for-byte.
  DeviceSpec& WithScenarioSeed(std::uint64_t seed) {
    scenario_seed_ = seed;
    return *this;
  }
  // Base system configuration; its seed is overridden by WithSeed.
  DeviceSpec& WithSystemConfig(const core::SystemConfig& config) {
    system_config_ = config;
    return *this;
  }
  DeviceSpec& WithBenignApps(int count) {
    benign_apps_ = count;
    return *this;
  }
  DeviceSpec& WithAttack(const attack::VulnSpec& vuln) {
    vuln_ = vuln;
    return *this;
  }
  DeviceSpec& WithAttackPackage(std::string package) {
    attack_package_ = std::move(package);
    return *this;
  }
  DeviceSpec& WithDefense(bool enabled = true) {
    defense_ = enabled;
    return *this;
  }
  DeviceSpec& WithDefenderConfig(const defense::JgreDefender::Config& config) {
    defense_ = true;
    defender_config_ = config;
    return *this;
  }
  DeviceSpec& WithThresholds(std::size_t alarm, std::size_t report) {
    defense_ = true;
    defender_config_.monitor.alarm_threshold = alarm;
    defender_config_.monitor.report_threshold = report;
    return *this;
  }
  DeviceSpec& WithMaxAttackerCalls(int calls) {
    max_attacker_calls_ = calls;
    return *this;
  }
  // Buffer TraceEvents of the masked categories for Chrome-trace export.
  DeviceSpec& WithTrace(obs::CategoryMask mask = obs::kAllCategories) {
    trace_ = true;
    trace_mask_ = mask;
    return *this;
  }
  // Fold the event stream into a MetricsRegistry (DeviceSim::metrics()).
  DeviceSpec& WithMetrics() {
    metrics_ = true;
    return *this;
  }
  // Shared warmup prefix: after boot, run one benign monkey session over
  // `apps` apps (each foregrounded for `foreground_us`, package prefix
  // "com.warm.app", seed + 3), then stop them all and collect garbage —
  // leaving the device at the populated-but-quiescent state BranchRunner
  // checkpoints. `interaction_period_us` overrides the monkey's event
  // period (0 = the workload default) for denser warmup streams.
  DeviceSpec& WithWarmup(int apps, DurationUs foreground_us = 120'000'000,
                         DurationUs interaction_period_us = 0) {
    warmup_apps_ = apps;
    warmup_foreground_us_ = foreground_us;
    warmup_interaction_period_us_ = interaction_period_us;
    return *this;
  }

  std::uint64_t seed() const { return seed_; }
  std::uint64_t scenario_seed() const {
    return scenario_seed_.value_or(seed_);
  }
  const core::SystemConfig& system_config() const { return system_config_; }
  int benign_apps() const { return benign_apps_; }
  const std::optional<attack::VulnSpec>& vuln() const { return vuln_; }
  const std::string& attack_package() const { return attack_package_; }
  bool defense() const { return defense_; }
  const defense::JgreDefender::Config& defender_config() const {
    return defender_config_;
  }
  int max_attacker_calls() const { return max_attacker_calls_; }
  bool trace() const { return trace_; }
  obs::CategoryMask trace_mask() const { return trace_mask_; }
  bool metrics() const { return metrics_; }
  int warmup_apps() const { return warmup_apps_; }
  DurationUs warmup_foreground_us() const { return warmup_foreground_us_; }
  DurationUs warmup_interaction_period_us() const {
    return warmup_interaction_period_us_;
  }

 private:
  std::uint64_t seed_ = 42;
  std::optional<std::uint64_t> scenario_seed_;
  core::SystemConfig system_config_;
  int benign_apps_ = 0;
  std::optional<attack::VulnSpec> vuln_;
  std::string attack_package_ = "com.evil.app";
  bool defense_ = false;
  defense::JgreDefender::Config defender_config_;
  int max_attacker_calls_ = 60'000;
  bool trace_ = false;
  obs::CategoryMask trace_mask_ = obs::kAllCategories;
  bool metrics_ = false;
  int warmup_apps_ = 0;
  DurationUs warmup_foreground_us_ = 120'000'000;
  DurationUs warmup_interaction_period_us_ = 0;
};

// Hash over exactly the fields that shape BootPrefix() output: the boot
// seed, the system configuration, and the warmup workload. Two specs with
// equal prefix keys build byte-identical quiescent systems, so a snapshot of
// one is a valid reset/clone image for the other — the property the fleet
// layer uses to serve hundreds of heterogeneous devices from a handful of
// warmed boot images.
std::uint64_t PrefixKey(const DeviceSpec& spec);

// The fresh reset path: boots a new system from `spec`'s system config and
// boot seed and restores `image`, a checkpoint of a prefix with the same
// PrefixKey, into it. Throws std::runtime_error("<context>: restore failed:
// ...") when the restore fails, so the caller's context names the shard or
// device that hit it. RewindPool serves resets from rewound systems and
// falls back to this.
std::unique_ptr<core::AndroidSystem> RestorePrefix(
    const DeviceSpec& spec, const snapshot::SystemSnapshot& image,
    std::string_view context);

// The reset pool: systems that finished a run, rewound in place to the
// checkpoint they were restored from and waiting to serve the next run from
// it. Recycle rewinds a system as soon as its run is done
// (SystemSnapshot::RewindInto), so the pool holds systems at the
// checkpoint, not the garbage their runs left behind. A system the image
// cannot rewind exactly (SystemSnapshot::CanRewind fails: a soft reboot, a
// hook left installed, another image) or whose rewind fails is destroyed
// instead, never reused.
//
// Restore takes the most recently recycled system the image can rewind.
// With none, it restores fresh (RestorePrefix) and first destroys the
// oldest pooled system, whose place the new one takes: so the pooled
// systems and those in flight never outnumber the runs in flight at once
// (one per worker), as when every run booted its own. Keeping the
// displaced systems for later runs of their image left fleet-census peak
// RSS ~7% higher. Thread-safe.
class RewindPool {
 public:
  // A system at `image`'s checkpoint: a pooled one rewound to this very
  // image, else RestorePrefix(spec, image, context).
  std::unique_ptr<core::AndroidSystem> Restore(
      const DeviceSpec& spec, const snapshot::SystemSnapshot& image,
      std::string_view context);
  // Takes back a system Restore handed out for `image`, once its run is
  // done and everything the run installed is detached, and rewinds it.
  void Recycle(const snapshot::SystemSnapshot& image,
               std::unique_ptr<core::AndroidSystem> system);
  // Destroys the pooled systems, so their memory does not outlive the phase
  // that filled the pool.
  void Drain();

  // Restores served by a pooled system rather than a fresh boot.
  std::uint64_t rewinds() const { return rewinds_.load(); }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<core::AndroidSystem>> systems_;  // oldest first
  std::atomic<std::uint64_t> rewinds_{0};
};

// One live simulated device. Owns every piece of per-device state; never
// shares interned tables, observability sinks, or RNG streams with another
// DeviceSim. Single-use: build one per run; when the run is done, Release()
// hands the system back for a RewindPool to rewind into the next device.
class DeviceSim {
 public:
  ~DeviceSim();

  // Destroys what the constructor installed, in reverse order — attacker,
  // benign workload, metrics sink, trace sink, then the defender (which
  // clears its pump extension, post-reboot hook, bus taps and procfs file)
  // — and returns the system, detached. The device is empty afterwards;
  // call nothing else on it. A system that did not soft-reboot is then
  // AndroidSystem::Rewindable(), provided whatever else the run installed
  // (a mitigation stack's gate, a probe's subscription) is gone too.
  std::unique_ptr<core::AndroidSystem> Release();

  DeviceSim(const DeviceSim&) = delete;
  DeviceSim& operator=(const DeviceSim&) = delete;

  core::AndroidSystem& system() { return *system_; }
  obs::EventBus& bus() { return system_->kernel().bus(); }
  const DeviceSpec& spec() const { return spec_; }
  // Null unless the corresponding With* was configured.
  defense::JgreDefender* defender() { return defender_.get(); }
  attack::MaliciousApp* attacker() { return attacker_.get(); }
  services::AppProcess* attacker_process() { return attacker_process_; }
  attack::BenignWorkload* benign() { return benign_.get(); }
  // Trace/metrics sinks ride the bus's buffered (batched) delivery; these
  // accessors flush staged events first so reads always see a complete view.
  obs::TraceBuffer* trace();
  obs::MetricsRegistry* metrics();
  // The scenario RNG stream (scenario_seed + 2). The benign interaction
  // schedule below was drawn from this stream at build time; scenario
  // drivers keep drawing from it so the combined stream matches the
  // historical single-owner behavior exactly.
  Rng& rng() { return rng_; }
  // Next interaction due-time per benign app (index-aligned with
  // benign()->packages()). Scenario drivers advance these as they fire.
  std::vector<TimeUs>& benign_schedule() { return next_benign_; }

  // Serializes the trace buffer as Chrome-trace JSON (process names resolved
  // against the kernel's process table). False if tracing is off or the
  // write fails.
  bool WriteChromeTrace(const std::string& path);

 private:
  friend class DeviceFactory;
  DeviceSim(const DeviceSpec& spec,
            std::unique_ptr<core::AndroidSystem> system);

  DeviceSpec spec_;
  Rng rng_;
  std::unique_ptr<core::AndroidSystem> system_;  // first: destroyed last
  std::unique_ptr<defense::JgreDefender> defender_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::MetricsSink> metrics_sink_;
  std::unique_ptr<attack::BenignWorkload> benign_;
  std::vector<TimeUs> next_benign_;
  services::AppProcess* attacker_process_ = nullptr;
  std::unique_ptr<attack::MaliciousApp> attacker_;
};

// THE construction path. Fixes the setup order once (boot → warmup →
// defense install → observability subscriptions → benign workload + schedule
// → attacker install) so every consumer shares it byte-for-byte.
class DeviceFactory {
 public:
  explicit DeviceFactory(DeviceSpec spec) : spec_(std::move(spec)) {}

  // Builds just the shared prefix: a booted (and warmed-up) quiescent
  // system, before any defense/benign/attacker setup. This is the state
  // snapshot::SystemSnapshot captures and the fleet layer clones.
  std::unique_ptr<core::AndroidSystem> BootPrefix() const;

  // Completes the scenario on an existing prefix system — the output of
  // BootPrefix(), or a fresh Boot()ed system restored from a checkpoint of
  // one. The system must have been built from this spec's boot seed and
  // system config.
  std::unique_ptr<DeviceSim> CreateDeviceOn(
      std::unique_ptr<core::AndroidSystem> system) const;

  // Boots the device and performs the whole setup sequence.
  std::unique_ptr<DeviceSim> CreateDevice() const {
    return CreateDeviceOn(BootPrefix());
  }

  const DeviceSpec& spec() const { return spec_; }

 private:
  DeviceSpec spec_;
};

}  // namespace jgre::sim

#endif  // JGRE_SIM_DEVICE_H_
