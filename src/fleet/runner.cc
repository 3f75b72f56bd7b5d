#include "fleet/runner.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/strings.h"
#include "detect/registry.h"
#include "harness/experiment_runner.h"
#include "obs/event_bus.h"

namespace jgre::fleet {

namespace {

// Newest victim-kJgr/kIpc events the probe keeps for the hunt pass. Bounds
// per-device memory; the activity counters it feeds rates from are full-
// stream, so only provenance slices (not verdicts) see the truncation.
constexpr std::size_t kHuntWindowCapacity = 2048;

}  // namespace

DeviceOutcome RunDeviceScenario(const FleetDeviceSpec& spec,
                                sim::DeviceSim& device,
                                const detect::InterfaceCatalog* catalog) {
  DeviceOutcome out;
  out.index = spec.index;
  out.scenario_class = spec.scenario_class;

  core::AndroidSystem& system = device.system();
  DeviceProbe probe(system.system_server_pid().value(), kHuntWindowCapacity);
  device.bus().Subscribe(&probe,
                         obs::MaskOf(obs::Category::kJgr) |
                             obs::MaskOf(obs::Category::kIpc),
                         /*pid_filter=*/-1, obs::Delivery::kBuffered);

  defense::JgreDefender* defender = device.defender();
  attack::MaliciousApp* attacker = device.attacker();
  services::AppProcess* attacker_process = device.attacker_process();
  attack::BenignWorkload* benign = device.benign();
  std::vector<TimeUs>& next_benign = device.benign_schedule();
  Rng& rng = device.rng();
  const int max_calls = device.spec().max_attacker_calls();

  const TimeUs start = system.clock().NowUs();
  const TimeUs deadline = start + spec.horizon_us;
  TimeUs exhausted_at = 0;
  int calls = 0;

  const auto pump_benign = [&] {
    const TimeUs now = system.clock().NowUs();
    for (std::size_t i = 0; i < next_benign.size(); ++i) {
      if (now >= next_benign[i]) {
        benign->InteractOnce(i);
        next_benign[i] =
            system.clock().NowUs() + 20'000 + rng.UniformU64(130'000);
      }
    }
  };

  while (system.clock().NowUs() < deadline) {
    if (defender != nullptr && !defender->incidents().empty()) break;
    if (attacker != nullptr) {
      if (!attacker_process->alive() || calls >= max_calls) break;
      (void)attacker->Step();
      ++calls;
      // The slow-drip profile: idle between calls, letting periodic GC run
      // and rate-based monitors cool down.
      if (spec.think_time_us > 0) system.clock().AdvanceUs(spec.think_time_us);
      pump_benign();
    } else if (!next_benign.empty()) {
      // Benign-only device: jump to the earliest scheduled interaction (or
      // the horizon, whichever is sooner) and fire what is due.
      const TimeUs earliest =
          *std::min_element(next_benign.begin(), next_benign.end());
      const TimeUs target = std::min(std::max(earliest, system.clock().NowUs()),
                                     deadline);
      if (target > system.clock().NowUs()) {
        system.clock().AdvanceUs(target - system.clock().NowUs());
      }
      pump_benign();
    } else {
      // No attacker, no benign apps: nothing can happen before the horizon.
      system.clock().AdvanceUs(deadline - system.clock().NowUs());
      break;
    }
    if (system.soft_reboots() > 0) {
      exhausted_at = system.clock().NowUs();
      break;
    }
  }

  out.exhausted = system.soft_reboots() > 0;
  if (out.exhausted) {
    if (exhausted_at == 0) exhausted_at = system.clock().NowUs();
    out.time_to_exhaustion_us = exhausted_at - start;
    out.exhausted_within_horizon = out.time_to_exhaustion_us <= spec.horizon_us;
  }
  out.incident = defender != nullptr && !defender->incidents().empty();
  out.attacker_killed =
      attacker_process != nullptr && !attacker_process->alive();
  out.virtual_duration_us = system.clock().NowUs() - start;

  FinishDeviceOutcome(device, probe, catalog, &out);
  return out;
}

void FinishDeviceOutcome(sim::DeviceSim& device, DeviceProbe& probe,
                         const detect::InterfaceCatalog* catalog,
                         DeviceOutcome* out) {
  core::AndroidSystem& system = device.system();
  defense::JgreDefender* defender = device.defender();

  // Settle the runtimes before reducing the probe: a final collection strips
  // in-flight transient references, so the hunts below see *retention* — the
  // paper's exploitability criterion — rather than garbage the next GC would
  // have reclaimed anyway.
  system.CollectAllGarbage();

  // Unsubscribe drains the probe's staged events first — the read barrier.
  device.bus().Unsubscribe(&probe);
  out->ipc_calls = probe.ipc_calls();
  out->jgr_adds = probe.jgr_adds();
  out->peak_jgr = probe.peak_jgr();
  out->peak_weak_jgr = probe.peak_weak_jgr();

  // The per-device hunt pass: every trace-driven hunt in the standard
  // battery over what the probe observed (the static and fuzz hunts skip
  // themselves — no analysis report or finding list here).
  static const detect::HuntRegistry& registry = *[] {
    return new detect::HuntRegistry(detect::HuntRegistry::WithDefaultHunts());
  }();
  const std::vector<obs::TraceEvent> window = probe.Window();
  detect::DataSources sources;
  sources.trace_events = window.data();
  sources.trace_event_count = window.size();
  sources.jgr_activity = probe.jgr_activity();
  sources.victim_pid = probe.victim_pid();
  sources.victim_name = "system_server";
  sources.defender = defender;
  sources.descriptor_name = [&system](std::uint32_t id) {
    return system.driver().DescriptorName(id);
  };
  sources.catalog = catalog;
  out->detections = registry.RunAll(sources, detect::Scope{});
  for (const detect::Detection& detection : out->detections) {
    ++out->hunt_hits[detection.hunt];
  }
}

FleetRunner::FleetRunner(std::vector<FleetDeviceSpec> fleet,
                         FleetOptions options)
    : fleet_(std::move(fleet)),
      options_(options),
      cache_(options_.max_images) {}

Status FleetRunner::Prepare() {
  if (prepared_) return Status::Ok();
  std::set<std::uint64_t> keys;
  key_of_.resize(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    key_of_[i] = sim::PrefixKey(fleet_[i].device);
    keys.insert(key_of_[i]);
  }
  distinct_keys_ = keys.size();
  prepared_ = true;
  return Status::Ok();
}

std::shared_ptr<const snapshot::SystemSnapshot> FleetRunner::Image(
    std::size_t index) {
  const sim::DeviceSpec& spec = fleet_[index].device;
  auto image = cache_.Get(key_of_[index], [&spec] {
    sim::DeviceFactory factory(spec);
    std::unique_ptr<core::AndroidSystem> warmed = factory.BootPrefix();
    return snapshot::SystemSnapshot::Capture(*warmed);
  });
  if (!image.ok()) {
    throw std::runtime_error(StrCat("FleetRunner (device ", index,
                                    "): boot image build failed: ",
                                    image.status().ToString()));
  }
  return std::move(image).value();
}

FleetResult FleetRunner::Run() {
  Status prepared = Prepare();
  if (!prepared.ok()) throw std::runtime_error(prepared.ToString());

  FleetResult result;
  result.image_count = distinct_keys_;
  sim::RewindPool pool;
  result.outcomes = harness::RunOrdered<DeviceOutcome>(
      fleet_.size(), options_.jobs, [this, &pool](std::size_t i) {
        const std::shared_ptr<const snapshot::SystemSnapshot> image = Image(i);
        sim::DeviceFactory factory(fleet_[i].device);
        std::unique_ptr<sim::DeviceSim> device = factory.CreateDeviceOn(
            pool.Restore(fleet_[i].device, *image,
                         StrCat("FleetRunner (device ", i, ")")));
        DeviceOutcome outcome =
            options_.scenario_driver
                ? options_.scenario_driver(fleet_[i], *device,
                                           options_.catalog)
                : RunDeviceScenario(fleet_[i], *device, options_.catalog);
        pool.Recycle(*image, device->Release());
        return outcome;
      });
  pool.Drain();
  result.rewinds = pool.rewinds();
  result.image_builds = cache_.builds();
  result.image_evictions = cache_.evictions();
  // Fold in submission order; MergeFrom-based shard folds land on the same
  // bytes (the sketch-merge invariance the tests pin).
  for (const DeviceOutcome& outcome : result.outcomes) {
    result.aggregator.Absorb(outcome);
  }
  return result;
}

}  // namespace jgre::fleet
