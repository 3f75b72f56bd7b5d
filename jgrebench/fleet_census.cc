// fleet-census: the default 324-device FleetMatrix (4 JGR caps x 9 scenarios
// x 3 defense points x 3 benign populations) cloned from 4 warmed boot
// images and run through FleetRunner::Run.
//
// Set-up builds the runner and fills its image cache before timing starts:
// FleetRunner builds images lazily inside Run(), so without this the first
// timed pass would pay for all four boot prefixes.
//
// The traced pass drives every device through the public calls
// FleetRunner::Run makes (AndroidSystem ctor + Boot, SystemSnapshot::
// RestoreInto, DeviceFactory::CreateDeviceOn, then RunDeviceScenario's loop
// of MaliciousApp::Step / BenignWorkload::InteractOnce, FinishDeviceOutcome,
// ~DeviceSim) with a span around each, and must reproduce the untraced
// census byte for byte.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/strings.h"
#include "core/android_system.h"
#include "fleet/aggregator.h"
#include "fleet/image_cache.h"
#include "fleet/runner.h"
#include "fleet/spec.h"
#include "harness/experiment_runner.h"
#include "obs/event_bus.h"
#include "sim/device.h"
#include "snapshot/snapshot.h"

namespace jgrebench {
namespace {

using jgre::Status;
using jgre::TimeUs;
namespace core = jgre::core;
namespace fleet = jgre::fleet;
namespace obs = jgre::obs;
namespace sim = jgre::sim;
namespace snapshot = jgre::snapshot;

// FleetRunner's hunt-window size (fleet/runner.cc). The traced census digest
// is compared with the untraced one, so a drift here fails the run.
constexpr std::size_t kHuntWindowCapacity = 2048;

// The spans of one traced device.
struct DeviceTrace {
  fleet::DeviceOutcome outcome;
  Span boot, restore, create, step, benign, finish, teardown;
  double task_seconds = 0.0;
};

// RunDeviceScenario's drive loop with a span around each call into the
// attack and fleet modules.
fleet::DeviceOutcome DriveScenario(const fleet::FleetDeviceSpec& spec,
                                   sim::DeviceSim& device, DeviceTrace* t) {
  fleet::DeviceOutcome out;
  out.index = spec.index;
  out.scenario_class = spec.scenario_class;

  core::AndroidSystem& system = device.system();
  fleet::DeviceProbe probe(system.system_server_pid().value(),
                           kHuntWindowCapacity);
  device.bus().Subscribe(&probe,
                         obs::MaskOf(obs::Category::kJgr) |
                             obs::MaskOf(obs::Category::kIpc),
                         /*pid_filter=*/-1, obs::Delivery::kBuffered);

  jgre::defense::JgreDefender* defender = device.defender();
  jgre::attack::MaliciousApp* attacker = device.attacker();
  jgre::services::AppProcess* attacker_process = device.attacker_process();
  jgre::attack::BenignWorkload* benign = device.benign();
  std::vector<TimeUs>& next_benign = device.benign_schedule();
  jgre::Rng& rng = device.rng();
  const int max_calls = device.spec().max_attacker_calls();

  const TimeUs start = system.clock().NowUs();
  const TimeUs deadline = start + spec.horizon_us;
  TimeUs exhausted_at = 0;
  int calls = 0;

  const auto pump_benign = [&] {
    const TimeUs now = system.clock().NowUs();
    for (std::size_t i = 0; i < next_benign.size(); ++i) {
      if (now >= next_benign[i]) {
        Timed(t->benign, [&] { benign->InteractOnce(i); });
        next_benign[i] =
            system.clock().NowUs() + 20'000 + rng.UniformU64(130'000);
      }
    }
  };

  while (system.clock().NowUs() < deadline) {
    if (defender != nullptr && !defender->incidents().empty()) break;
    if (attacker != nullptr) {
      if (!attacker_process->alive() || calls >= max_calls) break;
      Timed(t->step, [&] { (void)attacker->Step(); });
      ++calls;
      if (spec.think_time_us > 0) system.clock().AdvanceUs(spec.think_time_us);
      pump_benign();
    } else if (!next_benign.empty()) {
      const TimeUs earliest =
          *std::min_element(next_benign.begin(), next_benign.end());
      const TimeUs target =
          std::min(std::max(earliest, system.clock().NowUs()), deadline);
      if (target > system.clock().NowUs()) {
        system.clock().AdvanceUs(target - system.clock().NowUs());
      }
      pump_benign();
    } else {
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

  Timed(t->finish, [&] {
    fleet::FinishDeviceOutcome(device, probe, /*catalog=*/nullptr, &out);
  });
  return out;
}

// FleetRunner::RestoreDevice plus the per-device task body of
// FleetRunner::Run, span by span.
DeviceTrace TraceDevice(const fleet::FleetDeviceSpec& spec,
                        const snapshot::SystemSnapshot& image) {
  DeviceTrace t;
  const Clock::time_point start = Clock::now();
  sim::DeviceFactory factory(spec.device);
  core::SystemConfig config = spec.device.system_config();
  config.seed = spec.device.seed();
  std::unique_ptr<core::AndroidSystem> system = Timed(t.boot, [&] {
    auto booted = std::make_unique<core::AndroidSystem>(config);
    booted->Boot();
    return booted;
  });
  const Status restored =
      Timed(t.restore, [&] { return image.RestoreInto(system.get()); });
  if (!restored.ok()) {
    throw std::runtime_error(jgre::StrCat("traced device ", spec.index,
                                          ": restore failed: ",
                                          restored.ToString()));
  }
  std::unique_ptr<sim::DeviceSim> device = Timed(
      t.create, [&] { return factory.CreateDeviceOn(std::move(system)); });
  t.outcome = DriveScenario(spec, *device, &t);
  Timed(t.teardown, [&] { device.reset(); });
  t.task_seconds = SecondsSince(start);
  return t;
}

class FleetCensus final : public Workload {
 public:
  explicit FleetCensus(std::uint64_t seed) : seed_(seed) {}

  double Setup(int jobs) override {
    runner_.reset();
    images_.clear();
    const Clock::time_point start = Clock::now();
    fleet::FleetMatrix matrix;
    matrix.seed = seed_;
    fleet::FleetOptions options;
    options.jobs = jobs;
    options.max_images = 4;
    runner_ = std::make_unique<fleet::FleetRunner>(fleet::ExpandMatrix(matrix),
                                                   options);
    if (Status status = runner_->Prepare(); !status.ok()) {
      throw std::runtime_error(status.ToString());
    }
    // FleetRunner hands its cache out read-only; the runner itself is ours
    // and not const, so filling the cache through it is defined. The builder
    // is the one FleetRunner::RestoreDevice uses.
    auto& cache = const_cast<fleet::BootImageCache&>(runner_->image_cache());
    for (const fleet::FleetDeviceSpec& spec : runner_->fleet()) {
      const std::uint64_t key = sim::PrefixKey(spec.device);
      if (images_.count(key) != 0) continue;
      auto image = cache.Get(key, [&] { return BuildImage(spec.device); });
      if (!image.ok()) throw std::runtime_error(image.status().ToString());
      images_[key] = image.value();
    }
    return SecondsSince(start);
  }

  PassResult Pass() override {
    const fleet::BootImageCache& cache = runner_->image_cache();
    const std::uint64_t builds = cache.builds();
    const std::uint64_t evictions = cache.evictions();
    const Clock::time_point start = Clock::now();
    const double cpu_start = CpuSeconds();
    const fleet::FleetResult result = runner_->Run();
    PassResult pass;
    pass.seconds = SecondsSince(start);
    pass.cpu_seconds = CpuSeconds() - cpu_start;
    pass.units = result.outcomes.size();
    pass.digest = Digest(result.aggregator.ToJson().Dump());
    pass.image_builds = result.image_builds - builds;
    pass.image_evictions = result.image_evictions - evictions;
    return pass;
  }

  std::uint64_t Trace(int jobs, double seconds, Layers* out,
                      std::uint64_t* failed) override {
    prefix_ = {};
    capture_ = {};
    image_bytes_ = 0;
    Setup(jobs);

    Span boot, restore, create, step, benign, finish, teardown;
    double task_seconds = 0.0;
    std::vector<double> plain_rate, traced_rate;
    std::uint64_t attempted = 0, builds = 0;
    std::int64_t ipc_calls = 0, jgr_adds = 0, soft_reboots = 0, incidents = 0;
    const Clock::time_point start = Clock::now();
    do {
      const PassResult plain = Pass();
      attempted += plain.units;
      builds += plain.image_builds;
      plain_rate.push_back(plain.units / plain.seconds);

      const Clock::time_point traced_start = Clock::now();
      const std::vector<DeviceTrace> devices = TracedPass(jobs);
      traced_rate.push_back(devices.size() / SecondsSince(traced_start));
      attempted += devices.size();
      fleet::FleetAggregator aggregator;
      for (const DeviceTrace& d : devices) {
        aggregator.Absorb(d.outcome);
        boot.Merge(d.boot);
        restore.Merge(d.restore);
        create.Merge(d.create);
        step.Merge(d.step);
        benign.Merge(d.benign);
        finish.Merge(d.finish);
        teardown.Merge(d.teardown);
        task_seconds += d.task_seconds;
        ipc_calls += d.outcome.ipc_calls;
        jgr_adds += d.outcome.jgr_adds;
        soft_reboots += d.outcome.exhausted ? 1 : 0;
        incidents += d.outcome.incident ? 1 : 0;
      }
      if (Digest(aggregator.ToJson().Dump()) != plain.digest) {
        std::fprintf(stderr, "FAIL: traced fleet census differs from the "
                             "untraced one\n");
        *failed += devices.size();
      }
    } while (SecondsSince(start) < seconds);

    const double passes = static_cast<double>(plain_rate.size());
    const double covered = boot.seconds + restore.seconds + create.seconds +
                           step.seconds + benign.seconds + finish.seconds +
                           teardown.seconds;
    Layers& l = *out;
    l["core.boot_ms"] = boot.MeanMs();
    l["snapshot.restore_ms"] = restore.MeanMs();
    l["sim.create_ms"] = create.MeanMs();
    l["attack.step_us"] = step.MeanUs();
    l["attack.steps"] = step.count / passes;
    l["attack.benign_us"] = benign.MeanUs();
    l["attack.benign_calls"] = benign.count / passes;
    l["fleet.finish_ms"] = finish.MeanMs();
    l["sim.teardown_ms"] = teardown.MeanMs();
    l["share.core.boot"] = Percent(boot.seconds, task_seconds);
    l["share.snapshot.restore"] = Percent(restore.seconds, task_seconds);
    l["share.sim.create"] = Percent(create.seconds, task_seconds);
    l["share.attack.step"] = Percent(step.seconds, task_seconds);
    l["share.attack.benign"] = Percent(benign.seconds, task_seconds);
    l["share.fleet.finish"] = Percent(finish.seconds, task_seconds);
    l["share.sim.teardown"] = Percent(teardown.seconds, task_seconds);
    l["fleet.trace_coverage"] = Percent(covered, task_seconds);
    const double plain_median = Median(plain_rate);
    l["fleet.trace_overhead"] =
        Percent(plain_median - Median(traced_rate), plain_median);
    l["fleet.image_builds"] = builds / passes;
    l["binder.ipc_calls"] = ipc_calls / passes;
    l["runtime.jgr_adds"] = jgr_adds / passes;
    l["core.soft_reboots"] = soft_reboots / passes;
    l["defense.incidents"] = incidents / passes;
    l["sim.boot_prefix_ms"] = prefix_.MeanMs();
    l["snapshot.capture_ms"] = capture_.MeanMs();
    l["snapshot.image_bytes"] =
        prefix_.count == 0 ? 0.0 : image_bytes_ / prefix_.count;
    return attempted;
  }

 private:
  // FleetRunner::RestoreDevice's image builder, with spans around the boot
  // prefix and the capture.
  jgre::Result<snapshot::SystemSnapshot> BuildImage(
      const sim::DeviceSpec& spec) {
    std::unique_ptr<core::AndroidSystem> warmed =
        Timed(prefix_, [&] { return sim::DeviceFactory(spec).BootPrefix(); });
    auto image = Timed(capture_, [&] {
      return snapshot::SystemSnapshot::Capture(*warmed);
    });
    if (image.ok()) image_bytes_ += image.value().manifest().byte_size;
    return image;
  }

  // Every device through TraceDevice, on the images Setup() built.
  std::vector<DeviceTrace> TracedPass(int jobs) {
    const std::vector<fleet::FleetDeviceSpec>& specs = runner_->fleet();
    return jgre::harness::RunOrdered<DeviceTrace>(
        specs.size(), jobs, [&](std::size_t i) {
          return TraceDevice(specs[i],
                             *images_.at(sim::PrefixKey(specs[i].device)));
        });
  }

  std::uint64_t seed_;
  std::unique_ptr<fleet::FleetRunner> runner_;
  // The runner's boot images by prefix key, as Setup() put them in its cache.
  std::map<std::uint64_t, std::shared_ptr<const snapshot::SystemSnapshot>>
      images_;
  Span prefix_, capture_;  // image builds, set-up included
  double image_bytes_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetCensus(std::uint64_t seed) {
  return std::make_unique<FleetCensus>(seed);
}

}  // namespace jgrebench
