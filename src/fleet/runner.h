// FleetRunner — the campaign service: N heterogeneous device simulations
// across the work-stealing pool, each cloned from a small set of warmed
// JGRESNAP boot images.
//
// Lifecycle per campaign:
//   1. Prepare(): group the fleet's devices by sim::PrefixKey (boot seed +
//      system config + warmup). Each distinct key gets ONE warmed boot image
//      — built via DeviceFactory::BootPrefix and captured in memory — so a
//      324-device census over 4 JGR-cap points boots exactly 4 prefixes.
//      Images live in an LRU BootImageCache: FleetOptions::max_images is a
//      residency *budget*, not a cap on distinct keys — a fleet with more
//      prefix diversity than slots just rebuilds cold keys on re-use
//      (deterministically: BootPrefix reproduces the same bytes).
//   2. Run(): harness::RunOrdered over the devices. Each task takes a
//      system at its group's image from a sim::RewindPool — a finished
//      device's system, already rewound in place, or a fresh boot restored
//      from the image when the pool has none for that image — completes the
//      device with DeviceFactory::CreateDeviceOn, runs its scenario (flood,
//      drip, or benign-only) to its horizon, and reduces to a DeviceOutcome.
//      Then DeviceSim::Release detaches the device and the pool rewinds the
//      system and keeps it for a later device of the same image (a fresh
//      boot displaces a pooled system, so there is one system per worker;
//      drained before Run returns). A rewind is byte-exact, so
//      results do not depend on which system served a device. Results land
//      in submission order and the aggregator folds them in that order, so
//      the census is byte-identical for any --jobs.
#ifndef JGRE_FLEET_RUNNER_H_
#define JGRE_FLEET_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <functional>

#include "common/status.h"
#include "detect/catalog.h"
#include "fleet/aggregator.h"
#include "fleet/image_cache.h"
#include "fleet/spec.h"
#include "sim/device.h"
#include "snapshot/snapshot.h"

namespace jgre::fleet {

// Replaces the built-in scenario loop for a device: given the resolved spec
// and a freshly restored device, run whatever drive loop the campaign wants
// and reduce it to a DeviceOutcome. The arms-race MatrixRunner uses this to
// run AttackStrategy/MitigationPolicy cells on fleet infrastructure.
using ScenarioDriver = std::function<DeviceOutcome(
    const FleetDeviceSpec&, sim::DeviceSim&, const detect::InterfaceCatalog*)>;

struct FleetOptions {
  int jobs = 1;
  // Residency budget for warmed boot images (LRU eviction past it). More
  // distinct prefix keys than this is fine — cold keys rebuild on re-use.
  std::size_t max_images = 4;
  // Optional (descriptor, code) -> interface identity table for the per-
  // device hunt pass. With it, trace-hunt detections carry the code-model
  // interface ids the static and fuzz hunts use, so a census consumer can
  // fuse across modalities; without it they key on "<descriptor>#<code>".
  const detect::InterfaceCatalog* catalog = nullptr;
  // Custom per-device drive loop; default runs RunDeviceScenario.
  ScenarioDriver scenario_driver;
};

struct FleetResult {
  FleetAggregator aggregator;
  std::vector<DeviceOutcome> outcomes;  // device (submission) order
  // Distinct prefix keys the fleet used. Deterministic, unlike the rebuild
  // counters below, which depend on worker arrival order when the fleet
  // overflows the image budget.
  std::size_t image_count = 0;
  std::uint64_t image_builds = 0;
  std::uint64_t image_evictions = 0;
  // Devices served by rewinding a pooled system instead of a fresh boot;
  // scheduling-dependent like the rebuild counters, so console-only.
  std::uint64_t rewinds = 0;
};

// Runs one device's scenario to completion and reduces it, including the
// trace-driven hunt pass over the probe's retained window. Exposed so tests
// can drive a single device without a runner.
DeviceOutcome RunDeviceScenario(const FleetDeviceSpec& spec,
                                sim::DeviceSim& device,
                                const detect::InterfaceCatalog* catalog =
                                    nullptr);

// The reduction tail every scenario driver shares: settle-GC the runtimes,
// drain and unsubscribe the probe, fill the outcome's stream counters, and
// run the trace-driven hunt battery over the probe's retained window.
// RunDeviceScenario ends with this; custom ScenarioDrivers (the arms matrix)
// call it so their cells get the identical hunt pass.
void FinishDeviceOutcome(sim::DeviceSim& device, DeviceProbe& probe,
                         const detect::InterfaceCatalog* catalog,
                         DeviceOutcome* out);

class FleetRunner {
 public:
  FleetRunner(std::vector<FleetDeviceSpec> fleet, FleetOptions options);

  // Maps every device to its prefix key. Idempotent; Run() calls it
  // implicitly. Images themselves build lazily on first use.
  Status Prepare();

  // Runs every device; throws (like BranchRunner) if a restore fails
  // mid-campaign, naming the device index.
  FleetResult Run();

  // Distinct prefix keys after Prepare() (0 before).
  std::size_t image_count() const { return distinct_keys_; }
  const std::vector<FleetDeviceSpec>& fleet() const { return fleet_; }
  const BootImageCache& image_cache() const { return cache_; }

 private:
  // Device `index`'s boot image, built on first use (or after an eviction).
  std::shared_ptr<const snapshot::SystemSnapshot> Image(std::size_t index);

  std::vector<FleetDeviceSpec> fleet_;
  FleetOptions options_;
  bool prepared_ = false;
  BootImageCache cache_;
  std::vector<std::uint64_t> key_of_;  // device index -> prefix key
  std::size_t distinct_keys_ = 0;
};

}  // namespace jgre::fleet

#endif  // JGRE_FLEET_RUNNER_H_
