// BranchRunner — checkpoint a shared experiment prefix once, then fan out N
// independent branches across the work-stealing pool.
//
// Parameter sweeps (threshold ablations, scoring sensitivity, response-delay
// curves) share an identical expensive prefix: boot + warmup workload. A
// cold sweep re-simulates that prefix once per point; BranchRunner builds it
// once, captures a snapshot::SystemSnapshot, and restores each branch from
// the shared in-memory image — preserving RunOrdered's submission-order
// determinism, so a sweep's output is byte-identical for --jobs 1 and
// --jobs N, and (by the divergence audit) byte-identical to the cold sweep.
//
// CLI integration: benches declare BranchFlags() in their HarnessSpec and
// feed the parsed options through BranchOptionsFromHarness to get
//   --cold               re-simulate the prefix per branch (baseline mode)
//   --checkpoint FILE    write the captured checkpoint (+ JSON manifest)
//   --resume FILE        load the prefix checkpoint instead of building it
#ifndef JGRE_HARNESS_BRANCH_RUNNER_H_
#define JGRE_HARNESS_BRANCH_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "harness/experiment_runner.h"
#include "sim/device.h"
#include "snapshot/snapshot.h"

namespace jgre::harness {

struct BranchOptions {
  int jobs = 1;
  bool cold = false;            // rebuild the prefix per branch
  std::string checkpoint_path;  // write the checkpoint after capture
  std::string resume_path;      // load the checkpoint instead of building
};

// The three branch flags followed by `extra`, ready for
// HarnessSpec::extra_flags.
std::vector<HarnessFlag> BranchFlags(std::vector<HarnessFlag> extra = {});

// Extracts jobs/--cold/--checkpoint/--resume from parsed harness options.
BranchOptions BranchOptionsFromHarness(const HarnessOptions& options);

class BranchRunner {
 public:
  // `prefix` defines the shared phase: seed, system config, and warmup
  // (sim::DeviceSpec::WithWarmup). Branch specs passed to Run must share the
  // prefix's sim::PrefixKey (same boot seed/system config/warmup) so that a
  // cold branch rebuilds the exact prefix the snapshot captured.
  BranchRunner(sim::DeviceSpec prefix, BranchOptions options);

  // Builds the shared prefix and captures it (or loads --resume). No-op in
  // cold mode and on repeated calls. Separate from Run so callers can time
  // the prefix/capture phases; Run calls it implicitly.
  Status Prepare();

  // Runs `count` branches, at most options.jobs concurrently, results in
  // submission order. Branch i is configured by branch_spec(i) — its device
  // built on a system restored from the shared checkpoint (or a cold prefix
  // under --cold) — then handed to task(i, device).
  template <typename Result>
  std::vector<Result> Run(
      std::size_t count,
      const std::function<sim::DeviceSpec(std::size_t)>& branch_spec,
      const std::function<Result(std::size_t, sim::DeviceSim&)>& task) {
    if (!options_.cold) {
      Status prepared = Prepare();
      if (!prepared.ok()) {
        throw std::runtime_error(prepared.ToString());
      }
    }
    std::vector<Result> results = RunOrdered<Result>(
        count, options_.jobs, [this, &branch_spec, &task](std::size_t i) {
          sim::DeviceFactory factory(branch_spec(i));
          std::unique_ptr<sim::DeviceSim> device =
              options_.cold ? factory.CreateDevice()
                            : factory.CreateDeviceOn(RestoreBranchSystem(i));
          Result result = task(i, *device);
          RecycleBranchSystem(device->Release());
          return result;
        });
    DrainBranchSystems();
    return results;
  }

  // The captured checkpoint (null before Prepare or in cold mode).
  const snapshot::SystemSnapshot* snapshot() const {
    return snapshot_.has_value() ? &*snapshot_ : nullptr;
  }
  const BranchOptions& options() const { return options_; }

  // A system at the shared checkpoint, from the reset pool
  // (sim::RewindPool): a recycled system the pool rewound in place, or a
  // freshly restored one when the pool has none. The fuzz campaign's
  // snapshot-reset loop calls it per execution, Run per branch; Run hands
  // each branch's system back through DeviceSim::Release, which detaches
  // the device's hooks first. A restore failure throws with the failing
  // shard/branch index (when given) and the checkpoint's manifest path, so a
  // corrupt image is attributable mid-campaign. Thread-safe.
  std::unique_ptr<core::AndroidSystem> RestoreBranchSystem(
      std::optional<std::size_t> branch_index = std::nullopt) const;

  // Returns a system RestoreBranchSystem handed out, once its execution is
  // done, to the reset pool, which rewinds it and keeps it for the next
  // reset (never more systems than executions ran at once: one per worker).
  // Drops everything before Prepare and in cold mode. Thread-safe.
  void RecycleBranchSystem(std::unique_ptr<core::AndroidSystem> system) const;
  // Destroys the pooled systems, so their memory does not outlive the
  // campaign phase that filled the pool. Thread-safe.
  void DrainBranchSystems() const { pool_.Drain(); }

 private:
  sim::DeviceSpec prefix_;
  BranchOptions options_;
  std::optional<snapshot::SystemSnapshot> snapshot_;
  // A cache behind the const reset interface.
  mutable sim::RewindPool pool_;
};

}  // namespace jgre::harness

#endif  // JGRE_HARNESS_BRANCH_RUNNER_H_
