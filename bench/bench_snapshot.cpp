// bench_snapshot — measures the checkpoint/restore subsystem itself:
//   * checkpoint payload size and manifest fields for the standard ablation
//     prefix (boot + the full Fig-4 top-300 benign warmup),
//   * wall-clock capture and restore latency, and the latency of rewinding
//     a restored system that one fuzz-execution-sized drive has touched
//     back to the checkpoint in place (SystemSnapshot::RewindInto), and
//   * the end-to-end speedup BranchRunner buys bench_ablation_thresholds'
//     14-point sweep over the --cold baseline that re-simulates the shared
//     prefix per point (the figure of merit: warm mode amortizes one prefix
//     across every branch, so the sweep should run several times faster),
//     from the median warm and cold times of three sweep pairs.
//
// The sweep runs ablation_thresholds' own 14 branches (RunAblationBranches:
// report-threshold, alarm-false-positive, and delta sweeps) so the recorded
// speedup is the speedup of that bench. --checkpoint/--resume are
// honored for the warm runner, so CI can exercise the file round-trip here.
// The bench exits 1 when the speedup is under 3x or when the warm and cold
// tallies differ; the wall-clock floor is the `perf`-labelled ctest
// snapshot_sweep_speedup_floor.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "ablation.h"
#include "common/log.h"
#include "core/android_system.h"
#include "harness/bench_report.h"
#include "harness/branch_runner.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "services/clipboard_service.h"
#include "sim/device.h"
#include "snapshot/snapshot.h"

namespace jgre::bench {
namespace {

using WallClock = std::chrono::steady_clock;

// The warm/cold sweep speedup below which the bench fails.
constexpr double kMinSpeedup = 3.0;

double MsSince(WallClock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - start)
      .count();
}

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Per-mode tally over the ablation's 14 branches: a warm (restored) sweep
// must reproduce the cold sweep's results exactly, so the whole tally is
// compared, not just the incident count.
struct SweepTally {
  int incidents = 0;
  long long attacker_calls = 0;
  unsigned long long virtual_us = 0;
  bool operator==(const SweepTally&) const = default;
};

// What one fuzz execution does to a restored system: a new app registers
// 20 fresh clipboard listeners (system_server JGRs, binder nodes, death
// links), then every live runtime is collected.
void Drive(core::AndroidSystem& system) {
  services::AppProcess* app = system.InstallApp("com.snapshot.driver");
  auto clipboard = app->GetService(services::ClipboardService::kName,
                                   services::ClipboardService::kDescriptor);
  if (!clipboard.ok()) return;
  for (int i = 0; i < 20; ++i) {
    (void)clipboard.value().Call(
        services::ClipboardService::TRANSACTION_addPrimaryClipChangedListener,
        [&](binder::Parcel& p) {
          p.WriteStrongBinder(app->NewBinder("IOnPrimaryClipChangedListener"));
        });
  }
  system.CollectAllGarbage();
}

SweepTally Tally(const AblationBranches& branches) {
  SweepTally tally;
  for (const auto* sweep : {&branches.report_threshold, &branches.delta}) {
    for (const experiment::DefendedAttackResult& result : *sweep) {
      tally.incidents += result.incident ? 1 : 0;
      tally.attacker_calls += result.attacker_calls;
      tally.virtual_us += result.virtual_duration_us;
    }
  }
  for (const AlarmPoint& point : branches.alarm) {
    tally.incidents += static_cast<int>(point.incidents);
  }
  return tally;
}

}  // namespace

int RunSnapshot(const harness::HarnessSpec& spec,
                const harness::HarnessOptions& opts) {
  SetLogLevel(LogLevel::kError);

  const sim::DeviceSpec prefix = AblationPrefix(opts.seed);

  // --- capture/restore latency on the standard prefix ---
  auto prefix_start = WallClock::now();
  std::unique_ptr<core::AndroidSystem> prefix_system =
      sim::DeviceFactory(prefix).BootPrefix();
  const double prefix_ms = MsSince(prefix_start);

  constexpr int kReps = 5;
  std::vector<double> capture_samples;
  std::optional<snapshot::SystemSnapshot> snapshot;
  for (int i = 0; i < kReps; ++i) {
    auto start = WallClock::now();
    auto captured = snapshot::SystemSnapshot::Capture(*prefix_system);
    capture_samples.push_back(MsSince(start));
    if (!captured.ok()) {
      std::fprintf(stderr, "capture failed: %s\n",
                   captured.status().ToString().c_str());
      return 1;
    }
    snapshot = std::move(captured).value();
  }
  std::vector<double> restore_samples;
  for (int i = 0; i < kReps; ++i) {
    auto start = WallClock::now();
    const std::unique_ptr<core::AndroidSystem> restored =
        sim::RestorePrefix(prefix, *snapshot, "snapshot bench");
    restore_samples.push_back(MsSince(start));
  }
  std::vector<double> rewind_samples;
  {
    const std::unique_ptr<core::AndroidSystem> driven =
        sim::RestorePrefix(prefix, *snapshot, "snapshot bench");
    for (int i = 0; i < kReps; ++i) {
      Drive(*driven);
      auto start = WallClock::now();
      const Status rewound = snapshot->RewindInto(driven.get());
      rewind_samples.push_back(MsSince(start));
      if (!rewound.ok()) {
        std::fprintf(stderr, "rewind failed: %s\n",
                     rewound.ToString().c_str());
        return 1;
      }
    }
  }
  const double capture_ms = MedianMs(capture_samples);
  const double restore_ms = MedianMs(restore_samples);
  const double rewind_ms = MedianMs(rewind_samples);
  const snapshot::SnapshotManifest& manifest = snapshot->manifest();
  std::printf("\nprefix build: %.1f ms (boot + top-300 benign warmup)\n",
              prefix_ms);
  std::printf("checkpoint: %llu bytes at virtual t=%llu us\n",
              static_cast<unsigned long long>(manifest.byte_size),
              static_cast<unsigned long long>(manifest.virtual_time_us));
  std::printf("capture: %.2f ms (median of %d); restore (boot + patch): "
              "%.2f ms (median of %d)\n",
              capture_ms, kReps, restore_ms, kReps);
  std::printf("rewind (driven system, in place): %.2f ms (median of %d)\n",
              rewind_ms, kReps);
  prefix_system.reset();

  // --- warm vs cold ablation sweep (14 branches) ---
  harness::BranchOptions warm_options = harness::BranchOptionsFromHarness(opts);
  harness::BranchOptions cold_options = warm_options;
  cold_options.cold = true;
  cold_options.checkpoint_path.clear();
  cold_options.resume_path.clear();

  // One warm/cold pair read anywhere from 3.0x to 5.6x on a shared 4-vCPU
  // host, so the speedup is taken over the median of three pairs.
  constexpr int kSweepRounds = 3;
  std::vector<double> warm_samples, cold_samples;
  SweepTally warm_tally, cold_tally;
  for (int round = 0; round < kSweepRounds; ++round) {
    harness::BranchRunner warm_runner(prefix, warm_options);
    auto warm_start = WallClock::now();
    // The timed region includes the warm prefix build + capture (the
    // sweep's Prepare): the speedup is end-to-end, not just the branch
    // phase.
    warm_tally = Tally(RunAblationBranches(warm_runner, prefix));
    warm_samples.push_back(MsSince(warm_start));

    harness::BranchRunner cold_runner(prefix, cold_options);
    auto cold_start = WallClock::now();
    cold_tally = Tally(RunAblationBranches(cold_runner, prefix));
    cold_samples.push_back(MsSince(cold_start));
    if (!(warm_tally == cold_tally)) {
      std::fprintf(stderr,
                   "warm/cold sweep mismatch (incidents %d vs %d, calls %lld "
                   "vs %lld, virtual us %llu vs %llu) — branches diverged\n",
                   warm_tally.incidents, cold_tally.incidents,
                   warm_tally.attacker_calls, cold_tally.attacker_calls,
                   warm_tally.virtual_us, cold_tally.virtual_us);
      return 1;
    }
  }
  const double warm_ms = MedianMs(warm_samples);
  const double cold_ms = MedianMs(cold_samples);

  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;
  std::printf("\nablation sweep (14 branches, --jobs %d, median of %d):\n",
              opts.jobs, kSweepRounds);
  std::printf("  cold (prefix per branch): %.1f ms\n", cold_ms);
  std::printf("  warm (shared checkpoint): %.1f ms\n", warm_ms);
  std::printf("  speedup: %.2fx (target: >= %.1fx)\n", speedup, kMinSpeedup);
  std::printf("  incidents %d, attacker calls %lld, virtual time %.1f s "
              "(identical warm and cold)\n",
              warm_tally.incidents, warm_tally.attacker_calls,
              warm_tally.virtual_us / 1e6);

  if (opts.emit_json) {
    // Wall-clock bench: timings depend on the worker count, so the resolved
    // --jobs is stamped into the envelope (record_jobs).
    harness::BenchReport report(spec.name, opts, /*schema_version=*/1,
                                /*record_jobs=*/true);
    report.Set("checkpoint",
             harness::Json::Object()
                 .Set("bytes", manifest.byte_size)
                 .Set("virtual_time_us", manifest.virtual_time_us)
                 .Set("prefix_build_ms", prefix_ms)
                 .Set("capture_ms", capture_ms)
                 .Set("restore_ms", restore_ms)
                 .Set("rewind_ms", rewind_ms))
        .Set("ablation_sweep",
             harness::Json::Object()
                 .Set("branches", 14)
                 .Set("cold_ms", cold_ms)
                 .Set("warm_ms", warm_ms)
                 .Set("speedup", speedup)
                 .Set("incidents", warm_tally.incidents)
                 .Set("attacker_calls", warm_tally.attacker_calls)
                 .Set("virtual_us", warm_tally.virtual_us));
    if (!report.Write()) return 1;
  }
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: warm/cold sweep speedup %.2fx (< %.1fx)\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  return 0;
}

}  // namespace jgre::bench
