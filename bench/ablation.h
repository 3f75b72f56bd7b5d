// The threshold/Δ ablation's 14 branches of one warmed prefix:
// `jgre_bench ablation_thresholds` prints them, and `jgre_bench snapshot`
// times them warm (restored from a checkpoint) against cold.
#ifndef JGRE_BENCH_ABLATION_H_
#define JGRE_BENCH_ABLATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "experiment/experiment.h"
#include "harness/branch_runner.h"
#include "sim/device.h"

namespace jgre::bench {

// Boot plus the full Fig-4 benign warmup (top-300 apps, 2 min foreground
// each under a dense 50 ms monkey stream, stopped and GC'd back to
// quiescence): the prefix every branch shares.
sim::DeviceSpec AblationPrefix(std::uint64_t seed);

// One alarm-threshold point under a purely benign workload.
struct AlarmPoint {
  std::size_t incidents = 0;
  std::size_t kills = 0;
};

// The three sweeps' results, one per point in sweep order.
struct AblationBranches {
  std::vector<experiment::DefendedAttackResult> report_threshold;  // 5
  std::vector<AlarmPoint> alarm;                                   // 4
  std::vector<experiment::DefendedAttackResult> delta;             // 5
};

AblationBranches RunAblationBranches(harness::BranchRunner& runner,
                                     const sim::DeviceSpec& prefix);

}  // namespace jgre::bench

#endif  // JGRE_BENCH_ABLATION_H_
