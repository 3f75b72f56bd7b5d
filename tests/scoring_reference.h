// Naive reference for Algorithm 1 (paper §V.A), test-only.
//
// A literal transcription of the printed algorithm: group the app's calls by
// IPC type; for every (IPC call, JGR add) pair within max_delay, add 1 to
// every delay bucket of [MinDelay, MaxDelay] one bucket at a time; the
// type's count is the best-supported bucket (the first one on ties). Peak
// peeling (§VI, multiple attack paths) then subtracts a large constant over
// the peak's ±Δ halo, clamped to the vote axis, and takes the next peak, up
// to max_paths peaks per type. O(pairs × interval): slow, but simple enough
// to read against the paper. The scorer in src/defense is checked against
// it.
#ifndef JGRE_TESTS_SCORING_REFERENCE_H_
#define JGRE_TESTS_SCORING_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "defense/scoring.h"

namespace jgre::scoring_reference {

struct Outcome {
  std::int64_t score = 0;
  std::int64_t pairs = 0;  // (IPC, JGR) pairs that voted
  // Suppressions whose halo ran off the low / high end of the vote axis.
  int low_clamps = 0;
  int high_clamps = 0;
};

inline Outcome Score(const std::vector<defense::IpcEvent>& app_calls,
                     const std::vector<TimeUs>& jgr_add_times,
                     const defense::ScoringParams& params) {
  Outcome out;
  const std::int64_t buckets =
      (params.max_delay_us + params.delta_us) / params.bucket_us + 2;
  std::map<defense::IpcTypeKey, std::vector<TimeUs>> calls_by_type;
  for (const defense::IpcEvent& call : app_calls) {
    calls_by_type[call.type].push_back(call.t);
  }
  constexpr std::int64_t kSuppress = std::int64_t{1} << 40;
  const std::int64_t halo = params.delta_us / params.bucket_us + 1;
  for (const auto& [type, call_times] : calls_by_type) {
    std::vector<std::int64_t> votes(static_cast<std::size_t>(buckets), 0);
    bool any = false;
    for (const TimeUs ipc_time : call_times) {
      for (const TimeUs jgr_time : jgr_add_times) {
        if (jgr_time < ipc_time || jgr_time > ipc_time + params.max_delay_us) {
          continue;
        }
        const DurationUs min_delay = jgr_time - ipc_time;
        const DurationUs max_delay = min_delay + params.delta_us;
        for (DurationUs b = min_delay / params.bucket_us;
             b <= max_delay / params.bucket_us; ++b) {
          ++votes[static_cast<std::size_t>(b)];
        }
        ++out.pairs;
        any = true;
      }
    }
    if (!any) continue;
    const int paths = std::max(1, params.max_paths);
    for (int path = 0; path < paths; ++path) {
      const auto peak = std::max_element(votes.begin(), votes.end());
      if (*peak <= 0) break;
      out.score += *peak;
      const std::int64_t arg = peak - votes.begin();
      if (path + 1 == paths) break;
      out.low_clamps += arg - halo < 0 ? 1 : 0;
      out.high_clamps += arg + halo > buckets - 1 ? 1 : 0;
      const std::int64_t lo = std::max<std::int64_t>(arg - halo, 0);
      const std::int64_t hi = std::min(arg + halo, buckets - 1);
      for (std::int64_t b = lo; b <= hi; ++b) {
        votes[static_cast<std::size_t>(b)] -= kSuppress;
      }
    }
  }
  return out;
}

}  // namespace jgre::scoring_reference

#endif  // JGRE_TESTS_SCORING_REFERENCE_H_
