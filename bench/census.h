// The directed verifier's census, the yardstick `jgre_bench fuzz_campaign`
// and `jgre_bench protocol_graph` cross-check their fuzz findings against,
// and the JSON form of the cross-check's id lists.
#ifndef JGRE_BENCH_CENSUS_H_
#define JGRE_BENCH_CENSUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "dynamic/verifier.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"

namespace jgre::bench {

inline harness::Json StringArray(const std::vector<std::string>& values) {
  harness::Json arr = harness::Json::Array();
  for (const std::string& v : values) arr.Push(v);
  return arr;
}

// One verdict per static candidate of `report`, in candidate order, for any
// `jobs`: 4,000 calls, a 1,200-call probe window, a GC every 250 calls.
inline std::vector<dynamic::Verdict> DirectedCensus(
    const analysis::AnalysisReport& report, const model::CodeModel& model,
    std::uint64_t seed, int jobs) {
  const dynamic::VerifyOptions options{.max_calls = 4000,
                                       .gc_every_calls = 250,
                                       .probe_calls = 1200,
                                       .seed = seed};
  const std::vector<std::size_t> candidates = report.Candidates();
  return harness::RunOrdered<dynamic::Verdict>(
      candidates.size(), jobs, [&](std::size_t i) {
        dynamic::JgreVerifier verifier(options);
        return verifier.Verify(report.interfaces[candidates[i]], model);
      });
}

}  // namespace jgre::bench

#endif  // JGRE_BENCH_CENSUS_H_
