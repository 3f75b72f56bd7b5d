// bench_fig4_benign_baseline — regenerates Fig 4 / Observation 1: with the
// top-300 popular apps exercised by MonkeyRunner (three rounds of 100 due to
// storage limits, 2 minutes foreground each), system_server's JGR table size
// oscillates in the low thousands (paper: 1,000–3,000) and the low memory
// killer keeps the process count bounded (paper: 382–421).
//
// Factory-driven: the booted device comes from sim::DeviceFactory (shared
// CLI: --seed/--json); the three monkey rounds then run on
// device->system() with the Fig-4 sampler attached. Full fidelity (--full) runs
// the paper's 2 minutes of foreground monkey time per app (~36,000 virtual
// seconds); the default trims it to 12 s per app, which preserves the
// oscillation/bounds the figure shows.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "attack/benign_workload.h"
#include "common/log.h"
#include "core/android_system.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "sim/device.h"

namespace jgre::bench {

int RunFig4BenignBaseline(const harness::HarnessSpec& spec,
                          const harness::HarnessOptions& opts) {
  SetLogLevel(LogLevel::kError);
  const bool quick = !harness::HasFlag(opts, "--full");

  sim::DeviceSpec device_spec;
  device_spec.WithSeed(opts.seed);
  auto device = sim::DeviceFactory(device_spec).CreateDevice();
  core::AndroidSystem& system = device->system();

  struct Sample {
    TimeUs t;
    std::size_t jgr;
    std::size_t processes;
  };
  std::vector<Sample> samples;
  auto sampler = [&](TimeUs t) {
    samples.push_back(Sample{t, system.SystemServerJgrCount(),
                             system.kernel().LiveProcessCount()});
  };

  for (int round = 0; round < 3; ++round) {
    attack::BenignWorkload::Options options;
    options.app_count = 100;
    options.seed = 100 + static_cast<std::uint64_t>(round);
    options.per_app_foreground_us = quick ? 12'000'000 : 120'000'000;
    attack::BenignWorkload workload(&system, options);
    workload.InstallAll();
    workload.RunMonkeySession(sampler, 5'000'000);
    // Round ends: uninstall nothing (storage model), but stop the apps, as
    // the paper reflashes between rounds of 100.
    for (const std::string& package : workload.packages()) {
      system.StopApp(package);
    }
    system.CollectAllGarbage();
  }

  std::size_t jgr_min = ~0ULL, jgr_max = 0, proc_min = ~0ULL, proc_max = 0;
  for (const Sample& s : samples) {
    jgr_min = std::min(jgr_min, s.jgr);
    jgr_max = std::max(jgr_max, s.jgr);
    proc_min = std::min(proc_min, s.processes);
    proc_max = std::max(proc_max, s.processes);
  }
  std::printf("\ntime_s,jgr_size,process_count\n");
  harness::Json rows = harness::Json::Array();
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 120);
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    std::printf("%.0f,%zu,%zu\n", samples[i].t / 1e6, samples[i].jgr,
                samples[i].processes);
    rows.Push(harness::Json::Object()
                  .Set("time_s", samples[i].t / 1e6)
                  .Set("jgr_size", samples[i].jgr)
                  .Set("process_count", samples[i].processes));
  }
  std::printf("\nsystem_server JGR size range: %zu–%zu (paper: ~1000–3000; "
              "threshold 51200 is never approached)\n",
              jgr_min, jgr_max);
  std::printf("process count range: %zu–%zu (paper: 382–421, LMK-bounded)\n",
              proc_min, proc_max);
  std::printf("LMK kills during the run: %lld\n",
              static_cast<long long>(system.kernel().lmk()->total_kills()));

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    report.Set("quick", quick)
        .Set("samples", std::move(rows))
        .Set("jgr_min", jgr_min)
        .Set("jgr_max", jgr_max)
        .Set("process_min", proc_min)
        .Set("process_max", proc_max)
        .Set("lmk_kills", system.kernel().lmk()->total_kills());
    if (!report.Write()) return 1;
  }
  return 0;
}

}  // namespace jgre::bench
