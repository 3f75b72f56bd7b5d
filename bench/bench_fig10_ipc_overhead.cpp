// bench_fig10_ipc_overhead — regenerates Fig 10 / §V.D.2: the latency added
// to IPC calls by the defense's extended binder driver, measured by
// delivering byte arrays of increasing size (500 rounds, +1,024 bytes per
// round) with the defense off and on.
//
// Paper shape: both curves grow with payload; the defense adds at most
// ~1.247 ms per call (~46.7% on average).
//
// Factory-driven: every simulated device comes from sim::DeviceFactory
// (google-benchmark owns the CLI here, so the seed is fixed at 42).
// The second half uses google-benchmark to measure the *real* (wall-clock)
// cost of the simulator's transaction path at representative payloads.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/android_system.h"
#include "services/safe_service.h"
#include "sim/device.h"

namespace jgre::bench {
namespace {

constexpr std::uint64_t kSeed = 42;

// Virtual per-call latency for a payload of `kb` KiB.
DurationUs MeasureCall(core::AndroidSystem& system,
                       services::AppProcess* app, std::uint64_t kb) {
  auto client = app->GetService("dropbox", "android.os.IdropboxService");
  const TimeUs before = system.clock().NowUs();
  (void)client.value().Call(services::GenericSafeService::TRANSACTION_query,
                            [&](binder::Parcel& p) {
                              p.WriteInt32(0);
                              p.WriteByteArray(kb * 1024);
                            });
  return system.clock().NowUs() - before;
}

void RunVirtualSweep() {
  sim::DeviceSpec device_spec;
  device_spec.WithSeed(kSeed);
  auto device = sim::DeviceFactory(device_spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  services::AppProcess* app = system.InstallApp("com.payload.app");

  std::printf("\npayload_kb,stock_us,defense_us,overhead_us\n");
  double max_overhead_us = 0;
  double sum_ratio = 0;
  int rows = 0;
  for (std::uint64_t kb = 0; kb <= 500; kb += 10) {
    system.driver().SetDefenseLogging(false);
    const DurationUs stock = MeasureCall(system, app, kb);
    system.driver().SetDefenseLogging(true);
    const DurationUs defended = MeasureCall(system, app, kb);
    const double overhead = static_cast<double>(defended - stock);
    max_overhead_us = std::max(max_overhead_us, overhead);
    sum_ratio += overhead / static_cast<double>(stock);
    ++rows;
    std::printf("%llu,%llu,%llu,%.0f\n",
                static_cast<unsigned long long>(kb),
                static_cast<unsigned long long>(stock),
                static_cast<unsigned long long>(defended), overhead);
  }
  std::printf("\nmax overhead: %.3f ms/call (paper: 1.247 ms); mean overhead "
              "ratio: %.1f%% (paper: ~46.7%%)\n",
              max_overhead_us / 1000.0, 100.0 * sum_ratio / rows);
}

// Real wall-clock cost of the simulated transaction path.
void BM_TransactPayload(benchmark::State& state) {
  sim::DeviceSpec device_spec;
  device_spec.WithSeed(kSeed);
  auto device = sim::DeviceFactory(device_spec).CreateDevice();
  core::AndroidSystem& system = device->system();
  services::AppProcess* app = system.InstallApp("com.bench.app");
  system.driver().SetDefenseLogging(state.range(1) != 0);
  const std::uint64_t kb = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureCall(system, app, kb));
  }
}

}  // namespace

// The arguments go to google-benchmark (--benchmark_filter=... etc.).
int RunFig10IpcOverhead(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  RunVirtualSweep();
  std::printf("\nwall-clock cost of the simulated transaction path "
              "(args: payload_kb, defense_on):\n");
  benchmark::RegisterBenchmark("BM_TransactPayload", BM_TransactPayload)
      ->Args({0, 0})
      ->Args({0, 1})
      ->Args({256, 0})
      ->Args({256, 1})
      ->Args({500, 0})
      ->Args({500, 1});
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace jgre::bench
