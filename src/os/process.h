// Simulated process control block.
#ifndef JGRE_OS_PROCESS_H_
#define JGRE_OS_PROCESS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"
#include "runtime/runtime.h"

namespace jgre::os {

// Android oom_score_adj conventions (frameworks/base ProcessList).
enum OomScoreAdj : int {
  kNativeAdj = -1000,
  kSystemAdj = -900,
  kPersistentProcAdj = -800,
  kForegroundAppAdj = 0,
  kVisibleAppAdj = 100,
  kPerceptibleAppAdj = 200,
  kServiceAdj = 500,
  kHomeAppAdj = 600,
  kPreviousAppAdj = 700,
  kServiceBAdj = 800,
  kCachedAppMinAdj = 900,
  kCachedAppMaxAdj = 906,
};

struct Process {
  Pid pid;
  Uid uid;
  std::string name;           // e.g. "system_server", "com.evil.app"
  bool alive = true;
  bool critical = false;      // death => system soft reboot (system_server)
  int oom_score_adj = kForegroundAppAdj;
  std::int64_t memory_kb = 0; // resident set size
  // File-descriptor table (§VI: another exhaustible per-process resource;
  // binder transactions can dup fds into the receiver).
  int open_fds = 32;          // stdio, sockets, jars...
  int fd_limit = 1024;        // RLIMIT_NOFILE
  TimeUs start_time_us = 0;
  // Present for Android (Java) processes, absent for native daemons.
  std::unique_ptr<rt::Runtime> runtime;
  // runtime->MutationEpoch() right after the last checkpoint restore wrote
  // (or kept) the runtime; kNoEpoch for a runtime no restore has written.
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};
  std::uint64_t restored_epoch = kNoEpoch;

  bool HasRuntime() const { return runtime != nullptr; }
};

}  // namespace jgre::os

#endif  // JGRE_OS_PROCESS_H_
