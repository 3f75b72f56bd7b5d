// The host-speed probe main.cc runs between timed passes.
//
// A shared host's speed drifts by tens of percent over minutes as other
// tenants come and go, and the drift moves a pass's wall time and CPU time
// alike. The probe is a fixed piece of work in the same style as the
// simulator's hot paths (node-based maps, small heap objects, hashing) on
// the same number of threads, so it slows down when a pass would. It is
// compiled from this directory only: no change under src/ alters it.
//
// It runs in a child process (this program, `--probe N`), so that neither
// its memory nor its use of the allocator touches the benchmark process:
// the peak resident memory reported is the workload's alone.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"

extern char** environ;

namespace jgrebench {
namespace {

std::uint64_t SplitMix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// One thread's share: a churned hash table of small vectors and an ordered
// map, about 4 MB live. Returns a checksum so the work cannot be elided.
std::uint64_t ProbeWork(std::uint64_t seed) {
  constexpr std::uint64_t kKeys = 1 << 15;
  constexpr int kRounds = 600000;
  std::uint64_t state = seed;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> table;
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::uint64_t sum = 0;
  for (int i = 0; i < kRounds; ++i) {
    const std::uint64_t r = SplitMix(&state);
    std::vector<std::uint32_t>& slot = table[r % kKeys];
    slot.push_back(static_cast<std::uint32_t>(i));
    if (slot.size() > 12) {
      sum += slot.front();
      table.erase(r % kKeys);
    }
    ordered[(r >> 20) % kKeys] += r;
    if (i % 3 == 0) {
      const auto it = ordered.lower_bound((r >> 40) % kKeys);
      if (it != ordered.end()) {
        sum ^= it->second;
        ordered.erase(it);
      }
    }
  }
  return sum + table.size() + ordered.size();
}

[[noreturn]] void Fail(const char* what) {
  throw std::runtime_error(std::string("host-speed probe: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

double RunProbe(int jobs) {
  std::vector<double> seconds(jobs);
  std::vector<std::uint64_t> sums(jobs);
  std::vector<std::thread> threads;
  for (int j = 0; j < jobs; ++j) {
    threads.emplace_back([&seconds, &sums, j] {
      const Clock::time_point start = Clock::now();
      sums[j] = ProbeWork(j + 1);
      seconds[j] = SecondsSince(start);
    });
  }
  for (std::thread& t : threads) t.join();
  // The checksum depends on nothing but the constants above; storing it
  // keeps the work from being optimised away.
  static volatile std::uint64_t sink;
  double total = 0.0;
  for (int j = 0; j < jobs; ++j) {
    sink = sink + sums[j];
    total += seconds[j];
  }
  // The mean thread, not the slowest: one thread's hiccup should not
  // count as the whole host slowing down.
  return total / jobs;
}

double ProbeSeconds(int jobs) {
  int out[2];
  if (pipe(out) != 0) Fail("pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::string self = "/proc/self/exe", flag = "--probe",
              count = std::to_string(jobs);
  char* argv[] = {self.data(), flag.data(), count.data(), nullptr};
  pid_t child = 0;
  const int spawned =
      posix_spawn(&child, self.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  if (spawned != 0) {
    close(out[0]);
    errno = spawned;
    Fail("spawn");
  }
  std::string text;
  char buffer[64];
  for (ssize_t n; (n = read(out[0], buffer, sizeof buffer)) != 0;) {
    if (n > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  close(out[0]);
  int status = 0;
  while (waitpid(child, &status, 0) < 0) {
    if (errno != EINTR) Fail("waitpid");
  }
  char* end = nullptr;
  const double seconds = std::strtod(text.c_str(), &end);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || end == text.c_str() ||
      !(seconds > 0.0)) {
    errno = 0;
    Fail("the child process failed");
  }
  return seconds;
}

}  // namespace jgrebench
