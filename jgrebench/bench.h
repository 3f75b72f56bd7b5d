// Shared pieces of the jgrebench campaign benchmark: the workload interface
// main.cc times, the per-layer span accumulators the traced runs fill, and
// the output digest the correctness gate compares.
//
// Every span here is taken from the benchmark's own code, around a call into
// a public function of one simulator module; nothing inside src/ is
// instrumented.
#ifndef JGREBENCH_BENCH_H_
#define JGREBENCH_BENCH_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace jgrebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time the process has used so far, every thread's user and system time
// together. Unlike wall time it leaves out the time workers sit idle.
inline double CpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * now.tv_nsec;
}

// FNV-1a over the bytes of a deterministic output (a census JSON, a matrix
// grid, a findings listing).
inline std::uint64_t Digest(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Busy time and call count at one layer boundary.
struct Span {
  double seconds = 0.0;
  std::uint64_t count = 0;

  void Add(double s) {
    seconds += s;
    ++count;
  }
  void Merge(const Span& other) {
    seconds += other.seconds;
    count += other.count;
  }
  double MeanMs() const { return count == 0 ? 0.0 : seconds * 1e3 / count; }
  double MeanUs() const { return count == 0 ? 0.0 : seconds * 1e6 / count; }
};

// Times one call: `span.Add` gets the seconds `fn` took.
template <typename Fn>
decltype(auto) Timed(Span& span, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  struct Stop {
    Span& span;
    Clock::time_point start;
    ~Stop() { span.Add(SecondsSince(start)); }
  } stop{span, start};
  return fn();
}

// One untraced pass of a workload. `seconds` covers only the public entry
// point the workload times (FleetRunner::Run, CampaignRunner::Run,
// MatrixRunner::Run); digesting and checking happen outside it.
struct PassResult {
  double seconds = 0.0;
  double cpu_seconds = 0.0;  // CPU time of the same span, all threads
  std::uint64_t units = 0;  // devices, fuzz executions or matrix cells
  std::uint64_t digest = 0;
  std::uint64_t image_builds = 0;     // boot images built during the pass
  std::uint64_t image_evictions = 0;  // boot images evicted during the pass
  bool ok = true;     // workload-specific check (e.g. no false positives)
  std::string why;    // set when !ok
};

// Per-layer metrics by name; their units live in main.cc's metric table.
using Layers = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds everything a pass needs at `jobs` workers, dropping any previous
  // state first, and returns the seconds the build took (the set-up time).
  // main.cc calls it before every timed pass.
  virtual double Setup(int jobs) = 0;

  // One timed pass over the state Setup() built.
  virtual PassResult Pass() = 0;

  // The traced run: set up, run untraced and traced passes (the traced ones
  // through the same public calls, span by span) until `seconds` have gone
  // by (at least one pair), check the traced digest against the untraced
  // one, and add this workload's layer metrics to `out`. Returns the units
  // attempted; failures are added to `failed` and described on stderr.
  virtual std::uint64_t Trace(int jobs, double seconds, Layers* out,
                              std::uint64_t* failed) = 0;
};

// Wall seconds a fixed host-speed probe takes per thread when `jobs`
// threads run it at once (calibrate.cc): RunProbe runs it in this process,
// ProbeSeconds in a child process. Throws if the child fails.
double RunProbe(int jobs);
double ProbeSeconds(int jobs);

std::unique_ptr<Workload> MakeFleetCensus(std::uint64_t seed);
std::unique_ptr<Workload> MakeFuzzReset(std::uint64_t seed);
std::unique_ptr<Workload> MakeDefenseMatrix(std::uint64_t seed);

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n == 0 ? 0.0
         : n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Share of `part` in `whole`, in percent.
inline double Percent(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

}  // namespace jgrebench

#endif  // JGREBENCH_BENCH_H_
