// jgrebench — campaign throughput of the jgre-sim stack, in host time.
//
//   jgrebench --workload fleet-census|fuzz-reset|defense-matrix
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Passes run on min(4, nproc) workers.
//
// Untraced (--trace 0): for S seconds, set the workload up afresh and run a
// timed pass, with a run of the host-speed probe (calibrate.cc) between
// passes; then one untimed single-worker reference pass. Every pass's output
// digest must equal the first pass's and the reference's. Each set-up and
// pass time is scaled by the mean of the probe times on either side of it,
// over the probe's time on the reference host, so that a shared host's
// drift in speed cancels. The last stdout line is one JSON object:
//   setup_s      median scaled set-up time (one set-up per pass)
//   units_per_s  median scaled per-pass throughput: devices (fleet-census),
//                fuzz executions (fuzz-reset) or matrix cells
//                (defense-matrix) per second
//   peak_rss_mb  the process's peak resident memory
// `attempted`/`failed` count units; a unit fails when its pass throws,
// reports a failed check, or its digest differs. Any failure makes the exit
// status 1 (after the result line); a usage error exits 2.
//
// `jgrebench --probe N` is the host-speed probe's child process; it prints
// the probe's time on N threads.
//
// Traced (--trace 1): every workload's traced run (see bench.h), the named
// one for S seconds and the others for one pass pair each; the JSON metrics
// are the per-layer table below.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/log.h"

namespace jgrebench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match "per_layer" in BENCHMARK.json, in order.
constexpr Metric kLayerMetrics[] = {
    // fleet-census: per-device spans (mean per call) and their shares of the
    // traced per-device task time.
    {"core.boot_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"sim.create_ms", "ms"},
    {"attack.step_us", "us"},
    {"attack.steps", "count"},
    {"attack.benign_us", "us"},
    {"attack.benign_calls", "count"},
    {"fleet.finish_ms", "ms"},
    {"sim.teardown_ms", "ms"},
    {"share.core.boot", "%"},
    {"share.snapshot.restore", "%"},
    {"share.sim.create", "%"},
    {"share.attack.step", "%"},
    {"share.attack.benign", "%"},
    {"share.fleet.finish", "%"},
    {"share.sim.teardown", "%"},
    {"fleet.trace_coverage", "%"},
    {"fleet.trace_overhead", "%"},
    {"fleet.image_builds", "count"},
    {"binder.ipc_calls", "count"},
    {"runtime.jgr_adds", "count"},
    {"core.soft_reboots", "count"},
    {"defense.incidents", "count"},
    {"sim.boot_prefix_ms", "ms"},
    {"snapshot.capture_ms", "ms"},
    {"snapshot.image_bytes", "bytes"},
    // fuzz-reset: the replayed executions' spans, the campaign's yield, and
    // the set-up layers.
    {"fuzz.reset_ms", "ms"},
    {"fuzz.execute_ms", "ms"},
    {"fuzz.teardown_ms", "ms"},
    {"share.fuzz.reset", "%"},
    {"share.fuzz.execute", "%"},
    {"share.fuzz.teardown", "%"},
    {"share.fuzz.idle", "%"},
    {"fuzz.trace_coverage", "%"},
    {"fuzz.trace_overhead", "%"},
    {"fuzz.calls_per_exec", "calls"},
    {"fuzz.executions", "count"},
    {"fuzz.run_ms", "ms"},
    {"fuzz.confirm_yield", "ratio"},
    {"fuzz.refound", "count"},
    {"fuzz.false_positives", "count"},
    {"fuzz.prepare_ms", "ms"},
    {"model.build_ms", "ms"},
    {"analysis.taint_ms", "ms"},
    {"analysis.protocol_ms", "ms"},
    // defense-matrix: MatrixRunner::Run as one span, plus the grid's counts.
    {"arms.run_ms", "ms"},
    {"arms.calls_issued", "count"},
    {"arms.denied_frac", "ratio"},
    {"arms.ipc_calls", "count"},
    {"defense.kills", "count"},
    {"arms.image_builds", "count"},
    {"arms.image_evictions", "count"},
    {"detect.catalog_ms", "ms"},
};

// Each workload with the name its units_per_s goes by on stderr.
struct WorkloadName {
  std::string_view name;
  const char* rate;
};
constexpr WorkloadName kWorkloads[] = {{"fleet-census", "devices_per_s"},
                                       {"fuzz-reset", "execs_per_s"},
                                       {"defense-matrix", "cells_per_s"}};

// Timed passes per untraced run, at least, whatever --seconds says.
constexpr int kMinPasses = 3;

// The host-speed probe's time on the host the benchmark was calibrated on
// (4 vCPUs, quiet; see README.md). Host time is reported as it would read on
// that host: a figure measured while the probe took twice as long is halved.
constexpr double kReferenceProbeSeconds = 0.35;

std::unique_ptr<Workload> Make(std::string_view name, std::uint64_t seed) {
  if (name == "fleet-census") return MakeFleetCensus(seed);
  if (name == "fuzz-reset") return MakeFuzzReset(seed);
  if (name == "defense-matrix") return MakeDefenseMatrix(seed);
  return nullptr;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Prints the result line; returns the exit code (1 if any unit failed).
int PrintResult(const Tally& tally, const std::vector<Metric>& metrics,
                 const std::vector<double>& values) {
  std::fprintf(stderr, "failed_frac %.6f (%llu of %llu units)\n",
               tally.attempted == 0
                   ? 1.0
                   : static_cast<double>(tally.failed) / tally.attempted,
               static_cast<unsigned long long>(tally.failed),
               static_cast<unsigned long long>(tally.attempted));
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", values[i]);
    if (i > 0) json += ", ";
    json += std::string("\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
}

// Runs one pass and checks it against `expected` (the first digest, once
// known). Returns false if the pass threw.
bool CheckedPass(Workload& workload, const char* label, Tally* tally,
                 std::uint64_t expected_units, const std::uint64_t* expected,
                 PassResult* pass) {
  try {
    *pass = workload.Pass();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s pass threw: %s\n", label, e.what());
    tally->attempted += expected_units;
    tally->failed += expected_units;
    return false;
  }
  tally->attempted += pass->units;
  bool ok = pass->ok;
  if (!pass->ok) std::fprintf(stderr, "FAIL: %s pass: %s\n", label,
                              pass->why.c_str());
  if (expected != nullptr && pass->digest != *expected) {
    std::fprintf(stderr, "FAIL: %s pass digest %016llx != %016llx\n", label,
                 static_cast<unsigned long long>(pass->digest),
                 static_cast<unsigned long long>(*expected));
    ok = false;
  }
  if (!ok) tally->failed += pass->units;
  std::fprintf(stderr,
               "%s pass: %llu units in %.3f s (%.2f/s), %.3f CPU s "
               "(%.2f/CPU s), %llu image builds, %llu evictions, digest "
               "%016llx\n",
               label, static_cast<unsigned long long>(pass->units),
               pass->seconds, pass->units / pass->seconds, pass->cpu_seconds,
               pass->units / pass->cpu_seconds,
               static_cast<unsigned long long>(pass->image_builds),
               static_cast<unsigned long long>(pass->image_evictions),
               static_cast<unsigned long long>(pass->digest));
  return true;
}

int RunUntraced(std::string_view name, std::uint64_t seed, double seconds,
                int jobs) {
  std::unique_ptr<Workload> workload = Make(name, seed);
  std::vector<double> setups, rates, raw_rates, probes;
  Tally tally;
  std::uint64_t first_digest = 0, units = 1;
  // Probe, then (set-up, pass, probe) until `seconds` have gone by: every
  // pass and set-up has a probe on each side, and is scaled by their mean.
  const Clock::time_point start = Clock::now();
  double probe_before = ProbeSeconds(jobs);
  probes.push_back(probe_before);
  for (int passes = 0; SecondsSince(start) < seconds || passes < kMinPasses;
       ++passes) {
    const double setup = workload->Setup(jobs);
    PassResult pass;
    const bool ran = CheckedPass(*workload, "timed", &tally, units,
                                 passes == 0 ? nullptr : &first_digest, &pass);
    const double probe_after = ProbeSeconds(jobs);
    probes.push_back(probe_after);
    const double slowdown =
        0.5 * (probe_before + probe_after) / kReferenceProbeSeconds;
    probe_before = probe_after;
    std::fprintf(stderr, "  set-up %.4f ms, probe %.4f s, slowdown %.3f\n",
                 1e3 * setup, probe_after, slowdown);
    setups.push_back(setup / slowdown);
    if (!ran) continue;
    if (rates.empty()) {
      first_digest = pass.digest;
      units = pass.units;
    }
    raw_rates.push_back(pass.units / pass.seconds);
    rates.push_back(pass.units / pass.seconds * slowdown);
  }

  // The single-worker reference: the digest must not depend on the worker
  // count.
  workload->Setup(1);
  PassResult reference;
  CheckedPass(*workload, "jobs-1 reference", &tally, units, &first_digest,
              &reference);

  const double setup_s = Median(setups), rate = Median(rates),
               peak_rss_mb = PeakRssMb();
  const char* rate_name = "units_per_s";
  for (const WorkloadName& each : kWorkloads) {
    if (each.name == name) rate_name = each.rate;
  }
  std::fprintf(stderr,
               "%.*s: %zu timed passes at jobs %d; probe median %.4f s "
               "(reference %.2f s); unscaled %s %.3f 1/s\n"
               "setup_s %.6f s, %s %.3f 1/s, peak_rss_mb %.1f MB\n",
               static_cast<int>(name.size()), name.data(), rates.size(), jobs,
               Median(probes), kReferenceProbeSeconds, rate_name,
               Median(raw_rates), setup_s, rate_name, rate, peak_rss_mb);
  return PrintResult(
      tally, {{"setup_s", "s"}, {"units_per_s", "1/s"}, {"peak_rss_mb", "MB"}},
      {setup_s, rate, peak_rss_mb});
}

int RunTraced(std::string_view name, std::uint64_t seed, double seconds,
              int jobs) {
  Layers layers;
  Tally tally;
  for (const WorkloadName& workload_name : kWorkloads) {
    const std::string_view each = workload_name.name;
    std::unique_ptr<Workload> workload = Make(each, seed);
    const Clock::time_point start = Clock::now();
    try {
      tally.attempted += workload->Trace(jobs, each == name ? seconds : 0.0,
                                         &layers, &tally.failed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL: traced %.*s threw: %s\n",
                   static_cast<int>(each.size()), each.data(), e.what());
      ++tally.attempted;
      ++tally.failed;
    }
    std::fprintf(stderr, "traced %.*s in %.1f s\n",
                 static_cast<int>(each.size()), each.data(),
                 SecondsSince(start));
  }
  std::vector<Metric> metrics;
  std::vector<double> values;
  for (const Metric& metric : kLayerMetrics) {
    const auto found = layers.find(metric.name);
    if (found == layers.end()) {
      std::fprintf(stderr, "FAIL: layer metric %s was not measured\n",
                   metric.name);
      ++tally.failed;
      continue;
    }
    std::fprintf(stderr, "  %-24s %14.4f %s\n", metric.name, found->second,
                 metric.unit);
    metrics.push_back(metric);
    values.push_back(found->second);
  }
  return PrintResult(tally, metrics, values);
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: jgrebench --workload "
               "fleet-census|fuzz-reset|defense-matrix [--seed N] "
               "[--seconds S] [--trace 0|1]\n",
               error);
  return 2;
}

// Parses a whole non-negative decimal; false on anything else.
bool ParseU64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  if (*text < '0' || *text > '9') return false;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

}  // namespace
}  // namespace jgrebench

int main(int argc, char** argv) {
  using namespace jgrebench;
  // The host-speed probe's child process (see calibrate.cc).
  std::uint64_t probe_jobs = 0;
  if (argc == 3 && std::string_view(argv[1]) == "--probe" &&
      ParseU64(argv[2], &probe_jobs) && probe_jobs >= 1 && probe_jobs <= 64) {
    std::printf("%.9f\n", RunProbe(static_cast<int>(probe_jobs)));
    return 0;
  }
  std::string_view workload;
  std::uint64_t seed = 42, seconds = 30, trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const char* value = argv[++i];
    bool parsed = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      parsed = ParseU64(value, &seed);
    } else if (flag == "--seconds") {
      parsed = ParseU64(value, &seconds) && seconds <= 3600;
    } else if (flag == "--trace") {
      parsed = ParseU64(value, &trace) && trace <= 1;
    } else {
      return Usage("unknown flag");
    }
    if (!parsed) return Usage("bad flag value");
  }
  if (Make(workload, seed) == nullptr) return Usage("unknown --workload");

  // Hundreds of devices detonate in parallel; their JNI abort messages are
  // expected and would only interleave on stderr.
  jgre::SetLogLevel(jgre::LogLevel::kNone);
  const int worker_count = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  try {
    return trace == 1
               ? RunTraced(workload, seed, static_cast<double>(seconds),
                           worker_count)
               : RunUntraced(workload, seed, static_cast<double>(seconds),
                             worker_count);
  } catch (const std::exception& e) {
    // A set-up that fails leaves nothing to measure: no result line.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
