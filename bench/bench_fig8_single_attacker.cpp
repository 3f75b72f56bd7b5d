// bench_fig8_single_attacker — regenerates Fig 8 / §V.C "Detect Single
// Malicious App": for every known vulnerability, a malicious app attacks in
// the background while the top benign apps run under the monkey; at the
// defender's identification point, the malicious app's suspicious-IPC-call
// count (jgre_score) must tower over the best-scoring benign app's.
// Paper setting: top-100 benign apps, Δ = 1.8 ms (the services' average).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "attack/vuln_registry.h"
#include "experiment/experiment.h"
#include "harness/bench_report.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "harness/obs_json.h"
#include "obs/metrics.h"
#include "sim/device.h"

namespace jgre::bench {

int RunFig8SingleAttacker(const harness::HarnessSpec& spec,
                          const harness::HarnessOptions& opts) {
  const bool quick = harness::HasFlag(opts, "--quick");

  const auto vulns = attack::SystemServerVulnerabilities();
  defense::JgreDefender::Config defender_config;
  defender_config.scoring.delta_us = 1800;
  const int benign_apps = quick ? 20 : 100;

  struct TaskResult {
    experiment::DefendedAttackResult result;
    obs::MetricsRegistry metrics;
  };
  const auto results = harness::RunOrdered<TaskResult>(
      vulns.size(), opts.jobs, [&](std::size_t i) {
        sim::DeviceSpec device_spec;
        device_spec
            .WithSeed(opts.seed + static_cast<std::uint64_t>(vulns[i].id))
            .WithBenignApps(benign_apps)
            .WithAttack(vulns[i])
            .WithDefenderConfig(defender_config);
        if (opts.emit_metrics) device_spec.WithMetrics();
        auto device = sim::DeviceFactory(device_spec).CreateDevice();
        TaskResult out;
        out.result = experiment::Experiment(*device).RunDefendedAttack();
        if (device->metrics() != nullptr) out.metrics = *device->metrics();
        return out;
      });

  std::printf("\n%-3s %-20s %-38s %10s %12s %10s\n", "#", "service",
              "interface", "malicious", "top benign", "detected");
  int detected = 0, separated = 0;
  harness::Json json_rows = harness::Json::Array();
  for (std::size_t i = 0; i < vulns.size(); ++i) {
    const attack::VulnSpec& vuln = vulns[i];
    const experiment::DefendedAttackResult& result = results[i].result;
    long long malicious_score = 0, benign_score = 0;
    if (result.incident) {
      ++detected;
      for (const auto& entry : result.report.ranking) {
        if (entry.package == "com.evil.app") {
          malicious_score = entry.score;
        } else {
          benign_score = std::max<long long>(benign_score, entry.score);
        }
      }
      if (malicious_score > 2 * benign_score) ++separated;
    }
    std::printf("%-3zu %-20s %-38s %10lld %12lld %10s\n", i + 1,
                vuln.service.c_str(), vuln.interface.c_str(), malicious_score,
                benign_score, result.incident ? "yes" : "NO");
    json_rows.Push(harness::Json::Object()
                       .Set("service", vuln.service)
                       .Set("interface", vuln.interface)
                       .Set("malicious_score", malicious_score)
                       .Set("top_benign_score", benign_score)
                       .Set("detected", result.incident));
  }
  std::printf("\ndetected %d/54 attacks; attacker scored >2x the best benign "
              "app in %d/54 (paper: the malicious count is significantly "
              "larger for all)\n",
              detected, separated);

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    report.Set("benign_apps", benign_apps)
        .Set("rows", std::move(json_rows))
        .Set("summary", harness::Json::Object()
                            .Set("detected", detected)
                            .Set("separated_2x", separated)
                            .Set("total", static_cast<int>(vulns.size())));
    if (opts.emit_metrics) {
      obs::MetricsRegistry merged;
      for (const TaskResult& task : results) merged.Merge(task.metrics);
      report.Set("metrics", harness::MetricsToJson(merged));
    }
    if (!report.Write()) return 1;
  }
  return detected == 54 ? 0 : 1;
}

}  // namespace jgre::bench
