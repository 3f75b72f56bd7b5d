// bench_ablation_thresholds — ablation over the defense's two thresholds
// (alarm = start recording, report = notify the defender) and Δ, the knobs
// §V.A fixes from Observations 1 and 2. Sweeps show the trade-off the paper
// argues qualitatively: a lower report threshold reacts earlier but records
// less evidence; an alarm threshold inside the benign band (this
// reproduction's Fig 4 baseline bursts to ~1.9k under a dense monkey
// stream) false-alarms on benign workloads.
//
// BranchRunner-driven: every sweep point shares one expensive prefix — boot
// plus the full Fig-4 warmup (top-300 apps, 2 min foreground each under a
// dense 50 ms monkey event stream, stopped and GC'd back to quiescence) —
// checkpointed once and restored per branch.
// Points fan out --jobs-wide from ordered results, so stdout and JSON are
// byte-identical for any --jobs value, and (by the divergence audit)
// byte-identical to a --cold run that re-simulates the prefix per point.
// --checkpoint/--resume persist the prefix image across invocations.
#include <array>
#include <cstdio>
#include <vector>

#include "ablation.h"
#include "attack/benign_workload.h"
#include "attack/vuln_registry.h"
#include "common/log.h"
#include "defense/jgre_defender.h"
#include "experiment/experiment.h"
#include "harness/bench_report.h"
#include "harness/branch_runner.h"
#include "harness/experiment_runner.h"
#include "harness/json.h"
#include "sim/device.h"

namespace jgre::bench {
namespace {

constexpr std::array<std::size_t, 5> kReportThresholds = {
    6'000u, 8'000u, 12'000u, 20'000u, 30'000u};
constexpr std::array<std::size_t, 4> kAlarmThresholds = {1'500u, 2'500u,
                                                         4'000u, 8'000u};
constexpr std::array<DurationUs, 5> kDeltas = {79u, 500u, 1'800u, 3'583u,
                                               8'000u};

harness::Json PrintReportThresholdSweep(
    const std::vector<experiment::DefendedAttackResult>& results) {
  std::printf("\n--- report-threshold sweep (attack: clipboard, alarm=4000) "
              "---\n");
  std::printf("%-18s %12s %14s %12s %10s\n", "report_threshold",
              "jgr_at_report", "response_ms", "recovered", "pairs");
  harness::Json rows = harness::Json::Array();
  for (std::size_t i = 0; i < kReportThresholds.size(); ++i) {
    const auto& result = results[i];
    const double response_ms =
        result.incident ? result.report.response_delay_us() / 1e3 : -1;
    std::printf("%-18zu %12zu %14.1f %12s %10lld\n", kReportThresholds[i],
                result.incident ? result.report.jgr_at_report : 0, response_ms,
                result.incident && result.report.recovered ? "yes" : "NO",
                result.incident
                    ? static_cast<long long>(result.report.cost.pairs)
                    : 0);
    rows.Push(harness::Json::Object()
                  .Set("report_threshold", kReportThresholds[i])
                  .Set("jgr_at_report",
                       result.incident ? result.report.jgr_at_report : 0)
                  .Set("response_ms", response_ms)
                  .Set("recovered", result.incident && result.report.recovered)
                  .Set("pairs", result.incident ? result.report.cost.pairs
                                                : std::int64_t{0}));
  }
  return rows;
}

harness::Json PrintAlarmThresholdSweep(const std::vector<AlarmPoint>& results) {
  std::printf("\n--- alarm-threshold sweep under a purely benign workload "
              "(no attacker) ---\n");
  std::printf("%-16s %12s %12s\n", "alarm_threshold", "incidents",
              "apps_killed");
  harness::Json rows = harness::Json::Array();
  for (std::size_t i = 0; i < kAlarmThresholds.size(); ++i) {
    std::printf("%-16zu %12zu %12zu %s\n", kAlarmThresholds[i],
                results[i].incidents, results[i].kills,
                kAlarmThresholds[i] < 2000
                    ? "(inside the benign band: false alarms)"
                    : "(above the benign band: quiet)");
    rows.Push(harness::Json::Object()
                  .Set("alarm_threshold", kAlarmThresholds[i])
                  .Set("incidents", results[i].incidents)
                  .Set("apps_killed", results[i].kills));
  }
  return rows;
}

harness::Json PrintDeltaSweep(
    const std::vector<experiment::DefendedAttackResult>& results) {
  std::printf("\n--- delta sweep (single attacker, 30 benign apps) ---\n");
  std::printf("%-12s %12s %14s %12s\n", "delta_us", "malicious", "top_benign",
              "separation");
  harness::Json rows = harness::Json::Array();
  for (std::size_t i = 0; i < kDeltas.size(); ++i) {
    const auto& result = results[i];
    long long malicious = 0, benign = 0;
    if (result.incident) {
      for (const auto& entry : result.report.ranking) {
        if (entry.package == "com.evil.app") {
          malicious = entry.score;
        } else if (entry.score > benign) {
          benign = entry.score;
        }
      }
    }
    const double separation =
        benign > 0 ? static_cast<double>(malicious) / benign : 999.0;
    std::printf("%-12llu %12lld %14lld %11.1fx\n",
                static_cast<unsigned long long>(kDeltas[i]), malicious, benign,
                separation);
    rows.Push(harness::Json::Object()
                  .Set("delta_us", kDeltas[i])
                  .Set("malicious_score", malicious)
                  .Set("top_benign_score", benign)
                  .Set("separation", separation));
  }
  return rows;
}

experiment::DefendedAttackResult RunDefendedAttack(std::size_t,
                                                   sim::DeviceSim& device) {
  return experiment::Experiment(device).RunDefendedAttack();
}

}  // namespace

sim::DeviceSpec AblationPrefix(std::uint64_t seed) {
  sim::DeviceSpec prefix;
  prefix.WithSeed(seed).WithWarmup(300, 120'000'000, 50'000);
  return prefix;
}

AblationBranches RunAblationBranches(harness::BranchRunner& runner,
                                     const sim::DeviceSpec& prefix) {
  AblationBranches out;
  const attack::VulnSpec& clipboard = *attack::FindVulnerability(
      "clipboard", "addPrimaryClipChangedListener");
  out.report_threshold = runner.Run<experiment::DefendedAttackResult>(
      kReportThresholds.size(),
      [&](std::size_t i) {
        sim::DeviceSpec config = prefix;
        defense::JgreDefender::Config defender;
        defender.monitor.report_threshold = kReportThresholds[i];
        config.WithAttack(clipboard).WithDefenderConfig(defender);
        return config;
      },
      RunDefendedAttack);
  out.alarm = runner.Run<AlarmPoint>(
      kAlarmThresholds.size(),
      [&](std::size_t i) {
        sim::DeviceSpec config = prefix;
        defense::JgreDefender::Config defender;
        defender.monitor.alarm_threshold = kAlarmThresholds[i];
        defender.monitor.report_threshold = 800;  // aggressive, to expose FPs
        config.WithDefenderConfig(defender);
        return config;
      },
      [&](std::size_t, sim::DeviceSim& device) {
        attack::BenignWorkload::Options benign_options;
        // Heavy enough that system_server's JGR count bursts through the
        // measured benign band's top (~1.9k under a dense monkey stream):
        // an alarm inside the band false-alarms, one above it stays quiet.
        benign_options.app_count = 60;
        benign_options.per_app_foreground_us = 12'000'000;
        benign_options.interaction_period_us = 50'000;
        benign_options.seed = prefix.seed() + 1;
        attack::BenignWorkload workload(&device.system(), benign_options);
        workload.InstallAll();
        workload.RunMonkeySession();
        AlarmPoint point;
        point.incidents = device.defender()->incidents().size();
        for (const auto& incident : device.defender()->incidents()) {
          point.kills += incident.killed_packages.size();
        }
        return point;
      });
  const attack::VulnSpec& audio =
      *attack::FindVulnerability("audio", "startWatchingRoutes");
  out.delta = runner.Run<experiment::DefendedAttackResult>(
      kDeltas.size(),
      [&](std::size_t i) {
        sim::DeviceSpec config = prefix;
        defense::JgreDefender::Config defender;
        defender.scoring.delta_us = kDeltas[i];
        config.WithBenignApps(30).WithAttack(audio).WithDefenderConfig(
            defender);
        return config;
      },
      RunDefendedAttack);
  return out;
}

int RunAblationThresholds(const harness::HarnessSpec& spec,
                          const harness::HarnessOptions& opts) {
  SetLogLevel(LogLevel::kError);

  // Checkpointed once: the expensive phase a cold sweep would re-simulate
  // per point.
  const sim::DeviceSpec prefix = AblationPrefix(opts.seed);
  harness::BranchRunner runner(prefix, harness::BranchOptionsFromHarness(opts));
  const AblationBranches branches = RunAblationBranches(runner, prefix);
  harness::Json report_rows =
      PrintReportThresholdSweep(branches.report_threshold);
  harness::Json alarm_rows = PrintAlarmThresholdSweep(branches.alarm);
  harness::Json delta_rows = PrintDeltaSweep(branches.delta);

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    report.Set("report_threshold_sweep", std::move(report_rows))
        .Set("alarm_threshold_sweep", std::move(alarm_rows))
        .Set("delta_sweep", std::move(delta_rows));
    if (!report.Write()) return 1;
  }
  return 0;
}

}  // namespace jgre::bench
