// jgre_bench — the one bench binary. `jgre_bench <name> [options]` runs one
// of the paper's evaluation artefacts (the §IV census, Tables I-V, Figs 3-10)
// or one of the campaigns built on them. Each bench's body lives in
// bench_<name>.cpp as a run function; this file holds the table naming them
// and the CLI they share:
//
//   * a bench with a HarnessSpec takes the shared --jobs/--seed/--json/...
//     options (ParseHarnessOptions); --help exits 0, a parse error exits 2;
//   * a bench without one takes no options: any argument but --help exits 2;
//   * fig10_ipc_overhead hands its arguments to google-benchmark.
//
// The banner is printed here, after the options parsed and before the run.
// A bench's own exit code (1 for a failed gate or an unwritable --json path)
// is the process's; an exception out of a bench prints "error: <what>" and
// exits 1.
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "harness/branch_runner.h"
#include "harness/experiment_runner.h"

namespace jgre::bench {

using harness::HarnessOptions;
using harness::HarnessSpec;

int RunCensus();
int RunTable1Unprotected();
int RunTable2HelperBypass();
int RunTable3PerProcess();
int RunTable4PrebuiltApps();
int RunTable5Thirdparty();
int RunFig3AttackCurves(const HarnessSpec&, const HarnessOptions&);
int RunFig4BenignBaseline(const HarnessSpec&, const HarnessOptions&);
int RunFig5ExecGrowth(const HarnessSpec&, const HarnessOptions&);
int RunFig6ExecCdf(const HarnessSpec&, const HarnessOptions&);
int RunFig8SingleAttacker(const HarnessSpec&, const HarnessOptions&);
int RunFig9Colluding(const HarnessSpec&, const HarnessOptions&);
int RunFig10IpcOverhead(int argc, char** argv);
int RunResponseDelay(const HarnessSpec&, const HarnessOptions&);
int RunJgrRecordOverhead();
int RunAblationThresholds(const HarnessSpec&, const HarnessOptions&);
int RunExtDiscussion();
int RunMicroHotpaths(const HarnessSpec&, const HarnessOptions&);
int RunSnapshot(const HarnessSpec&, const HarnessOptions&);
int RunStaticAnalysis(const HarnessSpec&, const HarnessOptions&);
int RunFuzzCampaign(const HarnessSpec&, const HarnessOptions&);
int RunProtocolGraph(const HarnessSpec&, const HarnessOptions&);
int RunFleetCensus(const HarnessSpec&, const HarnessOptions&);
int RunDetectCensus(const HarnessSpec&, const HarnessOptions&);
int RunDefenseMatrix(const HarnessSpec&, const HarnessOptions&);

namespace {

using PlainRun = int (*)();
using HarnessRun = int (*)(const HarnessSpec&, const HarnessOptions&);
using ArgvRun = int (*)(int argc, char** argv);

struct Bench {
  const char* name;  // the bench_<name>.cpp stem
  const char* banner_id;
  const char* banner_title;
  HarnessSpec spec;  // read only for a HarnessRun
  std::variant<PlainRun, HarnessRun, ArgvRun> run;
};

// The registry. Built on each call rather than held in a static, so nothing
// runs before main. spec.name / json_name fix the JSON envelope's "bench"
// field and the default BENCH_<json_name>.json path; they predate this table
// and are not always the bench's name.
std::vector<Bench> Benches() {
  return {
      {"census", "CENSUS (paper §IV)",
       "JGRE vulnerability census of Android 6.0.1", {}, RunCensus},
      {"table1_unprotected", "TABLE I",
       "Unprotected vulnerable IPC interfaces", {}, RunTable1Unprotected},
      {"table2_helper_bypass", "TABLE II",
       "Vulnerable IPC interfaces 'protected' by service helper classes", {},
       RunTable2HelperBypass},
      {"table3_per_process", "TABLE III",
       "IPC interfaces protected by per-process constraints", {},
       RunTable3PerProcess},
      {"table4_prebuilt_apps", "TABLE IV", "Vulnerable prebuilt core apps", {},
       RunTable4PrebuiltApps},
      {"table5_thirdparty", "TABLE V",
       "Vulnerable third-party apps (market scan)", {}, RunTable5Thirdparty},
      {"fig3_attack_curves", "FIGURE 3",
       "Misuse effectiveness of the 54 vulnerable interfaces",
       {.name = "fig3_attack_curves",
        .extra_flags = {{"--curves", false,
                         "print the full per-interface CSV series"}},
        .supports_trace = true,
        .supports_metrics = true},
       RunFig3AttackCurves},
      {"fig4_benign_baseline", "FIGURE 4",
       "system_server JGR size and process count under the top-300 benign "
       "workload",
       {.name = "fig4_benign_baseline",
        .extra_flags = {{"--full", false,
                         "run the paper's full 2 min foreground per app"}}},
       RunFig4BenignBaseline},
      {"fig5_exec_growth", "FIGURE 5",
       "Execution duration of telephony.registry.listenForSubscriber during "
       "an attack",
       {.name = "fig5_exec_growth"}, RunFig5ExecGrowth},
      {"fig6_exec_cdf", "FIGURE 6",
       "CDF of execution time, 54 interfaces x 1000 calls",
       {.name = "fig6_exec_cdf"}, RunFig6ExecCdf},
      {"fig8_single_attacker", "FIGURE 8",
       "Suspicious IPC calls: malicious vs top benign app (delta = 1.8 ms)",
       {.name = "fig8_single_attacker",
        .extra_flags = {{"--quick", false,
                         "20 benign apps instead of the paper's 100"}},
        .supports_metrics = true},
       RunFig8SingleAttacker},
      {"fig9_colluding", "FIGURE 9",
       "Colluding attackers: suspicious IPC calls by top-5 apps for three "
       "deltas",
       {.name = "fig9_colluding",
        .supports_trace = true,
        .supports_metrics = true},
       RunFig9Colluding},
      {"fig10_ipc_overhead", "FIGURE 10",
       "IPC latency vs payload, stock vs defense-extended driver (virtual "
       "time)",
       {}, RunFig10IpcOverhead},
      {"response_delay", "RESPONSE DELAY (paper §V.D.1)",
       "Attack-source identification latency per vulnerability",
       {.name = "response_delay",
        .default_seed = 7,
        .extra_flags = harness::BranchFlags(),
        .supports_metrics = true},
       RunResponseDelay},
      {"jgr_record_overhead", "JGR RECORD OVERHEAD (paper §V.D.2)",
       "Per-operation cost of the extended runtime's JGR recording", {},
       RunJgrRecordOverhead},
      {"ablation_thresholds", "ABLATION: THRESHOLDS & DELTA",
       "Sensitivity of the defense's detection knobs",
       {.name = "ablation_thresholds", .extra_flags = harness::BranchFlags()},
       RunAblationThresholds},
      {"ext_discussion", "DISCUSSION EXTENSIONS (paper §VI)",
       "Other-resource DoS and multi-path attackers", {}, RunExtDiscussion},
      {"micro_hotpaths", "MICRO HOTPATHS",
       "wall-clock cost of the simulation core",
       {.name = "micro_hotpaths", .json_name = "perf"}, RunMicroHotpaths},
      {"snapshot", "SNAPSHOT",
       "Checkpoint size, save/restore latency, and the BranchRunner sweep "
       "speedup",
       {.name = "snapshot", .extra_flags = harness::BranchFlags()},
       RunSnapshot},
      {"static_analysis", "STATIC ANALYSIS",
       "Summary-based interprocedural taint engine with witness paths",
       {.name = "analysis",
        .extra_flags =
            {{"--analysis-json", true,
              "also write the full per-interface witness report to PATH"},
             {"--min-precision", true,
              "fail unless candidate precision vs the census >= X (default "
              "0.9)"},
             {"--min-recall", true,
              "fail unless candidate recall vs the census >= X (default "
              "1.0)"}}},
       RunStaticAnalysis},
      {"fuzz_campaign", "FUZZ CAMPAIGN",
       "Coverage-guided binder IPC fuzzing with snapshot-based resets",
       {.name = "fuzz",
        .extra_flags = harness::BranchFlags(
            {{"--budget", true,
              "screening executions across all rounds (default 240)"},
             {"--min-refound", true,
              "fail unless >= N census interfaces are re-found (default "
              "10)"},
             {"--min-speedup", true,
              "fail unless warm/cold exec throughput ratio >= X (default "
              "3.0)"}})},
       RunFuzzCampaign},
      {"protocol_graph", "PROTOCOL DATAFLOW GRAPH",
       "Cross-transaction retention chains and dependency-aware fuzzing",
       {.name = "protocol",
        .extra_flags = harness::BranchFlags(
            {{"--budget", true,
              "screening executions per campaign (default 240)"},
             {"--min-refound", true,
              "fail unless the protocol-seeded campaign re-finds >= N census "
              "interfaces (default 54)"}})},
       RunProtocolGraph},
      {"fleet_census", "FLEET CENSUS",
       "Heterogeneous device fleet from warmed boot images",
       {.name = "fleet_census",
        .json_name = "fleet",
        .extra_flags = {{"--small", false,
                         "small CI matrix (2 caps, 3 scenarios, 24 "
                         "devices)"}}},
       RunFleetCensus},
      {"detect_census", "DETECTION CENSUS",
       "Hunt battery over static, fuzz, and fleet evidence",
       {.name = "detect_census",
        .json_name = "detect",
        .extra_flags = {{"--budget", true,
                         "fuzz screening executions (default 48)"},
                        {"--list-hunts", false,
                         "print each hunt id with its declared data sources "
                         "and exit"}}},
       RunDetectCensus},
      {"defense_matrix", "DEFENSE-VS-ATTACK MATRIX",
       "Attack strategies x mitigations x operating points",
       {.name = "defense_matrix",
        .json_name = "matrix",
        .extra_flags = {{"--small", false,
                         "small CI matrix (2 caps, 4 attacks, 40 cells)"}}},
       RunDefenseMatrix},
  };
}

void PrintUsage(const std::vector<Bench>& benches, std::FILE* out) {
  std::fprintf(out,
               "usage: jgre_bench <name> [options]\n"
               "       jgre_bench <name> --help   (the bench's options)\n"
               "\nbenches:\n");
  for (const Bench& bench : benches) {
    std::fprintf(out, "  %-22s %s — %s\n", bench.name, bench.banner_id,
                 bench.banner_title);
  }
}

void PrintBanner(const Bench& bench) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", bench.banner_id, bench.banner_title);
  std::printf("================================================================\n");
}

}  // namespace

int Main(int argc, char** argv) {
  const std::vector<Bench> benches = Benches();
  if (argc < 2) {
    std::fprintf(stderr, "error: no bench named\n");
    PrintUsage(benches, stderr);
    return 2;
  }
  const std::string_view name = argv[1];
  if (name == "--help" || name == "-h") {
    PrintUsage(benches, stdout);
    return 0;
  }
  const Bench* bench = nullptr;
  for (const Bench& candidate : benches) {
    if (candidate.name == name) bench = &candidate;
  }
  if (bench == nullptr) {
    std::fprintf(stderr, "error: unknown bench '%s'\n", argv[1]);
    PrintUsage(benches, stderr);
    return 2;
  }

  // The bench's own command line; its argv[0] names it in usage text.
  std::string command = "jgre_bench " + std::string(name);
  std::vector<char*> args = {command.data()};
  args.insert(args.end(), argv + 2, argv + argc);
  const int bench_argc = static_cast<int>(args.size());
  args.push_back(nullptr);

  if (const auto* run = std::get_if<ArgvRun>(&bench->run)) {
    PrintBanner(*bench);
    return (*run)(bench_argc, args.data());
  }
  if (const auto* run = std::get_if<PlainRun>(&bench->run)) {
    if (bench_argc > 1) {
      const std::string_view arg = args[1];
      const bool help = bench_argc == 2 && (arg == "--help" || arg == "-h");
      if (!help) std::fprintf(stderr, "error: unknown option '%s'\n", args[1]);
      std::fprintf(help ? stdout : stderr,
                   "usage: %s\n  (takes no options)\n", command.c_str());
      return help ? 0 : 2;
    }
    PrintBanner(*bench);
    return (*run)();
  }
  const HarnessOptions opts =
      harness::ParseHarnessOptions(bench->spec, bench_argc, args.data());
  if (opts.help) return 0;
  if (!opts.error.empty()) return 2;
  PrintBanner(*bench);
  return std::get<HarnessRun>(bench->run)(bench->spec, opts);
}

}  // namespace jgre::bench

int main(int argc, char** argv) {
  try {
    return jgre::bench::Main(argc, argv);
  } catch (const std::exception& e) {
    // A runner that cannot prepare or restore (a bad --resume image, an
    // unwritable --checkpoint path) throws; that is an error, not an abort.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
