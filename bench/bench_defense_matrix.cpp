// bench_defense_matrix — the arms race: every AttackStrategy against every
// defense configuration at every table-cap operating point, one full device
// simulation per cell (default: 125 cells — 5 caps x 5 attacks x 5 defenses,
// from 5 warmed boot images on a 4-image LRU budget).
//
// The matrix is the paper's §V evaluation generalized past its own defender:
// the "defender" column reproduces the kill-based alarm/report monitor, and
// the three mitigation columns stack the proactive admission policies modern
// follow-up work proposes on top of it. The cell the whole bench exists for:
// flood at cap 6,400 *exhausts straight through the defender* (cap - alarm =
// 2,400 adds is under the 12,000-add report threshold, so the table dies
// before the monitor ever reports) — and the same flood under
// defender+quota is denied at 1,500 charged refs. Evasion cells are
// cross-checked against the follow-up hunt battery (followup.slow-drip,
// followup.death-churn), so "the defender missed it" and "a hunt saw it
// anyway" land in the same row.
//
// Determinism contract: cells land in submission order, each cell's scenario
// seed is MixFleetSeed(seed, index), and GridJson() carries only
// jobs-invariant fields — stdout and BENCH_matrix.json are byte-identical
// for any --jobs value. --small shrinks to 40 cells for CI smoke runs.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arms/matrix.h"
#include "common/log.h"
#include "detect/catalog.h"
#include "harness/bench_report.h"
#include "harness/json.h"

namespace jgre::bench {

int RunDefenseMatrix(const harness::HarnessSpec& spec,
                     const harness::HarnessOptions& opts) {
  // kNone: cells detonate runtimes in parallel and their ART death rattles
  // would interleave across workers; the matrix reports outcomes itself.
  SetLogLevel(LogLevel::kNone);
  const bool small = harness::HasFlag(opts, "--small");

  arms::ArmsMatrix matrix;
  matrix.seed = opts.seed;
  if (small) {
    // CI smoke shape: drop the colluder strategy (slowest: K processes) and
    // keep the two caps that pin the headline story — 6,400 where the flood
    // out-runs the defender's report threshold, and stock 51,200 where it
    // cannot.
    matrix.points = {{6'400, 2}, {51'200, 2}};
    for (const arms::AttackPlan& plan : arms::DefaultAttacks()) {
      if (plan.name != "uid_rotation_colluders") {
        matrix.attacks.push_back(plan);
      }
    }
    matrix.max_calls = 20'000;
    matrix.horizon_us = 20'000'000;
  }

  const detect::InterfaceCatalog catalog = detect::BuildDefaultCatalog();
  arms::MatrixRunner::Options options;
  options.jobs = opts.jobs;
  options.image_budget = 4;
  options.catalog = &catalog;
  arms::MatrixRunner runner(std::move(matrix), options);
  std::printf("\nexpanding %zu cells\n", runner.cell_count());
  const arms::MatrixResult result = runner.Run();

  std::printf("matrix: %zu cells from %zu warmed boot images\n",
              result.cells.size(), result.boot_images);
  // Scheduling-dependent under --jobs > 1, so console-only.
  std::printf("image_builds %llu, image_evictions %llu, rewinds %llu\n",
              static_cast<unsigned long long>(result.image_builds),
              static_cast<unsigned long long>(result.image_evictions),
              static_cast<unsigned long long>(result.rewinds));

  // Console grid, one block per cap: rows = attacks, columns = defenses.
  std::vector<std::size_t> caps;
  std::vector<std::string> attacks;
  std::vector<std::string> defenses;
  std::map<std::size_t,
           std::map<std::string, std::map<std::string, const arms::MatrixCell*>>>
      grid;
  for (const arms::MatrixCell& cell : result.cells) {
    if (std::find(caps.begin(), caps.end(), cell.jgr_cap) == caps.end()) {
      caps.push_back(cell.jgr_cap);
    }
    if (std::find(attacks.begin(), attacks.end(), cell.attack) ==
        attacks.end()) {
      attacks.push_back(cell.attack);
    }
    if (std::find(defenses.begin(), defenses.end(), cell.defense) ==
        defenses.end()) {
      defenses.push_back(cell.defense);
    }
    grid[cell.jgr_cap][cell.attack][cell.defense] = &cell;
  }
  for (const std::size_t cap : caps) {
    std::printf("\ncap %zu\n%-24s", cap, "attack \\ defense");
    for (const std::string& defense : defenses) {
      std::printf(" %-20s", defense.c_str());
    }
    std::printf("\n");
    for (const std::string& attack : attacks) {
      std::printf("%-24s", attack.c_str());
      for (const std::string& defense : defenses) {
        const arms::MatrixCell* cell = grid[cap][attack][defense];
        std::string mark(arms::CellOutcomeName(cell->outcome));
        bool followup_hit = false;
        for (const auto& [hunt, hits] : cell->device.hunt_hits) {
          if (hits > 0 && hunt.rfind("followup.", 0) == 0) followup_hit = true;
        }
        if (followup_hit) mark += "*";
        std::printf(" %-20s", mark.c_str());
      }
      std::printf("\n");
    }
  }
  std::printf("\n(* = a followup.* hunt detected the cell's trace)\n");

  if (opts.emit_json) {
    harness::BenchReport report(spec.name, opts);
    report
        .Set("matrix", harness::Json::Object()
                           .Set("small", small)
                           .Set("cells", result.cells.size())
                           .Set("boot_images", result.boot_images))
        .Set("grid", result.GridJson());
    if (!report.Write()) return 1;
    std::printf("\nwrote matrix to %s\n", opts.json_path.c_str());
  }

  // Acceptance gates.
  //   1. Coverage: >= 4 attacks x >= 4 defense configs actually ran.
  //   2. The headline pair: some (attack, cap) exhausts under the bare
  //      kill-based defender yet is stopped (denied/killed/survived) by a
  //      mitigation stack at the same cap.
  //   3. Detection cross-check: some cell that evaded the defender (no
  //      incident, not exhausted... or exhausted without an incident) is
  //      still caught by a followup.* hunt.
  const bool coverage_ok = attacks.size() >= 4 && defenses.size() >= 4;
  if (!coverage_ok) {
    std::fprintf(stderr, "FAIL: matrix covers %zux%zu (< 4x4)\n",
                 attacks.size(), defenses.size());
  }
  bool mitigated_pair = false;
  for (const std::size_t cap : caps) {
    for (const std::string& attack : attacks) {
      const auto& row = grid[cap][attack];
      const auto defender_it = row.find("defender");
      if (defender_it == row.end() ||
          defender_it->second->outcome != arms::CellOutcome::kExhausted) {
        continue;
      }
      for (const auto& [defense, cell] : row) {
        if (defense == "none" || defense == "defender") continue;
        if (cell->outcome != arms::CellOutcome::kExhausted) {
          mitigated_pair = true;
        }
      }
    }
  }
  if (!mitigated_pair) {
    std::fprintf(stderr,
                 "FAIL: no (attack, cap) exhausts the bare defender while a "
                 "mitigation stack stops it\n");
  }
  bool evader_hunted = false;
  for (const arms::MatrixCell& cell : result.cells) {
    if (cell.device.incident) continue;  // the defender saw this one
    for (const auto& [hunt, hits] : cell.device.hunt_hits) {
      if (hits > 0 && hunt.rfind("followup.", 0) == 0) evader_hunted = true;
    }
  }
  if (!evader_hunted) {
    std::fprintf(stderr,
                 "FAIL: no defender-evading cell was caught by a followup.* "
                 "hunt\n");
  }
  return coverage_ok && mitigated_pair && evader_hunted ? 0 : 1;
}

}  // namespace jgre::bench
