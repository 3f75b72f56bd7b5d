// defense-matrix: the 125-cell MatrixRunner grid (5 JGR caps x 5 attack
// strategies x 5 defense configs) with the default interface catalog and a
// 4-image budget over 5 prefix keys.
//
// MatrixRunner builds its FleetRunner, and so its boot images, inside Run():
// every pass pays for 5 image builds and 1 eviction, and the benchmark cannot
// move them into set-up without changing src/. Each pass reports them. The
// per-cell driver (RunCell) is private, so outside timing stops at
// MatrixRunner::Run: the traced run reports that span (arms.run_ms) and the
// counts the grid exposes.
#include <cstdio>

#include "arms/matrix.h"
#include "bench.h"
#include "detect/catalog.h"

namespace jgrebench {
namespace {

namespace arms = jgre::arms;
namespace detect = jgre::detect;

class DefenseMatrix final : public Workload {
 public:
  explicit DefenseMatrix(std::uint64_t seed) : seed_(seed) {}

  double Setup(int jobs) override {
    runner_.reset();
    catalog_.reset();
    const Clock::time_point start = Clock::now();
    catalog_ = std::make_unique<detect::InterfaceCatalog>(
        Timed(catalog_span_, [] { return detect::BuildDefaultCatalog(); }));
    arms::ArmsMatrix matrix;
    matrix.seed = seed_;
    arms::MatrixRunner::Options options;
    options.jobs = jobs;
    options.image_budget = 4;
    options.catalog = catalog_.get();
    runner_ = std::make_unique<arms::MatrixRunner>(matrix, options);
    return SecondsSince(start);
  }

  PassResult Pass() override {
    const Clock::time_point start = Clock::now();
    const double cpu_start = CpuSeconds();
    const arms::MatrixResult result = runner_->Run();
    PassResult pass;
    pass.seconds = SecondsSince(start);
    pass.cpu_seconds = CpuSeconds() - cpu_start;
    pass.units = result.cells.size();
    pass.digest = Digest(result.GridJson().Dump());
    pass.image_builds = result.image_builds;
    pass.image_evictions = result.image_evictions;

    last_ = {};
    for (const arms::MatrixCell& cell : result.cells) {
      last_.calls_issued += cell.attacker.calls_issued;
      last_.calls_denied += cell.attacker.calls_denied;
      last_.ipc_calls += cell.device.ipc_calls;
      last_.kills += cell.outcome == arms::CellOutcome::kKilled ? 1 : 0;
    }
    return pass;
  }

  std::uint64_t Trace(int jobs, double seconds, Layers* out,
                      std::uint64_t* failed) override {
    catalog_span_ = {};
    Setup(jobs);
    Span run;
    std::uint64_t attempted = 0, first_digest = 0, builds = 0, evictions = 0;
    const Clock::time_point start = Clock::now();
    do {
      const PassResult pass = Pass();
      run.Add(pass.seconds);
      attempted += pass.units;
      builds += pass.image_builds;
      evictions += pass.image_evictions;
      if (run.count == 1) first_digest = pass.digest;
      if (pass.digest != first_digest) {
        std::fprintf(stderr, "FAIL: matrix pass %llu differs from the first\n",
                     static_cast<unsigned long long>(run.count));
        *failed += pass.units;
      }
    } while (SecondsSince(start) < seconds);

    Layers& l = *out;
    l["arms.run_ms"] = run.MeanMs();
    l["arms.calls_issued"] = static_cast<double>(last_.calls_issued);
    l["arms.denied_frac"] =
        last_.calls_issued == 0
            ? 0.0
            : static_cast<double>(last_.calls_denied) / last_.calls_issued;
    l["arms.ipc_calls"] = static_cast<double>(last_.ipc_calls);
    l["defense.kills"] = static_cast<double>(last_.kills);
    l["arms.image_builds"] = static_cast<double>(builds) / run.count;
    l["arms.image_evictions"] = static_cast<double>(evictions) / run.count;
    l["detect.catalog_ms"] = catalog_span_.MeanMs();
    return attempted;
  }

 private:
  struct Counts {
    std::int64_t calls_issued = 0;
    std::int64_t calls_denied = 0;
    std::int64_t ipc_calls = 0;
    std::int64_t kills = 0;
  };

  std::uint64_t seed_;
  std::unique_ptr<detect::InterfaceCatalog> catalog_;
  std::unique_ptr<arms::MatrixRunner> runner_;
  Span catalog_span_;
  Counts last_;
};

}  // namespace

std::unique_ptr<Workload> MakeDefenseMatrix(std::uint64_t seed) {
  return std::make_unique<DefenseMatrix>(seed);
}

}  // namespace jgrebench
