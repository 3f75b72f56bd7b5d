// fuzz-reset: the analysis-seeded CampaignRunner::Run at the default budget
// (240 screening executions; 619 campaign executions in all at seed 42).
//
// A campaign's corpus lives in its runner, so a pass must not reuse a runner
// an earlier pass ran: the fresh set-up main.cc makes before every pass
// is what keeps passes identical. The consistency report each pass is
// checked against needs the directed verifier's census, which is computed
// once per process, outside any timed region.
//
// The traced run times the set-up layers (code model, taint analysis,
// protocol graph, CampaignRunner::Prepare) and CampaignRunner::Run itself.
// Run's executions happen inside private code, so the traced run rebuilds the
// campaign's execution mix from its stats, findings and corpus (see
// CampaignMix) and replays it through the public reset primitive
// (CampaignRunner::ResetSystem), SequenceExecutor::Execute/ExecuteRepeated,
// the reset system's destructor and the oracle, once without spans and once
// with them. The two replays must observe identical executions, and the
// spans are reported as shares of the timed campaign's worker time.
#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/protocol/protocol_graph.h"
#include "bench.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/android_system.h"
#include "dynamic/verifier.h"
#include "fuzz/campaign.h"
#include "fuzz/executor.h"
#include "fuzz/mutator.h"
#include "harness/experiment_runner.h"
#include "model/corpus.h"

namespace jgrebench {
namespace {

using jgre::Status;
namespace analysis = jgre::analysis;
namespace core = jgre::core;
namespace dynamic = jgre::dynamic;
namespace fuzz = jgre::fuzz;

void Append(std::string* out, const std::vector<std::string>& ids) {
  for (const std::string& id : ids) *out += id + ",";
  *out += "\n";
}

// The campaign's deterministic output: findings, execution counts and the
// consistency report against the census.
std::string Listing(const fuzz::CampaignResult& result,
                    const fuzz::ConsistencyReport& consistency) {
  std::string out;
  for (const fuzz::Finding& f : result.findings) {
    out += jgre::StrCat(f.id, " ", f.service, " ", f.method, " ",
                        fuzz::ExhaustionKindName(f.kind), " ",
                        jgre::StrCat(f.growth_per_call), " ", f.victim_aborted,
                        " ", f.minimized_calls, "\n");
  }
  const fuzz::CampaignStats& s = result.stats;
  out += jgre::StrCat(s.seed_executions, " ", s.screen_executions, " ",
                      s.confirm_executions, " ", s.minimize_executions, " ",
                      s.suspects, " ", s.corpus_entries, " ",
                      s.signature_elements, "\n");
  out += jgre::StrCat(consistency.census_total, "\n");
  Append(&out, consistency.refound);
  Append(&out, consistency.not_refound);
  Append(&out, consistency.static_blind);
  Append(&out, consistency.false_positives);
  return out;
}

// Timed() when `span` is set, a plain call otherwise.
template <typename Fn>
decltype(auto) MaybeTimed(Span* span, Fn&& fn) {
  if (span != nullptr) return Timed(*span, fn);
  return fn();
}

// One execution of the replayed mix: `seq` as it stands, or, when `repeat`
// is set, a confirmation probe of its one call repeated that many times.
struct Exec {
  fuzz::Sequence seq;
  int repeat = 0;
};

// What one replayed execution observed, and its spans.
struct ExecTrace {
  std::uint64_t digest = 0;
  int calls = 0;
  Span reset, execute, teardown;
};

class FuzzReset final : public Workload {
 public:
  explicit FuzzReset(std::uint64_t seed) : seed_(seed) {}

  double Setup(int jobs) override {
    runner_.reset();
    const Clock::time_point start = Clock::now();
    fuzz::CampaignOptions options;
    options.seed = seed_;
    options.jobs = jobs;
    options.seed_from_analysis = true;
    runner_ = std::make_unique<fuzz::CampaignRunner>(options);
    if (Status status = runner_->Prepare(); !status.ok()) {
      throw std::runtime_error(status.ToString());
    }
    return SecondsSince(start);
  }

  PassResult Pass() override {
    const Clock::time_point start = Clock::now();
    const double cpu_start = CpuSeconds();
    const fuzz::CampaignResult result = runner_->Run();
    PassResult pass;
    pass.seconds = SecondsSince(start);
    pass.cpu_seconds = CpuSeconds() - cpu_start;
    pass.units = static_cast<std::uint64_t>(result.stats.total_executions);
    const fuzz::ConsistencyReport consistency =
        fuzz::CrossCheck(result.findings, runner_->report(), Census());
    pass.digest = Digest(Listing(result, consistency));
    if (!consistency.false_positives.empty()) {
      pass.ok = false;
      pass.why = jgre::StrCat(consistency.false_positives.size(),
                              " false positive(s), first ",
                              consistency.false_positives.front());
    }
    last_ = result;
    yield_ = {result.stats.confirm_executions,
             static_cast<int>(result.findings.size()),
             static_cast<int>(consistency.refound.size()),
             static_cast<int>(consistency.false_positives.size())};
    return pass;
  }

  std::uint64_t Trace(int jobs, double seconds, Layers* out,
                      std::uint64_t* failed) override {
    Span model_span, taint_span, protocol_span, prepare_span;
    core::SystemConfig config;
    config.seed = seed_;
    core::AndroidSystem bare(config);
    bare.Boot();
    const jgre::model::CodeModel model =
        Timed(model_span, [&] { return jgre::model::BuildAospModel(bare); });
    const analysis::AnalysisReport report =
        Timed(taint_span, [&] { return analysis::RunAnalysis(model); });
    Timed(protocol_span, [&] {
      return analysis::protocol::ProtocolGraph::Build(model, report);
    });
    prepare_span.Add(Setup(jobs));

    // One campaign, timed as the untraced passes time it; its stats give the
    // replay's execution mix.
    std::uint64_t attempted = 0;
    Span run;
    double run_cpu_seconds = 0.0;
    const auto campaign = [&] {
      const PassResult pass = Pass();
      run.Add(pass.seconds);
      run_cpu_seconds += pass.cpu_seconds;
      attempted += pass.units;
      if (!pass.ok) {
        std::fprintf(stderr, "FAIL: %s\n", pass.why.c_str());
        *failed += pass.units;
      }
      return pass;
    };
    const PassResult first = campaign();
    const Yield yield = yield_;
    const std::vector<Exec> mix = CampaignMix(bare);
    const fuzz::Oracle oracle(runner_->options().oracle);
    fuzz::ExecOptions exec_options;
    exec_options.gc_every_calls = runner_->options().gc_every_calls;
    exec_options.permissions = permissions_;

    const auto replay = [&](bool traced) {
      const fuzz::SequenceExecutor executor(&runner_->model(), exec_options);
      return jgre::harness::RunOrdered<ExecTrace>(
          mix.size(), jobs, [&](std::size_t i) {
            ExecTrace t;
            Span* reset = traced ? &t.reset : nullptr;
            Span* execute = traced ? &t.execute : nullptr;
            Span* teardown = traced ? &t.teardown : nullptr;
            std::unique_ptr<core::AndroidSystem> system = MaybeTimed(
                reset, [&] { return runner_->ResetSystem(i); });
            const fuzz::ExecOutcome outcome = MaybeTimed(execute, [&] {
              return mix[i].repeat > 0
                         ? executor.ExecuteRepeated(
                               *system, mix[i].seq.calls.front(),
                               mix[i].repeat)
                         : executor.Execute(*system, mix[i].seq);
            });
            MaybeTimed(teardown, [&] { system.reset(); });
            const fuzz::OracleVerdict verdict =
                mix[i].repeat > 0 ? oracle.Confirm(outcome.obs)
                                  : oracle.Screen(outcome.obs);
            t.calls = outcome.obs.calls;
            std::string seen = jgre::StrCat(
                outcome.obs.calls, " ", outcome.obs.jgr_before, " ",
                outcome.obs.jgr_after, " ", outcome.obs.fd_before, " ",
                outcome.obs.fd_after, " ", outcome.obs.victim_aborted, " ",
                fuzz::ExhaustionKindName(verdict.kind));
            for (const std::uint64_t e : outcome.elements) {
              seen += jgre::StrCat(" ", e);
            }
            t.digest = Digest(seen);
            return t;
          });
    };

    // Each round: a campaign on a fresh runner (after the first), then the
    // mix replayed without spans and with them.
    Span reset, execute, teardown;
    double calls = 0.0;
    std::vector<double> plain_rate, traced_rate;
    const Clock::time_point start = Clock::now();
    do {
      if (plain_rate.size() > 0) {
        prepare_span.Add(Setup(jobs));
        if (campaign().digest != first.digest) {
          std::fprintf(stderr, "FAIL: traced-run campaign differs from the "
                               "first\n");
          *failed += first.units;
        }
      }
      Clock::time_point t0 = Clock::now();
      const std::vector<ExecTrace> plain = replay(false);
      plain_rate.push_back(plain.size() / SecondsSince(t0));
      t0 = Clock::now();
      const std::vector<ExecTrace> traced = replay(true);
      traced_rate.push_back(traced.size() / SecondsSince(t0));
      attempted += plain.size() + traced.size();
      for (std::size_t i = 0; i < traced.size(); ++i) {
        if (traced[i].digest != plain[i].digest) {
          std::fprintf(stderr, "FAIL: replayed execution %zu differs when "
                               "traced\n", i);
          *failed += 2;
        }
        reset.Merge(traced[i].reset);
        execute.Merge(traced[i].execute);
        teardown.Merge(traced[i].teardown);
        calls += traced[i].calls;
      }
    } while (SecondsSince(start) < seconds);

    // The replay stands in for the campaign execution for execution, so its
    // spans are set against the campaign's worker time: Run's wall time on
    // `jobs` workers. Worker time the process spent off the CPU is the
    // workers' idle time at the campaign's phase barriers, while one thread
    // merges results. What is left is the campaign's own bookkeeping
    // (oracle, corpus, minimizer) and any cost difference between the
    // replay's argument draws and the campaign's.
    const double worker_seconds = run.seconds * jobs;
    const double idle = std::max(0.0, worker_seconds - run_cpu_seconds);
    const double covered = reset.seconds + execute.seconds + teardown.seconds;
    const double plain_median = Median(plain_rate);
    Layers& l = *out;
    l["fuzz.reset_ms"] = reset.MeanMs();
    l["fuzz.execute_ms"] = execute.MeanMs();
    l["fuzz.teardown_ms"] = teardown.MeanMs();
    l["share.fuzz.reset"] = Percent(reset.seconds, worker_seconds);
    l["share.fuzz.execute"] = Percent(execute.seconds, worker_seconds);
    l["share.fuzz.teardown"] = Percent(teardown.seconds, worker_seconds);
    l["share.fuzz.idle"] = Percent(idle, worker_seconds);
    l["fuzz.trace_coverage"] = Percent(covered + idle, worker_seconds);
    l["fuzz.trace_overhead"] =
        Percent(plain_median - Median(traced_rate), plain_median);
    l["fuzz.calls_per_exec"] = execute.count == 0 ? 0.0 : calls / execute.count;
    l["fuzz.executions"] = static_cast<double>(first.units);
    l["fuzz.run_ms"] = run.MeanMs();
    l["fuzz.confirm_yield"] =
        yield.confirms == 0
            ? 0.0
            : static_cast<double>(yield.findings) / yield.confirms;
    l["fuzz.refound"] = yield.refound;
    l["fuzz.false_positives"] = yield.false_positives;
    l["fuzz.prepare_ms"] = prepare_span.MeanMs();
    l["model.build_ms"] = model_span.MeanMs();
    l["analysis.taint_ms"] = taint_span.MeanMs();
    l["analysis.protocol_ms"] = protocol_span.MeanMs();
    return attempted;
  }

 private:
  // The last campaign's execution mix rebuilt from public calls, execution
  // for execution: its analysis seeds (the same candidates, fresh argument
  // draws), its screening executions (corpus mutations and fresh sequences
  // in the campaign's proportion, from the corpus it ended with), one
  // confirmation probe per distinct method in order of first appearance
  // (the campaign probes each suspect's distinct methods), and its
  // minimization executions (trimmed repeats of each finding's witness).
  // Also records the probe permissions for the executor, as Prepare derives
  // them from the bare booted device.
  std::vector<Exec> CampaignMix(core::AndroidSystem& bare) {
    const fuzz::CampaignOptions& options = runner_->options();
    const fuzz::CampaignStats& stats = last_.stats;
    std::set<std::string> live_services;
    permissions_.clear();
    for (const auto& [id, method] : runner_->model().java_methods) {
      if (!method.overrides_aidl || method.service.empty()) continue;
      if (!bare.service_manager().HasService(method.service)) continue;
      live_services.insert(method.service);
      if (!method.permission.empty()) permissions_.insert(method.permission);
    }
    const fuzz::Mutator mutator(&runner_->model(), live_services,
                                options.mutator);
    std::set<std::string> pool;
    for (const jgre::model::JavaMethodModel* method : mutator.pool()) {
      pool.insert(method->id);
    }
    jgre::Rng rng(seed_ ^ 0x6a67726562656e63ull);

    std::vector<Exec> mix;
    for (const std::size_t index : runner_->report().Candidates()) {
      if (static_cast<int>(mix.size()) == stats.seed_executions) break;
      const analysis::AnalyzedInterface& iface =
          runner_->report().interfaces[index];
      if (iface.witness.empty() || pool.count(iface.id) == 0) continue;
      const jgre::model::JavaMethodModel* method =
          runner_->model().FindJavaMethod(iface.id);
      Exec exec;
      for (int c = 0; c < options.seed_sequence_calls; ++c) {
        exec.seq.calls.push_back(mutator.MakeCall(*method, rng));
      }
      mix.push_back(std::move(exec));
    }
    const std::vector<fuzz::CorpusEntry>& corpus = runner_->corpus().entries();
    for (int i = 0; i < stats.screen_executions; ++i) {
      const bool mutate =
          !corpus.empty() && rng.Chance(options.mutate_probability);
      Exec exec;
      exec.seq = mutate ? mutator.Mutate(
                              corpus[rng.UniformU64(corpus.size())].seq, rng)
                        : mutator.Generate(rng);
      mix.push_back(std::move(exec));
    }
    std::set<std::string> probed;
    std::vector<Exec> probes;
    for (const Exec& exec : mix) {
      for (const fuzz::IpcCall& call : exec.seq.calls) {
        if (static_cast<int>(probes.size()) == stats.confirm_executions) break;
        if (!probed.insert(call.method_id).second) continue;
        Exec probe;
        probe.seq.calls.push_back(call);
        probe.repeat = options.confirm_calls;
        for (fuzz::ArgValue& arg : probe.seq.calls.front().args) {
          if (arg.kind == jgre::services::ArgKind::kBinder) {
            arg.fresh_binder = true;
          }
          arg.from_step = -1;
        }
        probes.push_back(std::move(probe));
      }
    }
    for (Exec& probe : probes) mix.push_back(std::move(probe));
    for (int i = 0; i < stats.minimize_executions && !last_.findings.empty();
         ++i) {
      const fuzz::Finding& finding = last_.findings[i % last_.findings.size()];
      Exec exec;
      exec.seq.calls.assign(
          static_cast<std::size_t>(std::max(1, finding.minimized_calls)),
          finding.witness);
      mix.push_back(std::move(exec));
    }
    return mix;
  }

  // The last campaign's confirm-phase yield and census agreement.
  struct Yield {
    int confirms = 0;
    int findings = 0;
    int refound = 0;
    int false_positives = 0;
  };

  // The directed verifier's verdicts on every static candidate, with
  // bench_fuzz_campaign's settings; depends only on the seed.
  const std::vector<dynamic::Verdict>& Census() {
    if (!census_.empty()) return census_;
    dynamic::VerifyOptions options;
    options.max_calls = 4000;
    options.probe_calls = 1200;
    options.gc_every_calls = 250;
    options.seed = seed_;
    const std::vector<std::size_t> candidates = runner_->report().Candidates();
    census_ = jgre::harness::RunOrdered<dynamic::Verdict>(
        candidates.size(), runner_->options().jobs, [&](std::size_t i) {
          dynamic::JgreVerifier verifier(options);
          return verifier.Verify(runner_->report().interfaces[candidates[i]],
                                 runner_->model());
        });
    return census_;
  }

  std::uint64_t seed_;
  std::unique_ptr<fuzz::CampaignRunner> runner_;
  std::vector<dynamic::Verdict> census_;
  fuzz::CampaignResult last_;
  std::set<std::string> permissions_;
  Yield yield_;
};

}  // namespace

std::unique_ptr<Workload> MakeFuzzReset(std::uint64_t seed) {
  return std::make_unique<FuzzReset>(seed);
}

}  // namespace jgrebench
