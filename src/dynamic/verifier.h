// JGRE dynamic verification (paper §III.D) — the fourth pipeline step.
//
// For every risky interface the static stages could not discharge, the
// verifier boots a fresh device, installs a probe app holding whatever
// permission the interface demands, generates a test payload from the
// method's parameter layout (the Javapoet-style semi-automatic generation of
// §III.D: primitives get defaults, binder parameters get a fresh Binder per
// call), fires up to 60,000 IPC requests while triggering the GC
// periodically (DDMS), and watches the victim's JGR count. An interface is
// exploitable iff the retained growth persists across GC — or the victim's
// runtime aborts outright. The calls go through fuzz::Probe and the verdict
// comes from fuzz::Oracle::Confirm, the fuzzer's own execution and judge.
//
// Interfaces guarded by a per-process constraint that keys on caller-supplied
// input (enqueueToast) get a second, adversarial probe with the input set to
// "android" — the manual scrutiny step of §IV.C.2 made systematic.
#ifndef JGRE_DYNAMIC_VERIFIER_H_
#define JGRE_DYNAMIC_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "model/code_model.h"

namespace jgre::dynamic {

struct VerifyOptions {
  int max_calls = 60'000;
  int gc_every_calls = 500;
  // Early-exit probe: if growth is already flat after this many calls, the
  // interface is declared bounded.
  int probe_calls = 2'000;
  std::uint64_t seed = 42;
};

struct Verdict {
  std::string id;
  std::string service;
  std::string method;
  bool tested = false;
  std::string skip_reason;
  bool exploitable = false;
  bool victim_aborted = false;        // drove the table past 51,200
  bool bypassed_constraint = false;   // needed the adversarial string probe
  int calls_issued = 0;
  double jgr_growth_per_call = 0.0;
};

class JgreVerifier {
 public:
  JgreVerifier();
  explicit JgreVerifier(VerifyOptions options);

  // Verifies a single interface (fresh simulated device per probe).
  Verdict Verify(const analysis::AnalyzedInterface& iface,
                 const model::CodeModel& model);

  // Verifies every candidate in the report.
  std::vector<Verdict> VerifyAll(const analysis::AnalysisReport& report,
                                 const model::CodeModel& model);

 private:
  Verdict RunProbe(const analysis::AnalyzedInterface& iface,
                   const model::JavaMethodModel& method, bool adversarial);

  VerifyOptions options_;
};

}  // namespace jgre::dynamic

#endif  // JGRE_DYNAMIC_VERIFIER_H_
