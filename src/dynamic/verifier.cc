#include "dynamic/verifier.h"

#include "common/log.h"
#include "common/strings.h"
#include "core/android_system.h"
#include "core/market_apps.h"
#include "fuzz/executor.h"
#include "fuzz/oracle.h"

namespace jgre::dynamic {

namespace {

constexpr char kProbePackage[] = "com.jgre.probe";

// Javapoet-style payload synthesis: one call of `method` with a default per
// parameter kind — 1 for integers, true for booleans, a 16-byte array, a
// fresh Binder per call for callback parameters, a descriptor for fd
// parameters, and the probe's own package (for the adversarial probe, the
// "android" spoof) in every string slot.
fuzz::IpcCall ProbeCall(const analysis::AnalyzedInterface& iface,
                        const model::JavaMethodModel& method,
                        bool adversarial) {
  fuzz::IpcCall call;
  call.method_id = method.id;
  call.service = iface.service;
  // Method ids are "<interface descriptor>.<name>".
  call.descriptor =
      method.id.substr(0, method.id.size() - method.name.size() - 1);
  call.code = iface.transaction_code;
  for (services::ArgKind kind : method.args) {
    // The executor reads only the field of the slot's kind.
    call.args.push_back({.kind = kind,
                         .scalar = 1,
                         .str = adversarial ? "android" : kProbePackage,
                         .byte_size = 16});
  }
  return call;
}

}  // namespace

JgreVerifier::JgreVerifier() : JgreVerifier(VerifyOptions{}) {}

JgreVerifier::JgreVerifier(VerifyOptions options) : options_(options) {}

Verdict JgreVerifier::RunProbe(const analysis::AnalyzedInterface& iface,
                               const model::JavaMethodModel& method,
                               bool adversarial) {
  Verdict verdict;
  verdict.id = iface.id;
  verdict.service = iface.service;
  verdict.method = iface.method;

  core::SystemConfig config;
  config.seed = options_.seed;
  core::AndroidSystem system(config);
  system.Boot();
  if (iface.app_hosted && !iface.prebuilt_app) {
    core::InstallThirdPartyVulnerableApps(system);
  }
  if (!system.service_manager().HasService(iface.service)) {
    verdict.skip_reason = StrCat("no live implementation of service '",
                                 iface.service, "' to probe");
    return verdict;
  }
  fuzz::ExecOptions exec;
  exec.gc_every_calls = options_.gc_every_calls;
  exec.probe_package = kProbePackage;
  if (!iface.permission.empty()) exec.permissions.insert(iface.permission);
  fuzz::Probe probe(system, exec, iface.app_hosted ? iface.package : "");
  const fuzz::IpcCall call = ProbeCall(iface, method, adversarial);
  if (Status connected = probe.Connect(call); !connected.ok()) {
    verdict.skip_reason = connected.ToString();
    return verdict;
  }
  verdict.tested = true;

  const fuzz::Oracle oracle;
  for (int i = 0; i < options_.max_calls && !probe.aborted(); ++i) {
    Status status = probe.Fire(call, fuzz::Probe::Reply::kDiscard);
    if (status.code() == StatusCode::kPermissionDenied) {
      verdict.skip_reason = status.ToString();
      break;
    }
    // Early exit: growth already flat after the probe window => bounded.
    if (i + 1 == options_.probe_calls && oracle.Bounded(probe.Observe())) {
      break;
    }
  }
  const fuzz::Observation observed = probe.Observe();
  const fuzz::OracleVerdict judged = oracle.Confirm(observed);
  verdict.calls_issued = observed.calls;
  verdict.victim_aborted = judged.kind == fuzz::ExhaustionKind::kAbort;
  // An fd-only leak keeps the bounded verdict: the census is JGR exhaustion.
  verdict.exploitable = verdict.victim_aborted ||
                        judged.kind == fuzz::ExhaustionKind::kJgr;
  verdict.jgr_growth_per_call = judged.jgr_growth_per_call;
  return verdict;
}

Verdict JgreVerifier::Verify(const analysis::AnalyzedInterface& iface,
                             const model::CodeModel& model) {
  const model::JavaMethodModel* method = model.FindJavaMethod(iface.id);
  if (method == nullptr) {
    Verdict verdict;
    verdict.id = iface.id;
    verdict.skip_reason = "method missing from code model";
    return verdict;
  }
  Verdict verdict = RunProbe(iface, *method, /*adversarial=*/false);
  if (!verdict.exploitable && verdict.tested &&
      iface.constraint_trusts_caller) {
    // The server-side cap held against the honest probe, but it trusts a
    // caller-supplied value — retry with the "android" spoof (§IV.C.2).
    Verdict spoofed = RunProbe(iface, *method, /*adversarial=*/true);
    if (spoofed.exploitable) {
      spoofed.bypassed_constraint = true;
      return spoofed;
    }
  }
  return verdict;
}

std::vector<Verdict> JgreVerifier::VerifyAll(
    const analysis::AnalysisReport& report, const model::CodeModel& model) {
  std::vector<Verdict> verdicts;
  for (const std::size_t index : report.Candidates()) {
    verdicts.push_back(Verify(report.interfaces[index], model));
    const Verdict& v = verdicts.back();
    JGRE_LOG(kInfo, "verifier")
        << v.service << "." << v.method << ": "
        << (v.exploitable ? "EXPLOITABLE" : "bounded") << " ("
        << v.calls_issued << " calls, " << v.jgr_growth_per_call
        << " JGR/call" << (v.bypassed_constraint ? ", constraint bypassed" : "")
        << ")";
  }
  return verdicts;
}

}  // namespace jgre::dynamic
