// bench_census — regenerates the paper's §IV headline numbers by running the
// full pipeline (static stages + dynamic verification) against the simulated
// AOSP 6.0.1 image:
//   * 104 system services, 32 of them with 54 vulnerable IPC interfaces;
//   * 2 prebuilt apps with 3 vulnerable interfaces (57 total);
//   * 44 unprotected, 13 protected of which 10 remain exploitable;
//   * 22 services attackable with zero permissions.
#include <cstdio>
#include <map>
#include <set>

#include "analysis/pipeline.h"
#include "core/android_system.h"
#include "dynamic/verifier.h"
#include "model/corpus.h"

namespace jgre::bench {

int RunCensus() {
  core::AndroidSystem system;
  system.Boot();
  model::CodeModel model = model::BuildAospModel(system);
  analysis::AnalysisReport report = analysis::RunAnalysis(model);

  dynamic::VerifyOptions verify_options;
  verify_options.max_calls = 8000;
  dynamic::JgreVerifier verifier(verify_options);
  auto verdicts = verifier.VerifyAll(report, model);

  std::map<std::string, const analysis::AnalyzedInterface*> iface_by_id;
  for (const auto& iface : report.interfaces) iface_by_id[iface.id] = &iface;

  std::set<std::string> vulnerable_services;
  std::set<std::string> vulnerable_prebuilt_apps;
  std::set<std::string> zero_perm_services;
  int vulnerable_system_ifaces = 0;
  int vulnerable_app_ifaces = 0;
  int unprotected = 0;
  int protected_total = 0;
  int protected_still_vulnerable = 0;
  std::set<std::string> protected_services;
  std::set<std::string> protected_still_vuln_services;

  for (const auto& verdict : verdicts) {
    const analysis::AnalyzedInterface* iface = iface_by_id[verdict.id];
    const bool is_protected =
        iface->protection != analysis::ProtectionClass::kUnprotected;
    if (is_protected) {
      ++protected_total;
      protected_services.insert(iface->service);
      if (verdict.exploitable) {
        ++protected_still_vulnerable;
        protected_still_vuln_services.insert(iface->service);
      }
    }
    if (!verdict.exploitable) continue;
    if (iface->app_hosted) {
      ++vulnerable_app_ifaces;
      vulnerable_prebuilt_apps.insert(iface->package);
    } else {
      ++vulnerable_system_ifaces;
      vulnerable_services.insert(iface->service);
      if (iface->permission.empty()) zero_perm_services.insert(iface->service);
      if (!is_protected) ++unprotected;  // Table I counts system side only
    }
  }

  std::printf("\n%-58s %8s %8s\n", "METRIC", "MEASURED", "PAPER");
  auto row = [](const char* metric, int measured, int paper) {
    std::printf("%-58s %8d %8d\n", metric, measured, paper);
  };
  row("system services registered", report.ipc_methods.services_registered,
      104);
  row("natively registered services",
      report.ipc_methods.native_service_registrations, 5);
  row("native paths to IndirectReferenceTable::Add",
      report.jgr_entries.native_paths_total, 147);
  row("  ...filtered as runtime-init-only",
      report.jgr_entries.native_paths_init_only, 67);
  row("vulnerable IPC interfaces in system services",
      vulnerable_system_ifaces, 54);
  row("system services containing them",
      static_cast<int>(vulnerable_services.size()), 32);
  row("vulnerable interfaces in prebuilt apps", vulnerable_app_ifaces, 3);
  row("prebuilt apps containing them",
      static_cast<int>(vulnerable_prebuilt_apps.size()), 2);
  row("total vulnerable interfaces",
      vulnerable_system_ifaces + vulnerable_app_ifaces, 57);
  row("unprotected vulnerable interfaces (system)", unprotected - 0, 44);
  row("interfaces with some protection", protected_total, 13);
  row("  ...still exploitable", protected_still_vulnerable, 10);
  row("protected services", static_cast<int>(protected_services.size()), 10);
  row("  ...still vulnerable services",
      static_cast<int>(protected_still_vuln_services.size()), 8);
  row("services attackable with ZERO permissions",
      static_cast<int>(zero_perm_services.size()), 22);
  std::printf(
      "\n(32/104 = %.1f%% of system services are vulnerable; paper: 30.8%%)\n",
      100.0 * static_cast<double>(vulnerable_services.size()) /
          report.ipc_methods.services_registered);
  return 0;
}

}  // namespace jgre::bench
