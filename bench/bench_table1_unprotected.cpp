// bench_table1_unprotected — regenerates Table I: the 44 unprotected
// vulnerable IPC interfaces with their required permissions, plus the
// 19 / 4 / 3 services-by-permission-level breakdown.
#include <cstdio>
#include <map>

#include "analysis/pipeline.h"
#include "core/android_system.h"
#include "dynamic/verifier.h"
#include "model/corpus.h"

namespace jgre::bench {

int RunTable1Unprotected() {
  core::AndroidSystem system;
  system.Boot();
  model::CodeModel model = model::BuildAospModel(system);
  analysis::AnalysisReport report = analysis::RunAnalysis(model);

  dynamic::VerifyOptions options;
  options.max_calls = 5000;
  dynamic::JgreVerifier verifier(options);

  std::printf("\n%-22s %-42s %s\n", "Service Name", "Vulnerable IPC Interface",
              "Required Permission (Protection Level)");
  int rows = 0;
  std::map<std::string, model::PermissionLevel> weakest_per_service;
  for (const std::size_t index : report.CandidatesWithProtection(
           analysis::ProtectionClass::kUnprotected)) {
    const analysis::AnalyzedInterface& iface = report.interfaces[index];
    if (iface.app_hosted) continue;  // Table IV covers prebuilt apps
    auto verdict = verifier.Verify(iface, model);
    if (!verdict.exploitable) continue;
    std::string permission = "-";
    if (!iface.permission.empty()) {
      // Strip the android.permission. prefix for readability.
      permission = iface.permission.substr(iface.permission.rfind('.') + 1);
      permission += " (";
      permission += model::PermissionLevelName(iface.permission_level);
      permission += ")";
    }
    std::printf("%-22s %-42s %s\n", iface.service.c_str(),
                iface.method.c_str(), permission.c_str());
    ++rows;
    auto it = weakest_per_service.find(iface.service);
    if (it == weakest_per_service.end() ||
        iface.permission_level < it->second) {
      weakest_per_service[iface.service] = iface.permission_level;
    }
  }
  int none = 0, normal = 0, dangerous = 0;
  for (const auto& [service, level] : weakest_per_service) {
    if (level == model::PermissionLevel::kNone) ++none;
    if (level == model::PermissionLevel::kNormal) ++normal;
    if (level == model::PermissionLevel::kDangerous) ++dangerous;
  }
  std::printf("\n%d unprotected vulnerable interfaces (paper: 44) in %zu "
              "services (paper: 26)\n",
              rows, weakest_per_service.size());
  std::printf("exploitable without any permission: %d services (paper: 19); "
              "normal: %d (paper: 4); dangerous: %d (paper: 3)\n",
              none, normal, dangerous);
  return 0;
}

}  // namespace jgre::bench
