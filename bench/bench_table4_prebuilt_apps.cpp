// bench_table4_prebuilt_apps — regenerates Table IV: the three vulnerable
// IPC interfaces in the two prebuilt apps (PicoTts, Bluetooth). Attacks on
// these abort the *app's* runtime (its own 51,200-entry table), not
// system_server — the device survives, the app dies.
#include <cstdio>

#include "attack/malicious_app.h"
#include "attack/vuln_registry.h"
#include "core/android_system.h"

namespace jgre::bench {

int RunTable4PrebuiltApps() {
  std::printf("\n%-24s %-38s %10s %12s %12s %s\n", "App", "Interface",
              "calls", "app aborted", "soft reboot", "duration");
  for (const attack::VulnSpec& vuln : attack::AllVulnerabilities()) {
    if (vuln.victim != attack::VictimKind::kPrebuiltApp) continue;
    core::AndroidSystem system;
    system.Boot();
    services::AppProcess* evil =
        attack::InstallAttackApp(&system, "com.evil.app", vuln);
    attack::MaliciousApp attacker(&system, evil, vuln);
    auto result = attacker.Run();
    services::AppProcess* victim = system.FindApp(vuln.victim_package);
    std::printf("%-24s %-38s %10d %12s %12s %6.1f s\n",
                vuln.victim_package.c_str(), vuln.interface.c_str(),
                result.calls_issued,
                (victim == nullptr || !victim->alive()) ? "YES" : "no",
                system.soft_reboots() > 0 ? "YES" : "no",
                result.duration_us() / 1e6);
  }
  std::printf("\nEvery app that extends android.speech.tts.TextToSpeechService"
              " inherits the vulnerable setCallback default implementation "
              "(incl. Google TTS, §IV.D).\n");
  return 0;
}

}  // namespace jgre::bench
