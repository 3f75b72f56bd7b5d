// bench_table3_per_process — regenerates Table III and §IV.C.2: interfaces
// guarded by server-side per-process constraints. The display/input guards
// hold against a flood of fresh binders; NotificationManagerService's
// enqueueToast holds against an honest caller but falls to the pkg="android"
// spoof of Code-Snippet 3.
#include <cstdio>

#include "core/android_system.h"
#include "services/notification_service.h"
#include "services/ui_services.h"

namespace jgre::bench {
namespace {

constexpr int kCalls = 2000;

struct ProbeResult {
  long growth;
  int rejected;
};

// Floods `code` on `service` with fresh binders (arguments per interface),
// returning retained JGR growth and how many calls the service rejected.
ProbeResult Flood(const char* service, const char* descriptor,
                  std::uint32_t code,
                  const std::function<void(services::AppProcess&,
                                           binder::Parcel&)>& write_args) {
  core::AndroidSystem system;
  system.Boot();
  services::AppProcess* app = system.InstallApp("com.flood.app");
  auto client = app->GetService(service, descriptor);
  system.CollectAllGarbage();
  const long before = static_cast<long>(system.SystemServerJgrCount());
  int rejected = 0;
  for (int i = 0; i < kCalls; ++i) {
    Status status = client.value().Call(
        code, [&](binder::Parcel& p) { write_args(*app, p); });
    if (!status.ok()) ++rejected;
  }
  system.CollectAllGarbage();
  return ProbeResult{
      static_cast<long>(system.SystemServerJgrCount()) - before, rejected};
}

void Row(const char* service, const char* iface, const ProbeResult& result,
         const char* paper) {
  // Bounded means O(cap), not O(calls): the honest-toast path retains at most
  // MAX_PACKAGE_NOTIFICATIONS queued callbacks (~100 JGRs), never 2/call.
  const bool held = result.growth < 150;
  std::printf("%-14s %-40s %10ld %10d  %-12s (paper: %s)\n", service, iface,
              result.growth, result.rejected, held ? "Yes" : "No", paper);
}

}  // namespace

int RunTable3PerProcess() {
  std::printf("\n%d calls with a fresh Binder each; JGR growth after GC\n\n",
              kCalls);
  std::printf("%-14s %-40s %10s %10s  %s\n", "Service", "Interface",
              "JGR growth", "rejected", "Protected?");

  Row("display", "registerCallback",
      Flood(services::DisplayService::kName,
            services::DisplayService::kDescriptor,
            services::DisplayService::TRANSACTION_registerCallback,
            [](services::AppProcess& app, binder::Parcel& p) {
              p.WriteStrongBinder(app.NewBinder("IDisplayManagerCallback"));
            }),
      "Yes");
  Row("input", "registerInputDevicesChangedListener",
      Flood(services::InputService::kName, services::InputService::kDescriptor,
            services::InputService::
                TRANSACTION_registerInputDevicesChangedListener,
            [](services::AppProcess& app, binder::Parcel& p) {
              p.WriteStrongBinder(app.NewBinder("IInputDevicesChanged"));
            }),
      "Yes");
  Row("input", "registerTabletModeChangedListener",
      Flood(services::InputService::kName, services::InputService::kDescriptor,
            services::InputService::TRANSACTION_registerTabletModeChangedListener,
            [](services::AppProcess& app, binder::Parcel& p) {
              p.WriteStrongBinder(app.NewBinder("ITabletModeChanged"));
            }),
      "Yes");
  Row("notification", "enqueueToast (honest pkg)",
      Flood(services::NotificationService::kName,
            services::NotificationService::kDescriptor,
            services::NotificationService::TRANSACTION_enqueueToast,
            [](services::AppProcess& app, binder::Parcel& p) {
              p.WriteString(app.package());
              p.WriteStrongBinder(app.NewBinder("ITransientNotification"));
              p.WriteInt32(1);
            }),
      "-");
  Row("notification", "enqueueToast (pkg=\"android\" spoof)",
      Flood(services::NotificationService::kName,
            services::NotificationService::kDescriptor,
            services::NotificationService::TRANSACTION_enqueueToast,
            [](services::AppProcess& app, binder::Parcel& p) {
              p.WriteString("android");  // Code-Snippet 3's bypass
              p.WriteStrongBinder(app.NewBinder("ITransientNotification"));
              p.WriteInt32(1);
            }),
      "No");
  std::printf(
      "\nThe enqueueToast cap keys on a caller-supplied package string: a "
      "zero-permission app passing \"android\" is treated as a system toast "
      "and enqueues without limit (§IV.C.2).\n");
  return 0;
}

}  // namespace jgre::bench
