// Quickstart — boot a simulated Android 6.0.1 device, talk to a system
// service over binder, and watch JNI global references being accounted.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <string_view>

#include "core/android_system.h"
#include "services/clipboard_service.h"
#include "services/wifi_service.h"

using namespace jgre;

int main() {
  // 1. Boot the device: kernel, binder driver, system_server with the full
  //    104-service census, prebuilt apps.
  core::AndroidSystem system;
  system.Boot();
  std::printf("Booted: %zu services, %zu processes, system_server holds %zu "
              "JNI global refs\n",
              system.service_manager().ServiceCount(),
              system.kernel().LiveProcessCount(),
              system.SystemServerJgrCount());

  // 2. Install an app and let it talk to the clipboard service.
  services::AppProcess* app = system.InstallApp("com.example.notes");
  auto clipboard = app->GetService(services::ClipboardService::kName,
                                   services::ClipboardService::kDescriptor);
  if (!clipboard.ok()) {
    std::printf("clipboard lookup failed: %s\n",
                clipboard.status().ToString().c_str());
    return 1;
  }

  binder::Parcel reply;
  Status status = clipboard.value().Call(
      services::ClipboardService::TRANSACTION_setPrimaryClip,
      [](binder::Parcel& p) { p.WriteString("hello from jgre-sim"); });
  std::printf("setPrimaryClip -> %s\n", status.ToString().c_str());

  status = clipboard.value().Call(
      services::ClipboardService::TRANSACTION_getPrimaryClip, &reply);
  auto clip = reply.ReadString();
  const std::string_view shown = clip.ok() ? clip.value() : "?";
  std::printf("getPrimaryClip -> \"%.*s\"\n", static_cast<int>(shown.size()),
              shown.data());

  // 3. Register a clipboard listener: watch two JGRs appear in system_server
  //    (the BinderProxy for our listener + the JavaDeathRecipient).
  const std::size_t before = system.SystemServerJgrCount();
  auto listener = app->NewBinder("IOnPrimaryClipChangedListener");
  status = clipboard.value().Call(
      services::ClipboardService::TRANSACTION_addPrimaryClipChangedListener,
      [&](binder::Parcel& p) { p.WriteStrongBinder(listener); });
  std::printf("addPrimaryClipChangedListener -> %s; system_server JGR %zu -> "
              "%zu (+%zu)\n",
              status.ToString().c_str(), before, system.SystemServerJgrCount(),
              system.SystemServerJgrCount() - before);

  // 4. Kill the app: death notification + GC give the references back.
  system.StopApp("com.example.notes");
  system.CollectAllGarbage();
  std::printf("after app death + GC: system_server JGR = %zu\n",
              system.SystemServerJgrCount());

  std::printf("virtual uptime: %.3f s, %lld binder transactions\n",
              system.clock().NowUs() / 1e6,
              static_cast<long long>(system.driver().total_transactions()));
  return 0;
}
