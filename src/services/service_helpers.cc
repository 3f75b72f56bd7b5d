#include "services/service_helpers.h"

#include "common/strings.h"
#include "services/clipboard_service.h"
#include "services/location_service.h"
#include "services/net_media_services.h"
#include "services/ui_services.h"
#include "services/wifi_service.h"

namespace jgre::services {

MultiplexingListenerHelper::MultiplexingListenerHelper(
    AppProcess* app, std::string service_name, std::string descriptor,
    std::uint32_t register_code,
    std::function<void(binder::Parcel&)> write_prefix_args,
    std::function<void(binder::Parcel&)> write_suffix_args)
    : app_(app),
      service_name_(std::move(service_name)),
      descriptor_(std::move(descriptor)),
      register_code_(register_code),
      write_prefix_args_(std::move(write_prefix_args)),
      write_suffix_args_(std::move(write_suffix_args)) {}

Status MultiplexingListenerHelper::AddListener() {
  if (transport_ == nullptr) {
    // First listener: create the single per-process transport binder and
    // register it with the service. This is the only IPC registration the
    // helper will ever perform, bounding server-side JGRs at O(1).
    auto client = app_->GetService(service_name_, descriptor_);
    if (!client.ok()) return client.status();
    transport_ = app_->NewBinder(StrCat(descriptor_, ".Transport"));
    auto transport = transport_;
    auto prefix = write_prefix_args_;
    auto suffix = write_suffix_args_;
    Status status = client.value().Call(
        register_code_, [&](binder::Parcel& p) {
          if (prefix) prefix(p);
          p.WriteStrongBinder(transport);
          if (suffix) suffix(p);
        });
    if (!status.ok()) {
      transport_.reset();
      return status;
    }
  }
  ++local_listeners_;
  return Status::Ok();
}

ClipboardManager::ClipboardManager(AppProcess* app)
    : helper_(app, ClipboardService::kName, ClipboardService::kDescriptor,
              ClipboardService::TRANSACTION_addPrimaryClipChangedListener) {}

AccessibilityManager::AccessibilityManager(AppProcess* app)
    : helper_(app, AccessibilityService::kName,
              AccessibilityService::kDescriptor,
              AccessibilityService::TRANSACTION_addClient) {}

LauncherApps::LauncherApps(AppProcess* app)
    : helper_(app, LauncherAppsService::kName, LauncherAppsService::kDescriptor,
              LauncherAppsService::TRANSACTION_addOnAppsChangedListener) {}

TvInputManager::TvInputManager(AppProcess* app)
    : helper_(app, TvInputService::kName, TvInputService::kDescriptor,
              TvInputService::TRANSACTION_registerCallback, nullptr,
              [](binder::Parcel& p) { p.WriteInt32(0); /* userId */ }) {}

EthernetManager::EthernetManager(AppProcess* app)
    : helper_(app, EthernetService::kName, EthernetService::kDescriptor,
              EthernetService::TRANSACTION_addListener) {}

LocationManager::LocationManager(AppProcess* app)
    : measurements_(app, LocationService::kName, LocationService::kDescriptor,
                    LocationService::TRANSACTION_addGpsMeasurementsListener),
      navigation_(app, LocationService::kName, LocationService::kDescriptor,
                  LocationService::TRANSACTION_addGpsNavigationMessageListener) {}

WifiManager::WifiManager(AppProcess* app) : app_(app) {
  auto client = app_->GetService(WifiService::kName, WifiService::kDescriptor);
  if (client.ok()) client_ = client.value();
}

WifiManager::WifiLock WifiManager::CreateWifiLock(const std::string& tag) {
  return WifiLock(this, tag, /*multicast=*/false);
}

WifiManager::WifiLock WifiManager::CreateMulticastLock(const std::string& tag) {
  return WifiLock(this, tag, /*multicast=*/true);
}

Status WifiManager::WifiLock::Acquire() {
  if (held_) return Status::Ok();
  if (!manager_->client_.valid()) {
    return FailedPrecondition("wifi service unavailable");
  }
  binder_ = manager_->app_->NewBinder(
      (multicast_ ? "MulticastLock:" : "WifiLock:") + tag_);
  auto binder = binder_;
  const std::string tag = tag_;
  // Code-Snippet 1: acquire FIRST, then check the cap and roll back. The
  // service-side state is mutated before the helper's guard runs — which is
  // exactly why a direct binder caller never hits the guard at all.
  Status status =
      multicast_
          ? manager_->client_.Call(
                WifiService::TRANSACTION_acquireMulticastLock,
                [&](binder::Parcel& p) {
                  p.WriteStrongBinder(binder);
                  p.WriteString(tag);
                })
          : manager_->client_.Call(
                WifiService::TRANSACTION_acquireWifiLock,
                [&](binder::Parcel& p) {
                  p.WriteStrongBinder(binder);
                  p.WriteInt32(1);  // WIFI_MODE_FULL
                  p.WriteString(tag);
                });
  if (!status.ok()) return status;
  if (manager_->active_lock_count_ >= kMaxActiveLocks) {
    (void)manager_->client_.Call(
        multicast_ ? WifiService::TRANSACTION_releaseMulticastLock
                   : WifiService::TRANSACTION_releaseWifiLock,
        [&](binder::Parcel& p) { p.WriteStrongBinder(binder); });
    return LimitExceeded("Exceeded maximum number of wifi locks");
  }
  ++manager_->active_lock_count_;
  held_ = true;
  return Status::Ok();
}

Status WifiManager::WifiLock::Release() {
  if (!held_) return Status::Ok();
  Status status = manager_->client_.Call(
      multicast_ ? WifiService::TRANSACTION_releaseMulticastLock
                 : WifiService::TRANSACTION_releaseWifiLock,
      [&](binder::Parcel& p) { p.WriteStrongBinder(binder_); });
  held_ = false;
  --manager_->active_lock_count_;
  return status;
}

}  // namespace jgre::services
