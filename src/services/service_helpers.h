// Service helper classes — the client-side "defenses" of Table II.
//
// Android protects several vulnerable interfaces only inside developer-facing
// helper classes, via two client-side patterns:
//
// * a hard cap: WifiManager.MAX_ACTIVE_LOCKS = 50 (Code-Snippet 1) — acquire
//   is sent first, then the helper counts and *releases* past the limit;
// * transport multiplexing: ClipboardManager, AccessibilityManager,
//   LauncherApps, TvInputManager, EthernetManager and LocationManager keep a
//   single per-process transport binder and fan local listeners out onto it,
//   so the service retains O(1) JGRs per process no matter how many listeners
//   the app adds.
//
// Both are useless against a malicious app: it simply skips the helper and
// talks to the binder interface directly (Code-Snippet 2). The Table II bench
// demonstrates exactly this contrast.
#ifndef JGRE_SERVICES_SERVICE_HELPERS_H_
#define JGRE_SERVICES_SERVICE_HELPERS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "services/app.h"
#include "services/ipc_client.h"

namespace jgre::services {

// Shared implementation of the transport-multiplexing pattern.
class MultiplexingListenerHelper {
 public:
  // `register_code` is the service transaction that registers the transport;
  // `write_prefix_args` (optional) writes any leading non-binder arguments.
  MultiplexingListenerHelper(
      AppProcess* app, std::string service_name, std::string descriptor,
      std::uint32_t register_code,
      std::function<void(binder::Parcel&)> write_prefix_args = nullptr,
      std::function<void(binder::Parcel&)> write_suffix_args = nullptr);

  // Adds a local listener. Only the FIRST call sends an IPC registration
  // (with the shared transport binder); later calls are purely local.
  Status AddListener();

  int local_listener_count() const { return local_listeners_; }
  bool transport_registered() const { return transport_ != nullptr; }

 private:
  AppProcess* app_;
  std::string service_name_;
  std::string descriptor_;
  std::uint32_t register_code_;
  std::function<void(binder::Parcel&)> write_prefix_args_;
  std::function<void(binder::Parcel&)> write_suffix_args_;
  std::shared_ptr<binder::BBinder> transport_;
  int local_listeners_ = 0;
};

// ClipboardManager.addPrimaryClipChangedListener.
class ClipboardManager {
 public:
  explicit ClipboardManager(AppProcess* app);
  Status AddPrimaryClipChangedListener() { return helper_.AddListener(); }
  int listener_count() const { return helper_.local_listener_count(); }

 private:
  MultiplexingListenerHelper helper_;
};

// AccessibilityManager.addClient-style multiplexing.
class AccessibilityManager {
 public:
  explicit AccessibilityManager(AppProcess* app);
  Status AddClient() { return helper_.AddListener(); }

 private:
  MultiplexingListenerHelper helper_;
};

// LauncherApps.addOnAppsChangedListener.
class LauncherApps {
 public:
  explicit LauncherApps(AppProcess* app);
  Status AddOnAppsChangedListener() { return helper_.AddListener(); }

 private:
  MultiplexingListenerHelper helper_;
};

// TvInputManager.registerCallback.
class TvInputManager {
 public:
  explicit TvInputManager(AppProcess* app);
  Status RegisterCallback() { return helper_.AddListener(); }

 private:
  MultiplexingListenerHelper helper_;
};

// EthernetManager.addListener.
class EthernetManager {
 public:
  explicit EthernetManager(AppProcess* app);
  Status AddListener() { return helper_.AddListener(); }

 private:
  MultiplexingListenerHelper helper_;
};

// LocationManager: GPS measurement / navigation-message listeners.
class LocationManager {
 public:
  explicit LocationManager(AppProcess* app);
  Status AddGpsMeasurementsListener() { return measurements_.AddListener(); }
  Status AddGpsNavigationMessageListener() { return navigation_.AddListener(); }

 private:
  MultiplexingListenerHelper measurements_;
  MultiplexingListenerHelper navigation_;
};

// WifiManager — the capped helper of Code-Snippet 1.
class WifiManager {
 public:
  // WifiManager.MAX_ACTIVE_LOCKS ("prevent apps from creating a ridiculous
  // number of locks and crashing the system by overflowing the global ref
  // table").
  static constexpr int kMaxActiveLocks = 50;

  explicit WifiManager(AppProcess* app);

  class WifiLock {
   public:
    Status Acquire();
    Status Release();
    bool held() const { return held_; }

   private:
    friend class WifiManager;
    WifiLock(WifiManager* manager, std::string tag, bool multicast)
        : manager_(manager), tag_(std::move(tag)), multicast_(multicast) {}
    WifiManager* manager_;
    std::string tag_;
    bool multicast_ = false;
    std::shared_ptr<binder::BBinder> binder_;
    bool held_ = false;
  };

  WifiLock CreateWifiLock(const std::string& tag);
  // MulticastLock shares the same MAX_ACTIVE_LOCKS guard in WifiManager.
  WifiLock CreateMulticastLock(const std::string& tag);
  int active_lock_count() const { return active_lock_count_; }

 private:
  friend class WifiLock;
  AppProcess* app_;
  IpcClient client_;
  int active_lock_count_ = 0;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_SERVICE_HELPERS_H_
