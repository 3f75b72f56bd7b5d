// WifiService (WifiServiceImpl) — the first JGRE vulnerability ever fixed
// (2009) and the canonical helper-class defense (Code-Snippet 1).
//
// `acquireWifiLock` / `acquireMulticastLock` retain the caller's lock binder
// until release or death. The cap — `MAX_ACTIVE_LOCKS = 50` with the famous
// comment "prevent apps from creating a ridiculous number of locks and
// crashing the system by overflowing the global ref table" — lives in the
// WifiManager *helper*, not here, so direct binder calls bypass it entirely
// (§IV.C.1, Code-Snippet 2).
#ifndef JGRE_SERVICES_WIFI_SERVICE_H_
#define JGRE_SERVICES_WIFI_SERVICE_H_

#include <string>
#include <unordered_map>

#include "services/system_service.h"

namespace jgre::services {

class WifiService : public SystemService {
 public:
  static constexpr const char* kName = "wifi";
  static constexpr const char* kDescriptor = "android.net.wifi.IWifiManager";

  enum Code : std::uint32_t {
    TRANSACTION_acquireWifiLock = 1,
    TRANSACTION_releaseWifiLock = 2,
    TRANSACTION_acquireMulticastLock = 3,
    TRANSACTION_releaseMulticastLock = 4,
    TRANSACTION_getWifiEnabledState = 5,
  };

  explicit WifiService(SystemContext* sys);

  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;

  std::size_t WifiLockCount() const { return wifi_locks_.RegisteredCount(); }

  void SaveState(snapshot::Serializer& out) const override {
    SystemService::SaveState(out);
    wifi_locks_.SaveState(out);
    multicast_locks_.SaveState(out);
    snapshot::SaveUnorderedMap(
        out, lock_tags_,
        [](snapshot::Serializer& s, NodeId node, const std::string& tag) {
          s.I64(node.value());
          s.Str(tag);
        });
  }
  void RestoreState(snapshot::Deserializer& in) override {
    SystemService::RestoreState(in);
    wifi_locks_.RestoreState(in);
    multicast_locks_.RestoreState(in);
    lock_tags_.clear();
    for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
      const NodeId node{in.I64()};
      lock_tags_.emplace(node, in.Str());
    }
    snapshot::ReleaseExcess(lock_tags_);
  }

 private:
  // WifiLockList / multicast lockers: binder-token keyed, death-pruned.
  binder::RemoteCallbackList wifi_locks_;
  binder::RemoteCallbackList multicast_locks_;
  std::unordered_map<NodeId, std::string> lock_tags_;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_WIFI_SERVICE_H_
