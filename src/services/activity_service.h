// ActivityManagerService — three vulnerable interfaces (Table I) plus the
// `forceStopPackage` entry point the JGRE Defender drives ("am force-stop").
#ifndef JGRE_SERVICES_ACTIVITY_SERVICE_H_
#define JGRE_SERVICES_ACTIVITY_SERVICE_H_

#include <string>
#include <unordered_map>

#include "services/system_service.h"

namespace jgre::services {

class ActivityService : public SystemService {
 public:
  static constexpr const char* kName = "activity";
  static constexpr const char* kDescriptor = "android.app.IActivityManager";

  enum Code : std::uint32_t {
    TRANSACTION_registerTaskStackListener = 1,
    TRANSACTION_registerReceiver = 2,
    TRANSACTION_unregisterReceiver = 3,
    TRANSACTION_bindService = 4,
    TRANSACTION_unbindService = 5,
    TRANSACTION_forceStopPackage = 6,
  };

  explicit ActivityService(SystemContext* sys);

  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;

  std::int64_t force_stops() const { return force_stops_; }

  void SaveState(snapshot::Serializer& out) const override {
    SystemService::SaveState(out);
    task_stack_listeners_.SaveState(out);
    receivers_.SaveState(out);
    service_connections_.SaveState(out);
    out.I64(force_stops_);
  }
  void RestoreState(snapshot::Deserializer& in) override {
    SystemService::RestoreState(in);
    task_stack_listeners_.RestoreState(in);
    receivers_.RestoreState(in);
    service_connections_.RestoreState(in);
    force_stops_ = in.I64();
  }

 private:
  binder::RemoteCallbackList task_stack_listeners_;
  binder::RemoteCallbackList receivers_;           // mRegisteredReceivers
  binder::RemoteCallbackList service_connections_; // ServiceRecord bindings
  std::int64_t force_stops_ = 0;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_ACTIVITY_SERVICE_H_
