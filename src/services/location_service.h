// LocationManagerService — GPS listener interfaces.
//
// `addGpsStatusListener` (Table I, ACCESS_FINE_LOCATION/dangerous) and the
// two measurement/navigation listener interfaces (Table II — capped only in
// the LocationManager helper) all retain the caller's listener binder until
// removal or death.
#ifndef JGRE_SERVICES_LOCATION_SERVICE_H_
#define JGRE_SERVICES_LOCATION_SERVICE_H_

#include "services/system_service.h"

namespace jgre::services {

class LocationService : public SystemService {
 public:
  static constexpr const char* kName = "location";
  static constexpr const char* kDescriptor =
      "android.location.ILocationManager";

  enum Code : std::uint32_t {
    TRANSACTION_addGpsStatusListener = 1,
    TRANSACTION_removeGpsStatusListener = 2,
    TRANSACTION_addGpsMeasurementsListener = 3,
    TRANSACTION_removeGpsMeasurementsListener = 4,
    TRANSACTION_addGpsNavigationMessageListener = 5,
    TRANSACTION_removeGpsNavigationMessageListener = 6,
    TRANSACTION_getLastLocation = 7,
  };

  explicit LocationService(SystemContext* sys);

  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;

  void SaveState(snapshot::Serializer& out) const override {
    SystemService::SaveState(out);
    gps_status_listeners_.SaveState(out);
    measurements_listeners_.SaveState(out);
    navigation_listeners_.SaveState(out);
  }
  void RestoreState(snapshot::Deserializer& in) override {
    SystemService::RestoreState(in);
    gps_status_listeners_.RestoreState(in);
    measurements_listeners_.RestoreState(in);
    navigation_listeners_.RestoreState(in);
  }

 private:
  binder::RemoteCallbackList gps_status_listeners_;
  binder::RemoteCallbackList measurements_listeners_;
  binder::RemoteCallbackList navigation_listeners_;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_LOCATION_SERVICE_H_
