// AudioService — `startWatchingRoutes` is the paper's fastest attack (~100 s
// to overflow, Fig 3); `registerRemoteController` requires no permission.
#ifndef JGRE_SERVICES_AUDIO_SERVICE_H_
#define JGRE_SERVICES_AUDIO_SERVICE_H_

#include "services/system_service.h"

namespace jgre::services {

class AudioService : public SystemService {
 public:
  static constexpr const char* kName = "audio";
  static constexpr const char* kDescriptor = "android.media.IAudioService";

  enum Code : std::uint32_t {
    TRANSACTION_registerRemoteController = 1,
    TRANSACTION_unregisterRemoteControlDisplay = 2,
    TRANSACTION_startWatchingRoutes = 3,
    TRANSACTION_getStreamVolume = 4,
    TRANSACTION_setStreamVolume = 5,
  };

  explicit AudioService(SystemContext* sys);

  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;

  void SaveState(snapshot::Serializer& out) const override {
    SystemService::SaveState(out);
    remote_controllers_.SaveState(out);
    routes_observers_.SaveState(out);
    out.I64(stream_volume_);
  }
  void RestoreState(snapshot::Deserializer& in) override {
    SystemService::RestoreState(in);
    remote_controllers_.RestoreState(in);
    routes_observers_.RestoreState(in);
    stream_volume_ = static_cast<int>(in.I64());
  }

 private:
  binder::RemoteCallbackList remote_controllers_;
  binder::RemoteCallbackList routes_observers_;
  int stream_volume_ = 7;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_AUDIO_SERVICE_H_
