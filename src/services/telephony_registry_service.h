// TelephonyRegistry — `listenForSubscriber` is the paper's Fig 5 subject:
// each call appends a Record to a linearly scanned list, so execution time
// grows with the number of invocations (reaching ~50 ms around call 50,000).
#ifndef JGRE_SERVICES_TELEPHONY_REGISTRY_SERVICE_H_
#define JGRE_SERVICES_TELEPHONY_REGISTRY_SERVICE_H_

#include <string>
#include <vector>

#include "services/system_service.h"

namespace jgre::services {

class TelephonyRegistryService : public SystemService {
 public:
  static constexpr const char* kName = "telephony.registry";
  static constexpr const char* kDescriptor =
      "com.android.internal.telephony.ITelephonyRegistry";

  enum Code : std::uint32_t {
    TRANSACTION_listen = 1,
    TRANSACTION_listenForSubscriber = 2,
    TRANSACTION_addOnSubscriptionsChangedListener = 3,
    TRANSACTION_removeOnSubscriptionsChangedListener = 4,
  };

  explicit TelephonyRegistryService(SystemContext* sys);

  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;

  std::size_t RecordCount() const { return records_.size(); }

  void SaveState(snapshot::Serializer& out) const override;
  void RestoreState(snapshot::Deserializer& in) override;

 private:
  // mRecords: one Record per (callback binder); linear lookup by binder.
  struct Record {
    NodeId node;
    std::string pkg;
    std::int32_t sub_id = 0;
    std::int32_t events = 0;
  };

  Status HandleListen(const binder::Parcel& data,
                      const binder::CallContext& ctx, std::int32_t sub_id);
  void RemoveRecord(NodeId node);

  binder::RemoteCallbackList listeners_;  // retains the callback binders
  std::vector<Record> records_;
  binder::RemoteCallbackList subscription_listeners_;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_TELEPHONY_REGISTRY_SERVICE_H_
