#include "services/telephony_registry_service.h"

#include <algorithm>

namespace jgre::services {

namespace {
// Fig 5: base ~200 µs growing ~1 µs per stored Record — ~50 ms at 50k calls.
constexpr CostProfile kListenCost{200, 2.0, 300};
constexpr CostProfile kAddSubListenerCost{350, 0.45, 250};
}  // namespace

TelephonyRegistryService::TelephonyRegistryService(SystemContext* sys)
    : SystemService(sys, kName, kDescriptor),
      listeners_(sys->driver, sys->system_server_pid,
                 "telephony.registry.Records"),
      subscription_listeners_(sys->driver, sys->system_server_pid,
                              "telephony.registry.SubscriptionListeners") {
  listeners_.SetOnCallbackDied([this](NodeId node) { RemoveRecord(node); });
}

void TelephonyRegistryService::RemoveRecord(NodeId node) {
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [node](const Record& r) {
                                  return r.node == node;
                                }),
                 records_.end());
}

Status TelephonyRegistryService::HandleListen(const binder::Parcel& data,
                                              const binder::CallContext& ctx,
                                              std::int32_t sub_id) {
  Charge(ctx, kListenCost, records_.size());
  auto pkg = data.ReadString();
  if (!pkg.ok()) return pkg.status();
  auto callback = data.ReadStrongBinder(ctx);  // IPhoneStateListener
  if (!callback.ok()) return callback.status();
  auto events = data.ReadInt32();
  if (!events.ok()) return events.status();
  if (!callback.value().valid()) {
    return InvalidArgument("listen: null callback");
  }
  // Existing record for this binder is updated in place (benign clients call
  // listen() repeatedly with the SAME PhoneStateListener — no growth).
  auto existing = std::find_if(records_.begin(), records_.end(),
                               [&](const Record& r) {
                                 return r.node == callback.value().node;
                               });
  if (events.value() == 0 /* LISTEN_NONE */) {
    if (existing != records_.end()) {
      records_.erase(existing);
      listeners_.Unregister(callback.value().node);
    }
    return Status::Ok();
  }
  if (existing != records_.end()) {
    existing->events = events.value();
    existing->sub_id = sub_id;
    return Status::Ok();
  }
  // Fresh binder => new Record retained until LISTEN_NONE or caller death.
  listeners_.Register(callback.value());
  records_.push_back(
      Record{callback.value().node, std::string(pkg.value()), sub_id,
             events.value()});
  return Status::Ok();
}

void TelephonyRegistryService::SaveState(snapshot::Serializer& out) const {
  SystemService::SaveState(out);
  listeners_.SaveState(out);
  out.U64(records_.size());
  for (const Record& record : records_) {  // vector: registration order
    out.I64(record.node.value());
    out.Str(record.pkg);
    out.I64(record.sub_id);
    out.I64(record.events);
  }
  subscription_listeners_.SaveState(out);
}

void TelephonyRegistryService::RestoreState(snapshot::Deserializer& in) {
  SystemService::RestoreState(in);
  listeners_.RestoreState(in);
  records_.clear();
  for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
    Record record;
    record.node = NodeId{in.I64()};
    record.pkg = in.Str();
    record.sub_id = static_cast<std::int32_t>(in.I64());
    record.events = static_cast<std::int32_t>(in.I64());
    records_.push_back(std::move(record));
  }
  snapshot::ReleaseExcess(records_);
  subscription_listeners_.RestoreState(in);
}

Status TelephonyRegistryService::OnTransact(std::uint32_t code,
                                            const binder::Parcel& data,
                                            binder::Parcel* reply,
                                            const binder::CallContext& ctx) {
  (void)reply;
  JGRE_RETURN_IF_ERROR(data.EnforceInterface(kDescriptor));
  switch (code) {
    case TRANSACTION_listen:
      JGRE_RETURN_IF_ERROR(Enforce(ctx, perms::kReadPhoneState));
      return HandleListen(data, ctx, /*sub_id=*/0);
    case TRANSACTION_listenForSubscriber: {
      JGRE_RETURN_IF_ERROR(Enforce(ctx, perms::kReadPhoneState));
      auto sub_id = data.ReadInt32();
      if (!sub_id.ok()) return sub_id.status();
      return HandleListen(data, ctx, sub_id.value());
    }
    case TRANSACTION_addOnSubscriptionsChangedListener: {
      JGRE_RETURN_IF_ERROR(Enforce(ctx, perms::kReadPhoneState));
      Charge(ctx, kAddSubListenerCost,
             subscription_listeners_.RegisteredCount());
      auto pkg = data.ReadString();
      if (!pkg.ok()) return pkg.status();
      auto listener = data.ReadStrongBinder(ctx);
      if (!listener.ok()) return listener.status();
      if (listener.value().valid()) {
        subscription_listeners_.Register(listener.value());
      }
      return Status::Ok();
    }
    case TRANSACTION_removeOnSubscriptionsChangedListener: {
      Charge(ctx, kAddSubListenerCost,
             subscription_listeners_.RegisteredCount());
      auto listener = data.ReadStrongBinder(ctx);
      if (!listener.ok()) return listener.status();
      if (listener.value().valid()) {
        subscription_listeners_.Unregister(listener.value().node);
      }
      return Status::Ok();
    }
    default:
      return InvalidArgument("unknown telephony.registry transaction");
  }
}

}  // namespace jgre::services
