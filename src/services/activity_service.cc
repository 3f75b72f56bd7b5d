#include "services/activity_service.h"

#include "common/log.h"
#include "common/strings.h"

namespace jgre::services {

namespace {
constexpr CostProfile kRegisterListenerCost{600, 0.50, 350};
constexpr CostProfile kRegisterReceiverCost{900, 0.75, 500};
constexpr CostProfile kBindServiceCost{1400, 0.90, 700};
constexpr CostProfile kForceStopCost{2500, 0.0, 500};
}  // namespace

ActivityService::ActivityService(SystemContext* sys)
    : SystemService(sys, kName, kDescriptor),
      task_stack_listeners_(sys->driver, sys->system_server_pid,
                            "activity.TaskStackListeners"),
      receivers_(sys->driver, sys->system_server_pid,
                 "activity.RegisteredReceivers"),
      service_connections_(sys->driver, sys->system_server_pid,
                           "activity.ServiceConnections") {}

Status ActivityService::OnTransact(std::uint32_t code,
                                   const binder::Parcel& data,
                                   binder::Parcel* reply,
                                   const binder::CallContext& ctx) {
  JGRE_RETURN_IF_ERROR(data.EnforceInterface(kDescriptor));
  switch (code) {
    case TRANSACTION_registerTaskStackListener: {
      Charge(ctx, kRegisterListenerCost,
             task_stack_listeners_.RegisteredCount());
      auto listener = data.ReadStrongBinder(ctx);
      if (!listener.ok()) return listener.status();
      if (listener.value().valid()) {
        task_stack_listeners_.Register(listener.value());
      }
      return Status::Ok();
    }
    case TRANSACTION_registerReceiver: {
      Charge(ctx, kRegisterReceiverCost, receivers_.RegisteredCount());
      auto pkg = data.ReadString();
      if (!pkg.ok()) return pkg.status();
      auto receiver = data.ReadStrongBinder(ctx);  // IIntentReceiver
      if (!receiver.ok()) return receiver.status();
      auto filter = data.ReadString();
      if (!filter.ok()) return filter.status();
      if (receiver.value().valid()) receivers_.Register(receiver.value());
      reply->WriteNullBinder();  // sticky intent result
      return Status::Ok();
    }
    case TRANSACTION_unregisterReceiver: {
      Charge(ctx, kRegisterReceiverCost, receivers_.RegisteredCount());
      auto receiver = data.ReadStrongBinder(ctx);
      if (!receiver.ok()) return receiver.status();
      if (receiver.value().valid()) {
        receivers_.Unregister(receiver.value().node);
      }
      return Status::Ok();
    }
    case TRANSACTION_bindService: {
      Charge(ctx, kBindServiceCost, service_connections_.RegisteredCount());
      auto intent = data.ReadString();
      if (!intent.ok()) return intent.status();
      auto connection = data.ReadStrongBinder(ctx);  // IServiceConnection
      if (!connection.ok()) return connection.status();
      if (connection.value().valid()) {
        service_connections_.Register(connection.value());
      }
      reply->WriteInt32(1);  // bound
      return Status::Ok();
    }
    case TRANSACTION_unbindService: {
      Charge(ctx, kBindServiceCost, service_connections_.RegisteredCount());
      auto connection = data.ReadStrongBinder(ctx);
      if (!connection.ok()) return connection.status();
      if (connection.value().valid()) {
        service_connections_.Unregister(connection.value().node);
      }
      return Status::Ok();
    }
    case TRANSACTION_forceStopPackage: {
      // "am force-stop <pkg>": system-only; kills every process of the uid.
      if (ctx.calling_uid != kSystemUid && ctx.calling_uid != kRootUid) {
        return PermissionDenied("forceStopPackage requires FORCE_STOP_PACKAGES");
      }
      Charge(ctx, kForceStopCost, 0);
      auto pkg = data.ReadString();
      if (!pkg.ok()) return pkg.status();
      auto uid = sys_->package_manager->GetUidForPackage(pkg.value());
      if (!uid.ok()) return uid.status();
      for (Pid pid : sys_->kernel->LivePidsForUid(uid.value())) {
        sys_->kernel->KillProcess(pid, StrCat("force-stop ", pkg.value()));
      }
      ++force_stops_;
      JGRE_LOG(kInfo, "ActivityManager") << "Force stopping " << pkg.value();
      return Status::Ok();
    }
    default:
      return InvalidArgument("unknown activity transaction");
  }
}

}  // namespace jgre::services
