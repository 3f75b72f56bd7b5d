#include "services/app.h"

namespace jgre::services {

Status NoopBinder::OnTransact(std::uint32_t /*code*/,
                              const binder::Parcel& /*data*/,
                              binder::Parcel* /*reply*/,
                              const binder::CallContext& ctx) {
  if (ctx.clock != nullptr) ctx.clock->AdvanceUs(40);
  return Status::Ok();
}

AppProcess::AppProcess(binder::BinderDriver* driver,
                       binder::ServiceManager* service_manager, Pid pid,
                       Uid uid, std::string package)
    : driver_(driver),
      service_manager_(service_manager),
      pid_(pid),
      uid_(uid),
      package_(std::move(package)) {}

bool AppProcess::alive() const { return driver_->kernel().IsAlive(pid_); }

rt::Runtime* AppProcess::runtime() const {
  os::Process* p = driver_->kernel().FindProcess(pid_);
  return (p != nullptr && p->HasRuntime()) ? p->runtime.get() : nullptr;
}

std::shared_ptr<binder::BBinder> AppProcess::NewBinder(
    std::string_view descriptor) {
  return driver_->MakeBinder<NoopBinder>(pid_, descriptor);
}

Result<IpcClient> AppProcess::GetService(std::string_view name,
                                         std::string_view descriptor) const {
  auto service = service_manager_->GetService(name, pid_);
  if (!service.ok()) return service.status();
  return IpcClient(service.value(), descriptor);
}

}  // namespace jgre::services
