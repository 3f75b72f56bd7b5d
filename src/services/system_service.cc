#include "services/system_service.h"

#include "common/strings.h"

namespace jgre::services {

SystemService::SystemService(SystemContext* sys, std::string service_name,
                             std::string descriptor)
    : binder::BBinder(std::move(descriptor)),
      sys_(sys),
      rng_(sys->kernel->rng().Fork()),
      service_name_(std::move(service_name)) {}

Status SystemService::Enforce(const binder::CallContext& ctx,
                              std::string_view permission) const {
  if (sys_->package_manager->CheckPermission(ctx.calling_uid, permission)) {
    return Status::Ok();
  }
  return PermissionDenied(StrCat("uid ", ctx.calling_uid.value(),
                                 " requires ", permission, " to call ",
                                 service_name_));
}

Result<std::string> SystemService::CallingPackage(
    const binder::CallContext& ctx) const {
  return sys_->package_manager->GetPackageForUid(ctx.calling_uid);
}

void SystemService::Charge(const binder::CallContext& ctx,
                           const CostProfile& cost,
                           std::size_t state_entries) {
  const DurationUs delta =
      cost.delta_max_us == 0
          ? 0
          : static_cast<DurationUs>(rng_.UniformU64(cost.delta_max_us + 1));
  const DurationUs lookup = static_cast<DurationUs>(
      cost.per_entry_us * static_cast<double>(state_entries));
  ctx.clock->AdvanceUs(cost.base_us + lookup + delta);
}

}  // namespace jgre::services
