#include "binder/ibinder.h"

#include "binder/binder_driver.h"
#include "binder/parcel.h"

namespace jgre::binder {

Status BBinder::Transact(std::uint32_t code, const Parcel& data,
                         Parcel* reply) {
  // Same-process call: no driver hop, no transport cost, no IPC log entry.
  CallContext ctx;
  ctx.calling_pid = owner_pid_;
  ctx.self_pid = owner_pid_;
  ctx.driver = driver_;
  if (driver_ != nullptr) {
    os::Process* self = driver_->kernel().FindProcess(owner_pid_);
    if (self != nullptr) {
      ctx.calling_uid = self->uid;
      ctx.runtime = self->HasRuntime() ? self->runtime.get() : nullptr;
    }
    ctx.clock = &driver_->kernel().clock();
  }
  data.RewindRead();
  return OnTransact(code, data, reply, ctx);
}

const std::string& BpBinder::InterfaceDescriptor() const {
  return driver_->NodeDescriptor(node_);
}

Status BpBinder::Transact(std::uint32_t code, const Parcel& data,
                          Parcel* reply) {
  return driver_->Transact(holder_pid_, node_, code, data, reply);
}

}  // namespace jgre::binder
