// SystemService — base class for framework services hosted in system_server.
//
// Provides the pieces every AOSP service handler needs:
// * permission enforcement (Context.enforceCallingPermission);
// * an execution-cost model implementing the paper's Observation 2: each
//   interface has a stable base cost plus a small uniformly distributed
//   deviation Δ, and lookup cost grows with the amount of state the service
//   already stores (this produces Fig 5's growth and Fig 6's CDF);
// * access to the shared SystemContext (kernel, driver, service manager,
//   package manager, host pid).
#ifndef JGRE_SERVICES_SYSTEM_SERVICE_H_
#define JGRE_SERVICES_SYSTEM_SERVICE_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "binder/binder_driver.h"
#include "binder/ibinder.h"
#include "binder/parcel.h"
#include "binder/remote_callback_list.h"
#include "binder/service_manager.h"
#include "os/kernel.h"
#include "services/package_manager.h"
#include "snapshot/serializer.h"

namespace jgre::services {

// Shared environment wired up by the core facade at boot.
struct SystemContext {
  os::Kernel* kernel = nullptr;
  binder::BinderDriver* driver = nullptr;
  binder::ServiceManager* service_manager = nullptr;
  PackageManager* package_manager = nullptr;
  Pid system_server_pid;

  rt::Runtime* system_runtime() const {
    os::Process* p = kernel->FindProcess(system_server_pid);
    return (p != nullptr && p->HasRuntime()) ? p->runtime.get() : nullptr;
  }
};

// Per-interface execution cost (Observation 2): duration = base + Δ with
// Δ ~ U[0, delta_max], plus per_entry_us for every item of retained state the
// handler walks (listener lists, toast queues, subscription records).
struct CostProfile {
  DurationUs base_us = 200;
  double per_entry_us = 0.0;
  DurationUs delta_max_us = 100;
};

class SystemService : public binder::BBinder {
 public:
  SystemService(SystemContext* sys, std::string service_name,
                std::string descriptor);

  const std::string& service_name() const { return service_name_; }

  // Checkpointing. The base serializes the per-service cost RNG; services
  // with retained state (callback lists, queues, records) extend both hooks
  // and must call the base first. Restore runs against a freshly booted
  // service object whose wiring (driver registration, context) is already in
  // place.
  virtual void SaveState(snapshot::Serializer& out) const {
    rng_.SaveState(out);
  }
  virtual void RestoreState(snapshot::Deserializer& in) {
    rng_.RestoreState(in);
  }

 protected:
  // Context.enforceCallingPermission: kPermissionDenied unless granted.
  Status Enforce(const binder::CallContext& ctx,
                 std::string_view permission) const;

  // Binder.getCallingUid()-based package lookup.
  Result<std::string> CallingPackage(const binder::CallContext& ctx) const;

  // Advances virtual time for this handler invocation.
  void Charge(const binder::CallContext& ctx, const CostProfile& cost,
              std::size_t state_entries);

  SystemContext* sys_;
  Rng rng_;

 private:
  std::string service_name_;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_SYSTEM_SERVICE_H_
