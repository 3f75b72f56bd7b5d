// AppProcess — an installed application with a running process.
//
// Bundles the pieces app-side code needs: the process/uid identity, local
// Binder creation (`new Binder()` — each one mints a node and a JavaBBinder
// JGR in the app itself), service lookup, and typed IPC clients. Used by the
// attack framework, the benign workload generator, and the tests.
#ifndef JGRE_SERVICES_APP_H_
#define JGRE_SERVICES_APP_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "binder/binder_driver.h"
#include "binder/ibinder.h"
#include "binder/service_manager.h"
#include "services/ipc_client.h"

namespace jgre::services {

// A do-nothing callback binder: the `new Binder()` of Code-Snippet 2.
class NoopBinder : public binder::BBinder {
 public:
  explicit NoopBinder(std::string_view descriptor)
      : binder::BBinder(std::string(descriptor)) {}
  Status OnTransact(std::uint32_t code, const binder::Parcel& data,
                    binder::Parcel* reply,
                    const binder::CallContext& ctx) override;
};

class AppProcess {
 public:
  AppProcess(binder::BinderDriver* driver,
             binder::ServiceManager* service_manager, Pid pid, Uid uid,
             std::string package);

  Pid pid() const { return pid_; }
  Uid uid() const { return uid_; }
  const std::string& package() const { return package_; }
  bool alive() const;
  rt::Runtime* runtime() const;

  // `new Binder()`: a fresh local binder owned by this app.
  std::shared_ptr<binder::BBinder> NewBinder(std::string_view descriptor);

  // ServiceManager.getService + Stub.asInterface.
  Result<IpcClient> GetService(std::string_view name,
                               std::string_view descriptor) const;

  binder::BinderDriver* driver() const { return driver_; }

 private:
  binder::BinderDriver* driver_;
  binder::ServiceManager* service_manager_;
  Pid pid_;
  Uid uid_;
  std::string package_;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_APP_H_
