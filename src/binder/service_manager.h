// ServiceManager — the binder name service (handle 0).
//
// System services register here at boot (`ServiceManager.addService` /
// `publishBinderService`); apps look them up by name and receive a proxy.
// Registration is restricted to system uids, mirroring servicemanager's
// `svc_can_register` check. The paper's IPC-method extractor enumerates
// exactly the interfaces reachable through this registry.
#ifndef JGRE_BINDER_SERVICE_MANAGER_H_
#define JGRE_BINDER_SERVICE_MANAGER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "common/types.h"
#include "binder/binder_driver.h"
#include "binder/ibinder.h"
#include "snapshot/serializer.h"

namespace jgre::binder {

class ServiceManager {
 public:
  explicit ServiceManager(BinderDriver* driver) : driver_(driver) {}

  // Registers `service` under `name`. Only root/system may register
  // (svc_can_register); re-registration replaces the entry (reboot path).
  Status AddService(const std::string& name,
                    const std::shared_ptr<BBinder>& service, Uid caller);

  // Looks up `name` and materializes it in `caller` — for a remote caller
  // this mints the proxy + JGR on first lookup (cached thereafter).
  Result<StrongBinder> GetService(std::string_view name, Pid caller);

  bool HasService(const std::string& name) const {
    const StringInterner::Id id = names_.Find(name);
    return id != StringInterner::kInvalidId && nodes_by_name_[id].valid();
  }
  std::vector<std::string> ListServices() const;
  std::size_t ServiceCount() const { return service_count_; }

  // Drops all registrations (system soft reboot). Interned name ids are
  // stable across reboots; only the name → node routing entries clear.
  void Clear();

  // Checkpointing: interned names plus the name → node routing table.
  void SaveState(snapshot::Serializer& out) const {
    names_.SaveState(out);
    out.U64(nodes_by_name_.size());
    for (NodeId node : nodes_by_name_) out.I64(node.value());
    out.U64(service_count_);
  }
  void RestoreState(snapshot::Deserializer& in) {
    names_.RestoreState(in);
    nodes_by_name_.clear();
    for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
      nodes_by_name_.push_back(NodeId{in.I64()});
    }
    service_count_ = static_cast<std::size_t>(in.U64());
  }

 private:
  BinderDriver* driver_;
  // Service names are interned to dense ids once; routing is then a flat
  // vector lookup instead of a red-black-tree string walk per GetService.
  StringInterner names_;
  std::vector<NodeId> nodes_by_name_;  // indexed by interned name id
  std::size_t service_count_ = 0;
};

}  // namespace jgre::binder

#endif  // JGRE_BINDER_SERVICE_MANAGER_H_
