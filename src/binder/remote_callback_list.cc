#include "binder/remote_callback_list.h"

#include <algorithm>
#include <vector>

#include "common/log.h"

namespace jgre::binder {

// Death recipient bridging binder death back into the list; one per list,
// shared by all of its links. The driver drops its reference when a link
// fires or is unlinked, and ~RemoteCallbackList unlinks every entry, so no
// link can call into a destroyed list.
class RemoteCallbackList::Recipient : public DeathRecipient {
 public:
  explicit Recipient(RemoteCallbackList* list) : list_(list) {}
  void BinderDied(NodeId who) override { list_->OnCallbackDied(who); }

 private:
  RemoteCallbackList* list_;
};

RemoteCallbackList::RemoteCallbackList(BinderDriver* driver, Pid host,
                                       std::string name)
    : driver_(driver),
      host_(host),
      name_(std::move(name)),
      recipient_(std::make_shared<Recipient>(this)) {}

RemoteCallbackList::~RemoteCallbackList() { Kill(); }

bool RemoteCallbackList::Register(const StrongBinder& callback) {
  if (!callback.valid()) return false;
  if (entries_.count(callback.node) > 0) return false;
  Entry entry;
  entry.callback = callback;
  // Strong hold on the proxy: the list's ArrayMap keeps the IInterface.
  if (callback.java_obj.valid()) {
    os::Process* host = driver_->kernel().FindProcess(host_);
    if (host != nullptr && host->alive && host->HasRuntime()) {
      host->runtime->heap().AddHold(callback.java_obj);
    }
  }
  auto link = driver_->LinkToDeath(host_, callback.node, recipient_);
  if (link.ok()) {
    entry.link = link.value();
  } else {
    // Client died between send and register: keep AOSP behaviour (register
    // fails, the hold is released).
    driver_->DropHold(host_, callback.java_obj);
    return false;
  }
  entries_.emplace(callback.node, std::move(entry));
  ++total_registered_;
  return true;
}

bool RemoteCallbackList::Unregister(NodeId node) {
  auto it = entries_.find(node);
  if (it == entries_.end()) return false;
  if (it->second.link >= 0) driver_->UnlinkToDeath(it->second.link);
  driver_->DropHold(host_, it->second.callback.java_obj);
  entries_.erase(it);
  return true;
}

void RemoteCallbackList::OnCallbackDied(NodeId node) {
  auto it = entries_.find(node);
  if (it == entries_.end()) return;
  // The driver already dropped the JavaDeathRecipient hold; release ours on
  // the proxy so the next GC reclaims both JGRs.
  driver_->DropHold(host_, it->second.callback.java_obj);
  entries_.erase(it);
  ++dead_callbacks_;
  if (on_callback_died_) on_callback_died_(node);
  JGRE_LOG(kDebug, "RemoteCallbackList")
      << name_ << ": callback died, " << entries_.size() << " remain";
}

void RemoteCallbackList::Kill() {
  // Unregister in node order: map iteration order depends on hash-bucket
  // history, which a checkpoint restore does not reproduce.
  for (NodeId node : SortedNodes()) {
    Entry& entry = entries_.at(node);
    if (entry.link >= 0) driver_->UnlinkToDeath(entry.link);
    driver_->DropHold(host_, entry.callback.java_obj);
  }
  entries_.clear();
}

void RemoteCallbackList::Broadcast(const std::function<void(IBinder&)>& fn) {
  // Snapshot: callbacks may die (and be erased) while being invoked. Invoke
  // in node (registration) order so a restored list broadcasts identically
  // to the cold run it was forked from.
  std::vector<std::shared_ptr<IBinder>> snapshot;
  snapshot.reserve(entries_.size());
  for (NodeId node : SortedNodes()) {
    snapshot.push_back(entries_.at(node).callback.binder);
  }
  for (auto& binder : snapshot) {
    if (binder != nullptr) fn(*binder);
  }
}

std::vector<NodeId> RemoteCallbackList::SortedNodes() const {
  std::vector<NodeId> nodes;
  nodes.reserve(entries_.size());
  for (const auto& [node, entry] : entries_) nodes.push_back(node);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

void RemoteCallbackList::SaveState(snapshot::Serializer& out) const {
  out.U64(entries_.size());
  for (NodeId node : SortedNodes()) {
    const Entry& entry = entries_.at(node);
    out.I64(node.value());
    out.I64(entry.callback.java_obj.value());
    out.I64(entry.link);
  }
  out.I64(total_registered_);
  out.I64(dead_callbacks_);
}

void RemoteCallbackList::RestoreState(snapshot::Deserializer& in) {
  entries_.clear();
  for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
    const NodeId node{in.I64()};
    Entry entry;
    entry.callback.node = node;
    entry.callback.java_obj = ObjectId{in.I64()};
    entry.callback.binder = std::make_shared<BpBinder>(driver_, node, host_);
    entry.link = in.I64();
    if (entry.link >= 0 &&
        !driver_->ReattachDeathRecipient(entry.link, recipient_)) {
      in.Fail("callback list references a death link the driver lost");
      return;
    }
    entries_.emplace(node, std::move(entry));
  }
  snapshot::ReleaseExcess(entries_);
  total_registered_ = in.I64();
  dead_callbacks_ = in.I64();
}

}  // namespace jgre::binder
