// RemoteCallbackList — android.os.RemoteCallbackList.
//
// The canonical "register a callback across IPC" container: it keeps a strong
// reference to each callback binder and links to the caller's death so dead
// clients are pruned automatically. In JGR terms, each registration pins
// **two** global references in the hosting process — the BinderProxy itself
// and the JavaDeathRecipient — until the client unregisters or dies. This is
// why the paper's vulnerable listener-style interfaces leak ~2 JGRs per call
// when fed a fresh Binder each time, and why killing the attacker fully
// recovers the table (defense phase 3).
#ifndef JGRE_BINDER_REMOTE_CALLBACK_LIST_H_
#define JGRE_BINDER_REMOTE_CALLBACK_LIST_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "binder/binder_driver.h"
#include "binder/ibinder.h"
#include "snapshot/serializer.h"

namespace jgre::binder {

class RemoteCallbackList {
 public:
  // `host` is the process whose runtime retains the callbacks (the service's
  // process — usually system_server).
  RemoteCallbackList(BinderDriver* driver, Pid host, std::string name);
  ~RemoteCallbackList();

  RemoteCallbackList(const RemoteCallbackList&) = delete;
  RemoteCallbackList& operator=(const RemoteCallbackList&) = delete;

  // Registers a callback. Returns false if this node is already registered
  // (AOSP replaces the cookie; for JGR purposes the effect is the same: no
  // additional reference is retained).
  bool Register(const StrongBinder& callback);

  bool Unregister(NodeId node);

  bool IsRegistered(NodeId node) const { return entries_.count(node) > 0; }
  std::size_t RegisteredCount() const { return entries_.size(); }

  // Unregisters everything (service teardown).
  void Kill();

  // Optional hook invoked after a callback is pruned because its owner died
  // (onCallbackDied override in AOSP); services use it to drop side state.
  void SetOnCallbackDied(std::function<void(NodeId)> fn) {
    on_callback_died_ = std::move(fn);
  }

  // beginBroadcast/finishBroadcast collapsed into one call: invokes `fn` on
  // every live callback.
  void Broadcast(const std::function<void(IBinder&)>& fn);

  std::int64_t total_registered() const { return total_registered_; }
  std::int64_t dead_callbacks() const { return dead_callbacks_; }

  // Checkpointing. Entries persist as (node, java_obj, link) triples; the
  // restore rebuilds each proxy shim from the driver's node table and hangs a
  // fresh death recipient back on the already-restored driver link. Heap
  // holds are NOT re-added — the host runtime was restored wholesale and
  // already carries them.
  void SaveState(snapshot::Serializer& out) const;
  void RestoreState(snapshot::Deserializer& in);

 private:
  class Recipient;

  void OnCallbackDied(NodeId node);
  std::vector<NodeId> SortedNodes() const;

  BinderDriver* driver_;
  Pid host_;
  std::string name_;

  struct Entry {
    StrongBinder callback;
    LinkId link = -1;
  };
  std::unordered_map<NodeId, Entry> entries_;
  std::shared_ptr<Recipient> recipient_;
  std::function<void(NodeId)> on_callback_died_;
  std::int64_t total_registered_ = 0;
  std::int64_t dead_callbacks_ = 0;
};

}  // namespace jgre::binder

#endif  // JGRE_BINDER_REMOTE_CALLBACK_LIST_H_
