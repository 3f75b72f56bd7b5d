// Runtime — per-process Android runtime (ART) model.
//
// Owns the heap and the JavaVMExt (JGR tables) and implements the two JNI
// lifetime patterns the paper's attack and defense revolve around:
//
// * Binder proxies: when a strong binder crosses IPC into this process,
//   libbinder's `javaObjectForIBinder` either returns the cached
//   android.os.BinderProxy for that node or creates a new one, taking one
//   JNI global reference that is only released when the proxy is garbage
//   collected. The attack works by sending a *fresh* Binder per call so every
//   call mints a new proxy + JGR that the victim's service state retains.
// * Managed JGRs: objects like JavaDeathRecipient hold a global ref on a Java
//   object and drop it when the object becomes collectable.
//
// `CollectGarbage` reclaims managed objects with zero strong holds, deleting
// their JGRs — this is what DDMS-triggered GC does in the paper's dynamic
// verification step, and why only *retained* binders are exploitable.
#ifndef JGRE_RUNTIME_RUNTIME_H_
#define JGRE_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/event_bus.h"
#include "runtime/heap.h"
#include "runtime/java_vm_ext.h"
#include "snapshot/serializer.h"

namespace jgre::rt {

class Runtime {
 public:
  struct Config {
    std::string name = "runtime";
    std::size_t max_global_refs = kGlobalsMax;
    // Global refs pinned at runtime init (WellKnownClasses and friends);
    // these are the paths the paper's JGR-entry extractor filters out as
    // non-exploitable. They form the baseline JGR footprint.
    std::size_t boot_class_refs = 0;
    // Observability source (bus + process identity) this runtime publishes
    // kJgr/kGc events from; default-empty = silent (standalone runtimes in
    // unit tests). The kernel fills this in for every process it creates.
    obs::Source obs;
  };

  Runtime(SimClock* clock, Config config);

  Heap& heap() { return heap_; }
  const Heap& heap() const { return heap_; }
  JavaVMExt& vm() { return vm_; }
  const JavaVMExt& vm() const { return vm_; }
  const std::string& name() const { return config_.name; }

  // --- Binder proxy management (javaObjectForIBinder) ------------------

  // Returns the proxy object for `node`, creating it (and its JGR) if this
  // process has not seen the node before or the old proxy was collected.
  // The proxy's heap label is "BinderProxy:" + `descriptor`, composed
  // without allocating.
  Result<ObjectId> GetOrCreateBinderProxy(NodeId node,
                                          std::string_view descriptor);

  // True if a live proxy for `node` is cached.
  bool HasBinderProxy(NodeId node) const {
    const std::size_t slot = static_cast<std::size_t>(node.value());
    return slot < proxy_by_node_.size() && proxy_by_node_[slot] != 0;
  }

  // Invoked when the GC collects a binder proxy; the binder driver uses this
  // to decrement the node's remote reference count (proxy finalization
  // releasing the kernel ref).
  void SetProxyCollectHandler(std::function<void(NodeId)> handler) {
    proxy_collect_handler_ = std::move(handler);
  }

  // --- Managed objects (JavaDeathRecipient pattern) ---------------------

  // Allocates a heap object holding one JGR; the GC deletes the JGR and frees
  // the object once its strong-hold count reaches zero.
  Result<ObjectId> AllocManagedObject(ObjectKind kind, std::string_view label);
  // Composed-label variant (label = prefix + suffix, interned allocation-free
  // on the steady state).
  Result<ObjectId> AllocManagedObject(ObjectKind kind,
                                      std::string_view label_prefix,
                                      std::string_view label_suffix);

  // Allocates a plain heap object with NO global ref (parameters, payloads).
  ObjectId AllocPlainObject(std::string_view label) {
    return heap_.Alloc(ObjectKind::kPlain, label);
  }

  // --- Local references (JNI frames) ----------------------------------------

  // JNI local references are valid for the duration of a native call and are
  // released automatically when the frame pops (§I: the reason only *global*
  // references can be exhausted across calls). The binder dispatch path
  // pushes a frame around every transaction handler.
  IndirectReferenceTable::Cookie PushLocalFrame() {
    ++local_frame_depth_;
    return locals_.PushFrame();
  }
  void PopLocalFrame(IndirectReferenceTable::Cookie cookie) {
    locals_.PopFrame(cookie);
    --local_frame_depth_;
  }
  bool InLocalFrame() const { return local_frame_depth_ > 0; }
  // Adds a local reference in the current frame; overflowing the local table
  // (512 entries in ART) aborts the runtime just like the global table.
  Result<IndirectRef> AddLocalRef(ObjectId obj);
  std::size_t LocalRefCount() const { return locals_.Size(); }

  // --- GC ----------------------------------------------------------------

  // Sweeps unheld managed/proxy objects; returns number of JGRs released.
  // Costs `gc_pause_us` of virtual time (configurable, default 2ms).
  std::size_t CollectGarbage();

  // --- State / stats -------------------------------------------------------

  bool aborted() const { return vm_.aborted(); }
  std::size_t JgrCount() const { return vm_.GlobalRefCount(); }
  std::int64_t gc_runs() const { return gc_runs_; }

  // Fired (once) when the JGR table overflows; the kernel layer uses this to
  // kill the process.
  void SetAbortHandler(std::function<void(const std::string&)> handler) {
    vm_.SetAbortHandler(std::move(handler));
  }

  // Checkpointing: heap (whose columns carry the proxy/managed-ref
  // attachments), both VM tables, and locals; the proxy cache is rebuilt by
  // scanning the restored heap. The abort handler and proxy-collect handler
  // are wiring (kernel and binder driver re-attach them on restore), not
  // state. RestoreState writes into the capacity the runtime already has,
  // so the kernel can restore a checkpoint into a runtime it keeps.
  void SaveState(snapshot::Serializer& out) const;
  void RestoreState(snapshot::Deserializer& in);

  // Moves with every change to the runtime's checkpointed state (heap, JNI
  // tables, GC bookkeeping); never restored itself. The kernel records it
  // after a restore: an unchanged reading at the next restore from the same
  // checkpoint proves the runtime still holds exactly that state.
  std::uint64_t MutationEpoch() const {
    return epoch_ + heap_.mutation_epoch() + vm_.mutation_epoch() +
           locals_.mutation_epoch();
  }

  // Drops the wiring an owner attaches after construction (the binder
  // driver's proxy-collect handler, weak-table event emission), so a runtime
  // the kernel keeps across a restore starts out like a freshly built one.
  // The abort handler stays: it names the same kernel and pid.
  void ResetWiring() {
    proxy_collect_handler_ = nullptr;
    vm_.SetWeakEventEmission(false);
  }

  // Set at construction time only; it is checkpointed, but MutationEpoch
  // does not track writes to it.
  DurationUs gc_pause_us = 2000;

 private:
  SimClock* clock_;
  Config config_;
  Heap heap_;
  JavaVMExt vm_;
  IndirectReferenceTable locals_;
  int local_frame_depth_ = 0;
  std::int64_t gc_runs_ = 0;
  std::uint64_t epoch_ = 0;  // GC runs and restores; see MutationEpoch

  // node -> live proxy object id (BinderProxy cache), dense over node ids
  // (0 = no cached proxy; object ids start at 1). The reverse direction and
  // the JNI ref attachments live in the heap's columns.
  std::vector<std::int64_t> proxy_by_node_;
  // Scratch for CollectGarbage's candidate rounds (reused across GCs).
  std::vector<ObjectId> gc_candidates_;
  std::function<void(NodeId)> proxy_collect_handler_;
};

}  // namespace jgre::rt

#endif  // JGRE_RUNTIME_RUNTIME_H_
