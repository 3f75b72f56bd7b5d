// JavaVMExt — per-process VM state holding the JNI global reference tables.
//
// Mirrors art/runtime/java_vm_ext.{h,cc} in AOSP 6.0.1, where
// `static constexpr size_t kGlobalsMax = 51200;` caps the global reference
// table and an overflow calls `Runtime::Abort`. JGR mutations are published
// as obs::Category::kJgr events on the process's EventBus — the seam the
// paper's defense extends: its modified runtime records the time of every
// JGR creation/deletion once the count passes an alarm threshold.
#ifndef JGRE_RUNTIME_JAVA_VM_EXT_H_
#define JGRE_RUNTIME_JAVA_VM_EXT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/event_bus.h"
#include "runtime/indirect_reference_table.h"
#include "snapshot/serializer.h"

namespace jgre::rt {

// AOSP 6.0.1: art/runtime/java_vm_ext.cc `kGlobalsMax`.
inline constexpr std::size_t kGlobalsMax = 51200;
// Weak globals share the same cap in ART 6.
inline constexpr std::size_t kWeakGlobalsMax = 51200;

class JavaVMExt {
 public:
  JavaVMExt(SimClock* clock, std::string runtime_name,
            std::size_t max_globals = kGlobalsMax,
            std::size_t max_weak_globals = kWeakGlobalsMax,
            obs::Source source = {});

  JavaVMExt(const JavaVMExt&) = delete;
  JavaVMExt& operator=(const JavaVMExt&) = delete;

  // Adds a global reference. On table overflow the abort handler fires
  // (process death in the kernel layer) and kResourceExhausted is returned.
  Result<IndirectRef> AddGlobalRef(ObjectId obj);
  bool DeleteGlobalRef(IndirectRef ref);

  Result<IndirectRef> AddWeakGlobalRef(ObjectId obj);
  bool DeleteWeakGlobalRef(IndirectRef ref);

  Result<ObjectId> DecodeGlobal(IndirectRef ref) const;

  std::size_t GlobalRefCount() const { return globals_.Size(); }
  std::size_t WeakGlobalRefCount() const { return weak_globals_.Size(); }
  std::size_t MaxGlobals() const { return globals_.Capacity(); }

  const IndirectReferenceTable& globals() const { return globals_; }

  bool aborted() const { return aborted_; }

  // Called once, on overflow, with the ART-style abort message.
  void SetAbortHandler(std::function<void(const std::string&)> handler) {
    abort_handler_ = std::move(handler);
  }

  // Opt-in kJgrWeakAdd/kJgrWeakRemove emission. Off by default: every
  // BinderProxy mint goes through the weak table (the libbinder proxy
  // cache), so unconditional emission would reshape every existing kJgr
  // stream. Scenario drivers that watch the weak table (the arms-race
  // weakref_churn cells) flip it on for their victim runtime.
  void SetWeakEventEmission(bool enabled) { emit_weak_events_ = enabled; }
  bool weak_event_emission() const { return emit_weak_events_; }

  // Checkpointing: both reference tables plus the abort flag. The abort
  // handler and observability source are wiring, re-attached by the owner.
  void SaveState(snapshot::Serializer& out) const {
    globals_.SaveState(out);
    weak_globals_.SaveState(out);
    out.Bool(aborted_);
  }
  void RestoreState(snapshot::Deserializer& in) {
    globals_.RestoreState(in);
    weak_globals_.RestoreState(in);
    aborted_ = in.Bool();
  }

  // Moves with every change to either table or the abort flag; see
  // Heap::mutation_epoch.
  std::uint64_t mutation_epoch() const {
    return globals_.mutation_epoch() + weak_globals_.mutation_epoch() +
           (aborted_ ? 1 : 0);
  }

  std::int64_t total_global_adds() const { return globals_.total_adds(); }
  std::int64_t total_global_removes() const {
    return globals_.total_removes();
  }

  const std::string& runtime_name() const { return runtime_name_; }

 private:
  void NotifyAdd(ObjectId obj);
  void NotifyRemove(ObjectId obj);
  void NotifyWeak(obs::Label label, ObjectId obj);
  void Abort(const std::string& reason);

  SimClock* clock_;
  std::string runtime_name_;
  obs::Source source_;
  IndirectReferenceTable globals_;
  IndirectReferenceTable weak_globals_;
  std::function<void(const std::string&)> abort_handler_;
  bool aborted_ = false;
  bool emit_weak_events_ = false;
};

}  // namespace jgre::rt

#endif  // JGRE_RUNTIME_JAVA_VM_EXT_H_
