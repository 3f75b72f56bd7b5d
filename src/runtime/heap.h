// Simulated Java heap with strong-hold accounting.
//
// The only heap property the JGRE attack depends on is *reachability*: a
// binder proxy (or death-recipient) object stays alive while some service
// data structure holds a strong reference to it, and its associated JNI
// global reference can only be reclaimed once the object becomes unreachable
// and the GC runs. We therefore model objects as identities with an explicit
// strong-hold count instead of a tracing collector — the reachable set is
// exactly the set of objects with holds > 0, which is what AOSP's retention
// patterns (maps, RemoteCallbackList, member fields) reduce to.
//
// Storage is a struct-of-arrays arena indexed by object id: ids are dense
// and allocated in order, so slot = id - 1 and every per-object attribute is
// a flat column (kind, holds, interned label, and the runtime's JNI ref /
// binder-node attachments). Allocation is a handful of column pushes with no
// per-object heap node, labels are interned once per distinct string instead
// of copied per object, and the snapshot subsystem serializes the live
// columns as flat spans.
//
// The GC's collection candidates are tracked *incrementally*: an object
// enters the pending-candidate list when it is allocated unheld or when its
// hold count drops to zero. TakeUnheldCandidates therefore costs
// O(transitions since last GC), not O(live heap) — the seed's full-heap
// rescans were ~48% of bench_snapshot's wall time.
#ifndef JGRE_RUNTIME_HEAP_H_
#define JGRE_RUNTIME_HEAP_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/types.h"
#include "snapshot/serializer.h"

namespace jgre::rt {

// Matches indirect_reference_table.h (included by runtime.h, not here to
// keep the heap's dependencies flat): a valid reference is never 0.
using HeapIndirectRef = std::uint64_t;
inline constexpr HeapIndirectRef kHeapNullRef = 0;

enum class ObjectKind {
  kPlain,           // ordinary Java object
  kBinderProxy,     // android.os.BinderProxy received over IPC
  kJavaBBinder,     // server-side Binder wrapper
  kDeathRecipient,  // IBinder.DeathRecipient registered via linkToDeath
  kClassRoot,       // class cached at runtime init (WellKnownClasses)
};
inline constexpr std::size_t kObjectKinds =
    static_cast<std::size_t>(ObjectKind::kClassRoot) + 1;

class Heap {
 public:
  Heap() = default;
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  ObjectId Alloc(ObjectKind kind, std::string_view label);
  // Allocates a binder-side object labelled with its kind's prefix and an
  // interface descriptor ("BinderProxy:" + descriptor, "JavaBBinder:",
  // "JavaDeathRecipient:"). The label id is cached per (kind, descriptor
  // id), so the steady state neither composes nor hashes a label.
  // `descriptor_id` is the binder driver's interned id of `descriptor`.
  ObjectId AllocDescribed(ObjectKind kind, StringInterner::Id descriptor_id,
                          std::string_view descriptor);

  // Strong-hold accounting. AddHold/RemoveHold model a service data structure
  // taking/dropping a strong reference to the object.
  void AddHold(ObjectId id) {
    assert(IsAlive(id));
    ++holds_[SlotOf(id)];
    ++epoch_;
  }
  void RemoveHold(ObjectId id) {
    if (!IsAlive(id)) return;  // already collected
    ++epoch_;
    std::int32_t& holds = holds_[SlotOf(id)];
    assert(holds > 0 && "hold underflow");
    if (--holds == 0) unheld_candidates_.push_back(id);
  }

  bool IsAlive(ObjectId id) const {
    const std::int64_t v = id.value();
    return v >= 1 && v < next_id_ && holds_[static_cast<std::size_t>(v - 1)] != kDeadSlot;
  }
  std::int32_t Holds(ObjectId id) const {
    assert(IsAlive(id));
    return holds_[SlotOf(id)];
  }
  ObjectKind Kind(ObjectId id) const {
    assert(IsAlive(id));
    return static_cast<ObjectKind>(kind_[SlotOf(id)]);
  }
  const std::string& Label(ObjectId id) const {
    assert(IsAlive(id));
    return labels_.Name(label_[SlotOf(id)]);
  }

  // --- Runtime attachment columns -----------------------------------------
  // The JNI global / weak-global reference backing a managed object and the
  // binder node a BinderProxy stands for. Owned by rt::Runtime; living here
  // keeps them in the same arena as the object (the seed kept four
  // unordered_maps in Runtime, churned on every proxy mint/collect).

  void SetManagedRef(ObjectId id, HeapIndirectRef ref) {
    assert(IsAlive(id));
    managed_ref_[SlotOf(id)] = ref;
    ++epoch_;
  }
  HeapIndirectRef ManagedRef(ObjectId id) const {
    assert(IsAlive(id));
    return managed_ref_[SlotOf(id)];
  }
  void SetWeakRef(ObjectId id, HeapIndirectRef ref) {
    assert(IsAlive(id));
    weak_ref_[SlotOf(id)] = ref;
    ++epoch_;
  }
  HeapIndirectRef WeakRef(ObjectId id) const {
    assert(IsAlive(id));
    return weak_ref_[SlotOf(id)];
  }
  void SetProxyNode(ObjectId id, NodeId node) {
    assert(IsAlive(id));
    node_[SlotOf(id)] = node.value();
    ++epoch_;
  }
  NodeId ProxyNode(ObjectId id) const {
    assert(IsAlive(id));
    return NodeId{node_[SlotOf(id)]};
  }

  // Frees the object outright (GC decided it is unreachable).
  void Free(ObjectId id);

  // All live objects with zero strong holds, in ascending id order — a full
  // scan, kept for tests and debugging. The GC uses TakeUnheldCandidates.
  std::vector<ObjectId> UnheldObjects() const;

  // Moves the pending collection candidates into `out`: sorted ascending,
  // deduplicated, and filtered to objects that are still alive and unheld.
  // Consumes the pending list. Collection order therefore matches the
  // seed's full-scan order exactly (ascending id).
  void TakeUnheldCandidates(std::vector<ObjectId>* out);

  // Applies `fn(ObjectId)` to every live object in ascending id order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (std::int64_t id = 1; id < next_id_; ++id) {
      if (holds_[static_cast<std::size_t>(id - 1)] != kDeadSlot) {
        fn(ObjectId{id});
      }
    }
  }

  std::size_t LiveCount() const { return live_count_; }
  std::int64_t total_allocated() const { return next_id_ - 1; }

  // Bumped by every change to the heap's state, restores included; never
  // restored itself. Equal readings bracket a stretch in which the heap did
  // not change (snapshot::SystemSnapshot::RewindInto skips such runtimes).
  std::uint64_t mutation_epoch() const { return epoch_; }

  // Checkpointing: the label interner plus the live objects' columns in
  // ascending id order; restore replaces the heap contents wholesale
  // (including the allocation cursor) and rebuilds the candidate list from
  // the live unheld set.
  void SaveState(snapshot::Serializer& out) const;
  void RestoreState(snapshot::Deserializer& in);

  // The largest allocation cursor a restore accepts: dead slots are not
  // serialized, so the stream's length cannot bound it. The repo's largest
  // checkpoint cursor is 87,980 (the ablation/snapshot benches' Fig-4
  // prefix; all others stay under 2,000): ~48x headroom, ~140 MB columns.
  static constexpr std::int64_t kMaxRestoredCursor = std::int64_t{1} << 22;

 private:
  // holds_ value marking a freed slot (live counts are always >= 0).
  static constexpr std::int32_t kDeadSlot = -1;

  std::size_t SlotOf(ObjectId id) const {
    assert(id.value() >= 1 && id.value() < next_id_);
    return static_cast<std::size_t>(id.value() - 1);
  }

  ObjectId PushObject(ObjectKind kind, StringInterner::Id label);

  std::int64_t next_id_ = 1;
  std::size_t live_count_ = 0;
  std::uint64_t epoch_ = 0;
  // Struct-of-arrays columns, slot = id - 1.
  std::vector<std::uint8_t> kind_;
  std::vector<std::int32_t> holds_;
  std::vector<StringInterner::Id> label_;
  std::vector<HeapIndirectRef> managed_ref_;
  std::vector<HeapIndirectRef> weak_ref_;
  std::vector<std::int64_t> node_;
  // Pending collection candidates (may contain stale/duplicate entries;
  // filtered at take time).
  std::vector<ObjectId> unheld_candidates_;
  StringInterner labels_;
  std::string label_scratch_;
  // Label id of AllocDescribed's (kind, descriptor id), at
  // descriptor_id * kObjectKinds + kind; kInvalidId until first use.
  // Cleared by RestoreState, which may renumber both id spaces.
  std::vector<StringInterner::Id> described_labels_;
};

}  // namespace jgre::rt

#endif  // JGRE_RUNTIME_HEAP_H_
