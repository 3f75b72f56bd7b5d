// IndirectReferenceTable — the ART data structure at the heart of the paper.
//
// Modeled on art/runtime/indirect_reference_table.{h,cc} from AOSP 6.0.1:
// * every JNI reference handed to native code is an *indirect* reference —
//   an opaque value encoding (kind, serial, index) — so stale or forged
//   references are detected instead of dereferencing freed memory;
// * the table has a hard capacity (`max_entries`); `Add` past capacity is the
//   "global reference table overflow" that aborts the runtime and is the
//   JGRE attack's detonation point (51,200 for the global table,
//   hard-coded in art/runtime/java_vm_ext.cc);
// * local tables use segment cookies so a native frame can bulk-release the
//   references it created (`PushFrame`/`PopFrame`);
// * slots are reused through a per-segment free list, with per-slot serial
//   numbers so a stale reference to a reused slot is rejected. The free list
//   is threaded through the slots themselves (each inactive slot stores the
//   index of the next hole), so allocation and release are O(1) — where ART
//   (and the seed implementation) scanned a hole vector per Add.
#ifndef JGRE_RUNTIME_INDIRECT_REFERENCE_TABLE_H_
#define JGRE_RUNTIME_INDIRECT_REFERENCE_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "snapshot/serializer.h"

namespace jgre::rt {

enum class IndirectRefKind : std::uint64_t {
  kLocal = 1,
  kGlobal = 2,
  kWeakGlobal = 3,
};

// Opaque reference value. 0 is never a valid reference (mirrors NULL jobject).
using IndirectRef = std::uint64_t;

constexpr IndirectRef kNullIndirectRef = 0;

IndirectRefKind GetIndirectRefKind(IndirectRef ref);

class IndirectReferenceTable {
 public:
  // Cookie identifies a segment boundary (the table top at frame entry).
  using Cookie = std::uint32_t;

  IndirectReferenceTable(std::size_t max_entries, IndirectRefKind kind,
                         std::string name);

  IndirectReferenceTable(const IndirectReferenceTable&) = delete;
  IndirectReferenceTable& operator=(const IndirectReferenceTable&) = delete;

  // Adds a reference to `obj` within the segment identified by `cookie`
  // (use CurrentCookie() for the global table, which has a single segment).
  // Fails with kResourceExhausted when the table is full — the condition the
  // JGRE attack drives the victim into.
  Result<IndirectRef> Add(Cookie cookie, ObjectId obj);

  // Removes a reference. Returns false for null, stale (serial mismatch),
  // out-of-segment, or already-removed references — ART logs and ignores
  // these rather than crashing.
  bool Remove(Cookie cookie, IndirectRef ref);

  // Resolves a reference; kNotFound for stale/invalid ones.
  Result<ObjectId> Get(IndirectRef ref) const;

  bool Contains(IndirectRef ref) const { return Get(ref).ok(); }

  // Segment management for local tables. PushFrame returns the cookie to
  // later pass to PopFrame, which releases every reference added since.
  Cookie PushFrame();
  void PopFrame(Cookie cookie);
  Cookie CurrentCookie() const { return segment_start_; }

  std::size_t Size() const { return live_entries_; }
  std::size_t Capacity() const { return max_entries_; }
  const std::string& name() const { return name_; }

  // Enumerates live references (GC root visiting).
  void VisitRoots(const std::function<void(ObjectId)>& visitor) const;

  // Dumps "<name>: N entries (capacity M)" plus top labels, like ART's
  // ReferenceTable::Dump used in overflow abort messages.
  std::string DumpSummary() const;

  std::int64_t total_adds() const { return total_adds_; }
  std::int64_t total_removes() const { return total_removes_; }

  // Number of reusable holes across all segments (observability).
  std::size_t HoleCount() const { return hole_count_; }

  // Bumped by every change to the table (adds, removes, frame pushes and
  // pops, restores); never restored itself, like Heap::mutation_epoch.
  std::uint64_t mutation_epoch() const { return epoch_; }

  // Checkpointing: serializes slots, serials, the threaded free list, and
  // the segment stack, so restored references (and the slot-reuse order of
  // subsequent Add calls) are identical to the original table's. Restore
  // expects a table constructed with the same capacity/kind and fails the
  // stream otherwise.
  void SaveState(snapshot::Serializer& out) const;
  void RestoreState(snapshot::Deserializer& in);

 private:
  static constexpr std::uint32_t kNoFreeSlot = ~std::uint32_t{0};

  struct Slot {
    ObjectId obj;
    std::uint32_t serial = 0;
    // While inactive and below the top: index of the next hole in this
    // segment's free list (kNoFreeSlot terminates the list).
    std::uint32_t next_free = kNoFreeSlot;
    bool active = false;
  };

  // Saved state of an outer frame: its segment start and the head of its
  // free list at the time the inner frame was pushed. Holes always belong to
  // the segment that created them, so an inner frame never reuses an outer
  // frame's holes and PopFrame restores the outer list wholesale.
  struct FrameState {
    Cookie segment_start;
    std::uint32_t free_head;
  };

  IndirectRef EncodeRef(std::size_t index, std::uint32_t serial) const;
  bool DecodeRef(IndirectRef ref, std::size_t* index,
                 std::uint32_t* serial) const;

  const std::size_t max_entries_;
  const IndirectRefKind kind_;
  const std::string name_;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;  // current segment's hole list
  std::size_t hole_count_ = 0;             // holes across all segments
  std::size_t top_index_ = 0;              // one past the highest used slot
  std::size_t live_entries_ = 0;
  Cookie segment_start_ = 0;
  std::vector<FrameState> segment_stack_;  // outer frames' saved state

  std::int64_t total_adds_ = 0;
  std::int64_t total_removes_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace jgre::rt

#endif  // JGRE_RUNTIME_INDIRECT_REFERENCE_TABLE_H_
