#include "runtime/heap.h"

#include <algorithm>

namespace jgre::rt {

ObjectId Heap::PushObject(ObjectKind kind, StringInterner::Id label) {
  const ObjectId id{next_id_++};
  ++epoch_;
  kind_.push_back(static_cast<std::uint8_t>(kind));
  holds_.push_back(0);
  label_.push_back(label);
  managed_ref_.push_back(kHeapNullRef);
  weak_ref_.push_back(kHeapNullRef);
  node_.push_back(NodeId{}.value());
  ++live_count_;
  // Fresh objects start unheld, so they are collection candidates until
  // someone takes a hold.
  unheld_candidates_.push_back(id);
  return id;
}

ObjectId Heap::Alloc(ObjectKind kind, std::string_view label) {
  return PushObject(kind, labels_.Intern(label));
}

ObjectId Heap::Alloc(ObjectKind kind, std::string_view label_prefix,
                     std::string_view label_suffix) {
  label_scratch_.assign(label_prefix);
  label_scratch_.append(label_suffix);
  return PushObject(kind, labels_.Intern(label_scratch_));
}

void Heap::Free(ObjectId id) {
  if (!IsAlive(id)) return;
  ++epoch_;
  const std::size_t slot = SlotOf(id);
  kind_[slot] = 0;
  holds_[slot] = kDeadSlot;
  label_[slot] = 0;
  managed_ref_[slot] = kHeapNullRef;
  weak_ref_[slot] = kHeapNullRef;
  node_[slot] = NodeId{}.value();
  --live_count_;
}

std::vector<ObjectId> Heap::UnheldObjects() const {
  std::vector<ObjectId> out;
  for (std::int64_t id = 1; id < next_id_; ++id) {
    if (holds_[static_cast<std::size_t>(id - 1)] == 0) out.push_back(ObjectId{id});
  }
  return out;
}

void Heap::TakeUnheldCandidates(std::vector<ObjectId>* out) {
  out->clear();
  if (unheld_candidates_.empty()) return;
  ++epoch_;
  // Allocation-order transitions arrive ascending already; skip the sort
  // for that common case (garbage minted in id order, swept in id order).
  if (!std::is_sorted(unheld_candidates_.begin(),
                      unheld_candidates_.end())) {
    std::sort(unheld_candidates_.begin(), unheld_candidates_.end());
  }
  ObjectId last{};
  for (ObjectId id : unheld_candidates_) {
    if (id == last) continue;  // duplicate transition
    last = id;
    if (IsAlive(id) && holds_[SlotOf(id)] == 0) out->push_back(id);
  }
  unheld_candidates_.clear();
}

void Heap::SaveState(snapshot::Serializer& out) const {
  out.Marker(0x48454132);  // "HEA2": SoA arena layout
  out.I64(next_id_);
  labels_.SaveState(out);
  out.U64(live_count_);
  for (std::int64_t id = 1; id < next_id_; ++id) {
    const std::size_t slot = static_cast<std::size_t>(id - 1);
    if (holds_[slot] == kDeadSlot) continue;
    out.I64(id);
    out.U8(kind_[slot]);
    out.I64(holds_[slot]);
    out.U32(label_[slot]);
    out.U64(managed_ref_[slot]);
    out.U64(weak_ref_[slot]);
    out.I64(node_[slot]);
  }
}

void Heap::RestoreState(snapshot::Deserializer& in) {
  in.Marker(0x48454132);
  ++epoch_;
  next_id_ = in.I64();
  labels_.RestoreState(in);
  kind_.clear();
  holds_.clear();
  label_.clear();
  managed_ref_.clear();
  weak_ref_.clear();
  node_.clear();
  unheld_candidates_.clear();
  live_count_ = 0;
  if (next_id_ < 1 || next_id_ > kMaxRestoredCursor) {
    in.Fail("corrupt heap allocation cursor");
    next_id_ = 1;
    return;
  }
  const std::size_t slots = static_cast<std::size_t>(next_id_ - 1);
  kind_.assign(slots, 0);
  holds_.assign(slots, kDeadSlot);
  label_.assign(slots, 0);
  managed_ref_.assign(slots, kHeapNullRef);
  weak_ref_.assign(slots, kHeapNullRef);
  node_.assign(slots, NodeId{}.value());
  const std::uint64_t live = in.U64();
  for (std::uint64_t i = 0; i < live && in.ok(); ++i) {
    const std::int64_t id = in.I64();
    if (id < 1 || id >= next_id_) {
      in.Fail("heap object id out of range");
      return;
    }
    const std::size_t slot = static_cast<std::size_t>(id - 1);
    kind_[slot] = in.U8();
    holds_[slot] = static_cast<std::int32_t>(in.I64());
    label_[slot] = in.U32();
    managed_ref_[slot] = in.U64();
    weak_ref_[slot] = in.U64();
    node_[slot] = in.I64();
    ++live_count_;
    if (holds_[slot] == 0) unheld_candidates_.push_back(ObjectId{id});
  }
}

}  // namespace jgre::rt
