// StringInterner — string → dense id mapping for hot routing paths.
//
// The binder driver and service manager route by interface descriptor /
// service name. Interning each distinct string once turns per-transaction
// descriptor handling (IPC log records, scoring type keys) into integer
// copies and comparisons: an `IpcRecord` carries a 4-byte id instead of a
// heap-allocated string, and Algorithm 1 groups calls by a 64-bit
// (descriptor, code) key instead of a concatenated string.
//
// Ids are dense, start at 0, and are assigned in first-intern order, so a
// deterministic boot sequence yields deterministic ids.
#ifndef JGRE_COMMON_INTERNER_H_
#define JGRE_COMMON_INTERNER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "snapshot/serializer.h"

namespace jgre {

class StringInterner {
 public:
  using Id = std::uint32_t;
  static constexpr Id kInvalidId = ~Id{0};

  StringInterner() = default;
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  // Returns the id for `s`, assigning the next dense id on first sight.
  // Hot loops intern the same label over and over (per-allocation heap
  // labels, per-transaction descriptors), so the last hit is memoized: a
  // repeat costs one string compare instead of a hash lookup.
  Id Intern(std::string_view s) {
    if (last_id_ != kInvalidId && s == names_[last_id_]) return last_id_;
    auto it = ids_.find(s);
    if (it != ids_.end()) return last_id_ = it->second;
    const Id id = static_cast<Id>(names_.size());
    names_.emplace_back(s);
    // The key string_view points into names_ (a deque: stable addresses).
    ids_.emplace(names_.back(), id);
    return last_id_ = id;
  }

  // Looks up `s` without interning; kInvalidId if unseen.
  Id Find(std::string_view s) const {
    auto it = ids_.find(s);
    return it == ids_.end() ? kInvalidId : it->second;
  }

  const std::string& Name(Id id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

  // Checkpointing: names are written in id order and re-interned on restore,
  // which reproduces the exact id assignment (ids are dense, first-seen).
  // Restore works in place: held names that match the saved list are kept
  // (a matching prefix has matching ids), so an interner that already
  // equals the saved list is not rebuilt, one that holds a prefix of it
  // only interns the rest, and names past the saved list are dropped.
  void SaveState(snapshot::Serializer& out) const {
    out.U64(names_.size());
    for (const std::string& name : names_) out.Str(name);
  }
  void RestoreState(snapshot::Deserializer& in) {
    last_id_ = kInvalidId;
    const std::uint64_t n = in.U64();
    for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
      const std::string_view name = in.StrView();
      if (!in.ok()) return;
      if (i < names_.size()) {
        if (name == names_[i]) continue;
        Truncate(static_cast<std::size_t>(i));
      }
      (void)Intern(name);
    }
    if (in.ok() && n < names_.size()) Truncate(static_cast<std::size_t>(n));
  }

 private:
  // Drops every name with id >= `size`.
  void Truncate(std::size_t size) {
    while (names_.size() > size) {
      ids_.erase(names_.back());
      names_.pop_back();
    }
    last_id_ = kInvalidId;
  }

  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::deque<std::string> names_;  // id -> string; deque keeps refs stable
  std::unordered_map<std::string_view, Id, Hash, std::equal_to<>> ids_;
  Id last_id_ = kInvalidId;  // memo of the most recent Intern result
};

}  // namespace jgre

#endif  // JGRE_COMMON_INTERNER_H_
