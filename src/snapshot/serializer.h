// Byte-stable binary serialization primitives for simulation checkpoints.
//
// Serializer appends fixed-width little-endian fields to a growable buffer;
// Deserializer reads them back in the same order. The encoding has no
// platform-dependent padding, endianness, or container-iteration dependence,
// so the bytes produced for a given simulation state are identical across
// runs and machines — the property the divergence auditor (snapshot.h) and
// the checkpoint content hash rely on.
//
// Layering: this target (jgre_snapshot_io) depends only on jgre_common, so
// every simulation module (runtime, os, binder, services, core, defense) can
// implement SaveState/RestoreState hooks against it. The checkpoint file
// format and the per-module orchestration live one level up in snapshot.h.
#ifndef JGRE_SNAPSHOT_SERIALIZER_H_
#define JGRE_SNAPSHOT_SERIALIZER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace jgre::snapshot {

// FNV-1a over a byte range; the checkpoint content hash in the manifest.
inline std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t size,
                           std::uint64_t seed = 14695981039346656037ULL) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

class Serializer {
 public:
  void U8(std::uint8_t v) { buffer_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v) { AppendLe(v); }
  void U64(std::uint64_t v) { AppendLe(v); }
  void I64(std::int64_t v) { AppendLe(static_cast<std::uint64_t>(v)); }
  void F64(double v) { AppendLe(std::bit_cast<std::uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }
  // Debugging aid: a tag the reader must match, catching save/restore hooks
  // that drift out of step field-wise.
  void Marker(std::uint32_t tag) { U32(tag); }

  void U64Vec(const std::vector<std::uint64_t>& v) {
    U64(v.size());
    for (std::uint64_t x : v) U64(x);
  }
  void I64Vec(const std::vector<std::int64_t>& v) {
    U64(v.size());
    for (std::int64_t x : v) I64(x);
  }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> TakeBuffer() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }
  std::uint64_t Hash() const { return Fnv1a(buffer_.data(), buffer_.size()); }

 private:
  template <typename T>
  void AppendLe(T v) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buffer_;
};

class Deserializer {
 public:
  Deserializer(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Deserializer(const std::vector<std::uint8_t>& bytes)
      : Deserializer(bytes.data(), bytes.size()) {}

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  bool Bool() { return U8() != 0; }
  std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLe<std::uint64_t>(); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  std::string Str() { return std::string(StrView()); }
  // The next string as a view into the payload (valid while the payload
  // is), for restores that only compare it against what they already hold.
  std::string_view StrView() {
    const std::uint64_t n = U64();
    if (!Need(n)) return {};
    std::string_view s(reinterpret_cast<const char*>(data_ + pos_),
                       static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  // Fails the stream (and all subsequent reads) if the next u32 != tag.
  void Marker(std::uint32_t tag) {
    const std::uint32_t got = U32();
    if (ok_ && got != tag) Fail("marker mismatch");
  }

  std::vector<std::uint64_t> U64Vec() {
    const std::uint64_t n = U64();
    std::vector<std::uint64_t> v;
    if (!Need(n * 8)) return v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(U64());
    return v;
  }
  std::vector<std::int64_t> I64Vec() {
    const std::uint64_t n = U64();
    std::vector<std::int64_t> v;
    if (!Need(n * 8)) return v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(I64());
    return v;
  }

  // Moves the cursor forward to `pos`, skipping a section the caller knows
  // it already holds; fails the stream if `pos` is behind the cursor or
  // past the end.
  void SkipTo(std::size_t pos) {
    if (pos < pos_) {
      Fail("skip target behind the cursor");
      return;
    }
    if (Need(pos - pos_)) pos_ = pos;
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  std::size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }
  // Bytes left to read: an upper bound on what a count read from the
  // stream can still describe.
  std::size_t Remaining() const { return size_ - pos_; }
  void Fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why + " at offset " + std::to_string(pos_);
    }
  }

 private:
  bool Need(std::uint64_t n) {
    if (!ok_) return false;
    if (size_ - pos_ < n) {
      Fail("truncated stream");
      return false;
    }
    return true;
  }
  template <typename T>
  T ReadLe() {
    if (!Need(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// Byte range [begin, end) of one section of a checkpoint payload.
struct ByteSpan {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// What a whole-system restore tells the module hooks that can restore in
// place (snapshot::SystemSnapshot::RewindInto). The default is a plain
// restore: every section is read.
struct RestoreContext {
  // The runtime section of each process in the payload being read, indexed
  // by pid - 1 (an empty span for a process without a runtime). Derived in
  // memory from an earlier restore of the same payload; null until then.
  const std::vector<ByteSpan>* runtime_spans = nullptr;
  // When set, filled with those spans as the restore reads the payload.
  std::vector<ByteSpan>* record_runtime_spans = nullptr;
  // The target was last restored from this very payload, so a runtime whose
  // mutation epoch has not moved since then still holds its section's state
  // and may be skipped.
  bool same_payload = false;
};

// Serializes an unordered associative container in ascending key order, so
// the bytes are independent of hash-bucket history (which a restore does not
// — and must not — reproduce). `save_entry(out, key, value)` writes one pair.
template <typename Map, typename SaveEntryFn>
void SaveUnorderedMap(Serializer& out, const Map& map, SaveEntryFn save_entry) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  out.U64(keys.size());
  for (const auto& key : keys) save_entry(out, key, map.at(key));
}

// For restores that write into a container a run has since grown: gives the
// capacity past what the restored state needs back to the allocator, so a
// system rewound in place (SystemSnapshot::RewindInto) holds what a fresh
// restore holds rather than the high-water mark of every run it served.
// Capacity within 2x of the size (or under 4 KiB) is kept: that much growth
// is what a fresh system reaches anyway, and reallocating it every rewind
// would cost more than it returns.
template <typename T>
void ReleaseExcess(std::vector<T>& v) {
  constexpr std::size_t kKeptBytes = 4096;
  if (v.capacity() > 2 * v.size() &&
      (v.capacity() - v.size()) * sizeof(T) > kKeptBytes) {
    v.shrink_to_fit();
  }
}
// The same for a hash table's bucket array, which clear() and erase() keep.
template <typename K, typename V, typename H, typename E, typename A>
void ReleaseExcess(std::unordered_map<K, V, H, E, A>& map) {
  constexpr std::size_t kKeptBytes = 4096;
  if (map.bucket_count() > 2 * map.size() &&
      (map.bucket_count() - map.size()) * sizeof(void*) > kKeptBytes) {
    map.rehash(0);  // the fewest buckets the size needs
  }
}

}  // namespace jgre::snapshot

#endif  // JGRE_SNAPSHOT_SERIALIZER_H_
