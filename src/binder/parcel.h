// Parcel — typed transaction payload container.
//
// Values are written by the sender and read sequentially by the receiver.
// The JGRE-critical operation is ReadStrongBinder: like
// `Parcel.nativeReadStrongBinder` → `javaObjectForIBinder`, reading a strong
// binder in a process either returns the cached BinderProxy for that node or
// creates a new proxy taking **one JNI global reference** in the reading
// process. This is the Java JGR entry the paper's extractor identifies and
// the channel through which IPC callers push JGRs into victims.
//
// A parcel lives for one synchronous transaction, so it is built to cost no
// heap allocation on the call path: its first values sit inline, the
// interface token is a borrowed view of the caller's descriptor (which must
// outlive the parcel, as an IpcClient's or a string literal does), and
// ReadString hands out a view into the parcel instead of a copy.
#ifndef JGRE_BINDER_PARCEL_H_
#define JGRE_BINDER_PARCEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/inline_vector.h"
#include "common/status.h"
#include "common/types.h"
#include "binder/ibinder.h"

namespace jgre::binder {

class BinderDriver;

class Parcel {
 public:
  Parcel() = default;

  // --- writers (sender side) ----------------------------------------------

  // Borrows `descriptor`: it must stay alive as long as the parcel is read.
  void WriteInterfaceToken(std::string_view descriptor);
  void WriteInt32(std::int32_t value);
  void WriteInt64(std::int64_t value);
  void WriteBool(bool value);
  void WriteString(std::string_view value);
  // Only the size matters for the cost model; contents are not simulated.
  void WriteByteArray(std::uint64_t num_bytes);
  // Flattens the binder to its node handle (flat_binder_object).
  void WriteStrongBinder(const std::shared_ptr<IBinder>& binder);
  void WriteNullBinder();
  // A file descriptor (BINDER_TYPE_FD): the driver dups it into the receiver
  // on read — the §VI resource the JGRE analysis does not cover.
  void WriteFileDescriptor();

  // --- readers (receiver side) ----------------------------------------------

  // Readers validate the value kind at the cursor; a type confusion returns
  // kInvalidArgument (binder would signal a bad parcel).
  Status EnforceInterface(std::string_view descriptor) const;
  Result<std::int32_t> ReadInt32() const;
  Result<std::int64_t> ReadInt64() const;
  Result<bool> ReadBool() const;
  // A view into the parcel, valid while the parcel lives; copy it to keep it.
  Result<std::string_view> ReadString() const;
  Result<std::uint64_t> ReadByteArray() const;

  // Materializes the strong binder in the receiving process identified by
  // `ctx` — creating the BinderProxy object and its JGR when the node is new
  // to that process. Returns an invalid StrongBinder for a null binder.
  Result<StrongBinder> ReadStrongBinder(const CallContext& ctx) const;

  // Dups the fd into the receiving process's table (one open fd); fails with
  // kResourceExhausted at RLIMIT_NOFILE — fatally for system_server.
  Status ReadFileDescriptor(const CallContext& ctx) const;

  void RewindRead() const { cursor_ = 0; }

  // Total payload size for the transport cost model.
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  std::size_t value_count() const { return values_.size(); }
  bool has_binders() const { return has_binders_; }

 private:
  struct InterfaceToken {
    std::string_view descriptor;  // borrowed, see WriteInterfaceToken
  };
  struct FlatBinder {
    NodeId node;  // invalid => null binder
  };
  struct ByteArray {
    std::uint64_t size;
  };
  struct FileDescriptor {};
  using Value = std::variant<InterfaceToken, std::int32_t, std::int64_t, bool,
                             std::string, ByteArray, FlatBinder,
                             FileDescriptor>;

  // The value at the cursor if it holds a T (advancing the cursor), else
  // null with the read error in `error`.
  template <typename T>
  const T* Next(Status* error) const;
  template <typename T>
  Result<T> ReadValue() const;

  // A transaction carries the token plus a few arguments; replies one value.
  InlineVector<Value, 6> values_;
  mutable std::size_t cursor_ = 0;
  std::uint64_t payload_bytes_ = 0;
  bool has_binders_ = false;
};

}  // namespace jgre::binder

#endif  // JGRE_BINDER_PARCEL_H_
