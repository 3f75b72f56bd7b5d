#include "binder/parcel.h"

#include "binder/binder_driver.h"
#include "common/strings.h"

namespace jgre::binder {

namespace {
// Approximate wire sizes for the transport cost model.
constexpr std::uint64_t kInt32Bytes = 4;
constexpr std::uint64_t kInt64Bytes = 8;
constexpr std::uint64_t kBoolBytes = 4;
constexpr std::uint64_t kFlatBinderBytes = 24;  // sizeof(flat_binder_object)
}  // namespace

void Parcel::WriteInterfaceToken(std::string_view descriptor) {
  payload_bytes_ += descriptor.size() * 2 + 8;  // UTF-16 + strict mode header
  values_.emplace_back(InterfaceToken{descriptor});
}

void Parcel::WriteInt32(std::int32_t value) {
  payload_bytes_ += kInt32Bytes;
  values_.emplace_back(value);
}

void Parcel::WriteInt64(std::int64_t value) {
  payload_bytes_ += kInt64Bytes;
  values_.emplace_back(value);
}

void Parcel::WriteBool(bool value) {
  payload_bytes_ += kBoolBytes;
  values_.emplace_back(value);
}

void Parcel::WriteString(std::string_view value) {
  payload_bytes_ += value.size() * 2 + 4;
  values_.emplace_back(std::in_place_type<std::string>, value);
}

void Parcel::WriteByteArray(std::uint64_t num_bytes) {
  payload_bytes_ += num_bytes + 4;
  values_.emplace_back(ByteArray{num_bytes});
}

void Parcel::WriteStrongBinder(const std::shared_ptr<IBinder>& binder) {
  payload_bytes_ += kFlatBinderBytes;
  has_binders_ = true;
  values_.emplace_back(FlatBinder{binder == nullptr ? NodeId{} : binder->node()});
}

void Parcel::WriteNullBinder() {
  payload_bytes_ += kFlatBinderBytes;
  has_binders_ = true;  // still a flat_binder_object in the objects array
  values_.emplace_back(FlatBinder{NodeId{}});
}

template <typename T>
const T* Parcel::Next(Status* error) const {
  if (cursor_ >= values_.size()) {
    *error = InvalidArgument("parcel read past end");
    return nullptr;
  }
  const T* value = std::get_if<T>(&values_[cursor_]);
  if (value == nullptr) {
    *error = InvalidArgument(
        StrCat("parcel type confusion at index ", cursor_));
    return nullptr;
  }
  ++cursor_;
  return value;
}

template <typename T>
Result<T> Parcel::ReadValue() const {
  Status error;
  const T* value = Next<T>(&error);
  if (value == nullptr) return error;
  return *value;
}

Status Parcel::EnforceInterface(std::string_view descriptor) const {
  Status error;
  const InterfaceToken* token = Next<InterfaceToken>(&error);
  if (token == nullptr) return error;
  if (token->descriptor != descriptor) {
    return InvalidArgument(StrCat("interface token mismatch: expected ",
                                  descriptor, ", got ", token->descriptor));
  }
  return Status::Ok();
}

Result<std::int32_t> Parcel::ReadInt32() const {
  return ReadValue<std::int32_t>();
}

Result<std::int64_t> Parcel::ReadInt64() const {
  return ReadValue<std::int64_t>();
}

Result<bool> Parcel::ReadBool() const { return ReadValue<bool>(); }

Result<std::string_view> Parcel::ReadString() const {
  Status error;
  const std::string* value = Next<std::string>(&error);
  if (value == nullptr) return error;
  return std::string_view(*value);
}

Result<std::uint64_t> Parcel::ReadByteArray() const {
  auto arr = ReadValue<ByteArray>();
  if (!arr.ok()) return arr.status();
  return arr.value().size;
}

void Parcel::WriteFileDescriptor() {
  payload_bytes_ += kFlatBinderBytes;  // also a flat_binder_object
  values_.emplace_back(FileDescriptor{});
}

Status Parcel::ReadFileDescriptor(const CallContext& ctx) const {
  auto fd = ReadValue<FileDescriptor>();
  if (!fd.ok()) return fd.status();
  return ctx.driver->kernel().AllocFds(ctx.self_pid, 1);
}

Result<StrongBinder> Parcel::ReadStrongBinder(const CallContext& ctx) const {
  auto flat = ReadValue<FlatBinder>();
  if (!flat.ok()) return flat.status();
  if (!flat.value().node.valid()) {
    return StrongBinder{};  // null binder
  }
  // javaObjectForIBinder: materialize in the *reading* process — this is the
  // JGR entry point Parcel.nativeReadStrongBinder reaches in the paper's
  // native call-graph analysis.
  return ctx.driver->MaterializeBinder(flat.value().node, ctx.self_pid);
}

}  // namespace jgre::binder
