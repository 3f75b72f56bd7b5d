// IpcClient — convenience wrapper for issuing binder calls from a process.
//
// This is the moral equivalent of an AIDL-generated Stub.Proxy, and also the
// tool of Code-Snippet 2: nothing stops an app from building the parcel
// itself and calling the service interface directly, which is precisely how
// malicious apps bypass the client-side caps in service helper classes
// (Table II).
#ifndef JGRE_SERVICES_IPC_CLIENT_H_
#define JGRE_SERVICES_IPC_CLIENT_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "common/types.h"
#include "binder/ibinder.h"
#include "binder/parcel.h"

namespace jgre::services {

class IpcClient {
 public:
  IpcClient() = default;
  IpcClient(binder::StrongBinder service, std::string_view descriptor)
      : service_(std::move(service)), descriptor_(descriptor) {}

  bool valid() const { return service_.valid(); }
  const binder::StrongBinder& service() const { return service_; }
  const std::string& descriptor() const { return descriptor_; }

  // Writes the interface token, lets `write_args` fill the parcel, and
  // transacts. `reply` may be null when the caller ignores results.
  Status Call(std::uint32_t code,
              const std::function<void(binder::Parcel&)>& write_args,
              binder::Parcel* reply = nullptr) const;

  // No-argument convenience overload.
  Status Call(std::uint32_t code, binder::Parcel* reply = nullptr) const;

 private:
  binder::StrongBinder service_;
  std::string descriptor_;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_IPC_CLIENT_H_
