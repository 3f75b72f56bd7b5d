// PackageManager — installed packages and the permission model.
//
// Android's permission model is the security boundary the paper shows to be
// insufficient: it gates *whether* an app may call an interface, not *how
// many* resources the calls consume (§I). We model protection levels and
// grants so Table I's "required permission" column and the sifter's
// permission filter are real checks, not annotations.
#ifndef JGRE_SERVICES_PACKAGE_MANAGER_H_
#define JGRE_SERVICES_PACKAGE_MANAGER_H_

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "snapshot/serializer.h"

namespace jgre::services {

enum class ProtectionLevel {
  kNormal,     // granted at install
  kDangerous,  // user-granted at runtime
  kSignature,  // platform-signed only
};

std::string_view ProtectionLevelName(ProtectionLevel level);

// Well-known permission names used by the vulnerable interfaces (Table I).
namespace perms {
inline constexpr const char* kAccessFineLocation =
    "android.permission.ACCESS_FINE_LOCATION";
inline constexpr const char* kUseSip = "android.permission.USE_SIP";
inline constexpr const char* kReadPhoneState =
    "android.permission.READ_PHONE_STATE";
inline constexpr const char* kBluetooth = "android.permission.BLUETOOTH";
inline constexpr const char* kWakeLock = "android.permission.WAKE_LOCK";
inline constexpr const char* kChangeWifiMulticastState =
    "android.permission.CHANGE_WIFI_MULTICAST_STATE";
inline constexpr const char* kGetPackageSize =
    "android.permission.GET_PACKAGE_SIZE";
inline constexpr const char* kChangeNetworkState =
    "android.permission.CHANGE_NETWORK_STATE";
inline constexpr const char* kAccessNetworkState =
    "android.permission.ACCESS_NETWORK_STATE";
}  // namespace perms

class PackageManager {
 public:
  PackageManager();

  // Declares a permission with its protection level (platform manifest).
  void DefinePermission(const std::string& name, ProtectionLevel level);

  // Installs `package` under `uid`. `granted` must be declared permissions.
  void InstallPackage(const std::string& package, Uid uid,
                      const std::set<std::string>& granted = {});

  // PackageManager.checkPermission: uid 0/1000 hold everything.
  bool CheckPermission(Uid uid, std::string_view permission) const;

  Result<std::string> GetPackageForUid(Uid uid) const;
  Result<Uid> GetUidForPackage(std::string_view package) const;

  // Checkpointing: installed packages, uid routing, declared permissions.
  // All containers are ordered, so iteration is already byte-stable.
  void SaveState(snapshot::Serializer& out) const {
    out.U64(packages_.size());
    for (const auto& [package, info] : packages_) {
      out.Str(package);
      out.I64(info.uid.value());
      out.U64(info.granted.size());
      for (const std::string& perm : info.granted) out.Str(perm);
    }
    out.U64(permissions_.size());
    for (const auto& [perm, level] : permissions_) {
      out.Str(perm);
      out.U8(static_cast<std::uint8_t>(level));
    }
  }
  void RestoreState(snapshot::Deserializer& in) {
    packages_.clear();
    uid_to_package_.clear();
    for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
      std::string package = in.Str();
      PackageInfo info;
      info.uid = Uid{static_cast<std::int32_t>(in.I64())};
      for (std::uint64_t p = 0, np = in.U64(); p < np && in.ok(); ++p) {
        info.granted.insert(in.Str());
      }
      uid_to_package_[info.uid] = package;
      packages_.emplace(std::move(package), std::move(info));
    }
    permissions_.clear();
    for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
      std::string perm = in.Str();
      permissions_.emplace(std::move(perm),
                           static_cast<ProtectionLevel>(in.U8()));
    }
  }

 private:
  struct PackageInfo {
    Uid uid;
    std::set<std::string, std::less<>> granted;
  };
  std::map<std::string, PackageInfo, std::less<>> packages_;
  std::map<Uid, std::string> uid_to_package_;
  std::map<std::string, ProtectionLevel> permissions_;
};

}  // namespace jgre::services

#endif  // JGRE_SERVICES_PACKAGE_MANAGER_H_
