#include "services/package_manager.h"

#include "common/strings.h"

namespace jgre::services {

std::string_view ProtectionLevelName(ProtectionLevel level) {
  switch (level) {
    case ProtectionLevel::kNormal:
      return "normal";
    case ProtectionLevel::kDangerous:
      return "dangerous";
    case ProtectionLevel::kSignature:
      return "signature";
  }
  return "unknown";
}

PackageManager::PackageManager() {
  // Platform permissions referenced by Table I.
  DefinePermission(perms::kAccessFineLocation, ProtectionLevel::kDangerous);
  DefinePermission(perms::kUseSip, ProtectionLevel::kDangerous);
  DefinePermission(perms::kReadPhoneState, ProtectionLevel::kDangerous);
  DefinePermission(perms::kBluetooth, ProtectionLevel::kNormal);
  DefinePermission(perms::kWakeLock, ProtectionLevel::kNormal);
  DefinePermission(perms::kChangeWifiMulticastState, ProtectionLevel::kNormal);
  DefinePermission(perms::kGetPackageSize, ProtectionLevel::kNormal);
  DefinePermission(perms::kChangeNetworkState, ProtectionLevel::kNormal);
  DefinePermission(perms::kAccessNetworkState, ProtectionLevel::kNormal);
}

void PackageManager::DefinePermission(const std::string& name,
                                      ProtectionLevel level) {
  permissions_[name] = level;
}

void PackageManager::InstallPackage(const std::string& package, Uid uid,
                                    const std::set<std::string>& granted) {
  packages_[package] = PackageInfo{uid, {granted.begin(), granted.end()}};
  uid_to_package_[uid] = package;
}

bool PackageManager::CheckPermission(Uid uid,
                                     std::string_view permission) const {
  if (uid == kRootUid || uid == kSystemUid) return true;
  auto pkg_it = uid_to_package_.find(uid);
  if (pkg_it == uid_to_package_.end()) return false;
  const PackageInfo& info = packages_.at(pkg_it->second);
  return info.granted.count(permission) > 0;
}

Result<std::string> PackageManager::GetPackageForUid(Uid uid) const {
  auto it = uid_to_package_.find(uid);
  if (it == uid_to_package_.end()) {
    return NotFound(StrCat("no package for uid ", uid.value()));
  }
  return it->second;
}

Result<Uid> PackageManager::GetUidForPackage(std::string_view package) const {
  auto it = packages_.find(package);
  if (it == packages_.end()) {
    return NotFound(StrCat("no package named ", package));
  }
  return it->second.uid;
}

}  // namespace jgre::services
