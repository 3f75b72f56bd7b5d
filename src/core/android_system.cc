#include "core/android_system.h"

#include <cassert>

#include "common/log.h"
#include "common/strings.h"

namespace jgre::core {

namespace {
os::Kernel::Config MakeKernelConfig(const SystemConfig& config) {
  os::Kernel::Config kc;
  kc.seed = config.seed;
  kc.total_ram_kb = config.total_ram_kb;
  return kc;
}
}  // namespace

AndroidSystem::AndroidSystem() : AndroidSystem(SystemConfig{}) {}

AndroidSystem::AndroidSystem(SystemConfig config)
    : config_(config), kernel_(MakeKernelConfig(config)) {
  driver_ = std::make_unique<binder::BinderDriver>(&kernel_, config_.driver);
  service_manager_ = std::make_unique<binder::ServiceManager>(driver_.get());
  driver_->SetPostTransactHook([this] { Pump(); });
  kernel_.SetLowMemoryKiller(std::make_unique<os::LowMemoryKiller>(
      &kernel_, os::LowMemoryKiller::DefaultLevels()));
}

AndroidSystem::~AndroidSystem() = default;

void AndroidSystem::Boot() {
  assert(!booted_ && "Boot() is one-shot per AndroidSystem");
  booted_ = true;
  // Native daemons, kernel threads, HALs: the 382-process baseline of Obs 1.
  for (int i = 0; i < config_.baseline_native_processes; ++i) {
    os::Kernel::ProcessConfig pc;
    pc.with_runtime = false;
    pc.memory_kb = 1024;
    pc.oom_score_adj = os::kNativeAdj;
    kernel_.CreateProcess("native-daemon-" + std::to_string(i), kRootUid, pc);
  }
  BootSystemServer();
  BootPrebuiltApps();
}

void AndroidSystem::BootSystemServer() {
  os::Kernel::ProcessConfig pc;
  pc.with_runtime = true;
  pc.boot_class_refs = config_.system_server_boot_class_refs;
  pc.max_global_refs = config_.system_server_max_jgr;
  pc.memory_kb = 180 * 1024;
  pc.oom_score_adj = os::kSystemAdj;
  pc.critical = true;
  const Pid pid = kernel_.CreateProcess("system_server", kSystemUid, pc);

  context_.kernel = &kernel_;
  context_.driver = driver_.get();
  context_.service_manager = service_manager_.get();
  context_.package_manager = &package_manager_;
  context_.system_server_pid = pid;

  // The full Android 6.0.1 service census: 32 vulnerable + 72 safe = 104.
  RegisterService(services::ClipboardService::kName,
                  std::make_shared<services::ClipboardService>(&context_));
  RegisterService(services::WifiService::kName,
                  std::make_shared<services::WifiService>(&context_));
  RegisterService(services::NotificationService::kName,
                  std::make_shared<services::NotificationService>(&context_));
  RegisterService(services::LocationService::kName,
                  std::make_shared<services::LocationService>(&context_));
  RegisterService(services::AudioService::kName,
                  std::make_shared<services::AudioService>(&context_));
  RegisterService(
      services::TelephonyRegistryService::kName,
      std::make_shared<services::TelephonyRegistryService>(&context_));
  RegisterService(services::ActivityService::kName,
                  std::make_shared<services::ActivityService>(&context_));
  RegisterService(services::PowerService::kName,
                  std::make_shared<services::PowerService>(&context_));
  RegisterService(services::AppOpsService::kName,
                  std::make_shared<services::AppOpsService>(&context_));
  RegisterService(services::MountService::kName,
                  std::make_shared<services::MountService>(&context_));
  RegisterService(services::ContentService::kName,
                  std::make_shared<services::ContentService>(&context_));
  RegisterService(
      services::CountryDetectorService::kName,
      std::make_shared<services::CountryDetectorService>(&context_));
  RegisterService(
      services::BluetoothManagerService::kName,
      std::make_shared<services::BluetoothManagerService>(&context_));
  RegisterService(services::PackageService::kName,
                  std::make_shared<services::PackageService>(&context_));
  RegisterService(services::FingerprintService::kName,
                  std::make_shared<services::FingerprintService>(&context_));
  RegisterService(services::TextServicesService::kName,
                  std::make_shared<services::TextServicesService>(&context_));
  RegisterService(services::InputMethodService::kName,
                  std::make_shared<services::InputMethodService>(&context_));
  RegisterService(services::AccessibilityService::kName,
                  std::make_shared<services::AccessibilityService>(&context_));
  RegisterService(services::PrintService::kName,
                  std::make_shared<services::PrintService>(&context_));
  RegisterService(services::WindowService::kName,
                  std::make_shared<services::WindowService>(&context_));
  RegisterService(services::WallpaperService::kName,
                  std::make_shared<services::WallpaperService>(&context_));
  RegisterService(services::InputService::kName,
                  std::make_shared<services::InputService>(&context_));
  RegisterService(services::DisplayService::kName,
                  std::make_shared<services::DisplayService>(&context_));
  RegisterService(
      services::NetworkManagementService::kName,
      std::make_shared<services::NetworkManagementService>(&context_));
  RegisterService(services::ConnectivityService::kName,
                  std::make_shared<services::ConnectivityService>(&context_));
  RegisterService(services::SipService::kName,
                  std::make_shared<services::SipService>(&context_));
  RegisterService(services::EthernetService::kName,
                  std::make_shared<services::EthernetService>(&context_));
  RegisterService(services::MediaSessionService::kName,
                  std::make_shared<services::MediaSessionService>(&context_));
  RegisterService(services::MediaRouterService::kName,
                  std::make_shared<services::MediaRouterService>(&context_));
  RegisterService(
      services::MediaProjectionService::kName,
      std::make_shared<services::MediaProjectionService>(&context_));
  RegisterService(services::MidiService::kName,
                  std::make_shared<services::MidiService>(&context_));
  RegisterService(services::LauncherAppsService::kName,
                  std::make_shared<services::LauncherAppsService>(&context_));
  RegisterService(services::TvInputService::kName,
                  std::make_shared<services::TvInputService>(&context_));
  for (const std::string& name :
       services::GenericSafeService::SafeServiceNames()) {
    RegisterService(
        name, std::make_shared<services::GenericSafeService>(&context_, name));
  }
  JGRE_LOG(kInfo, "AndroidSystem")
      << "system_server up, " << service_manager_->ServiceCount()
      << " services registered";
}

void AndroidSystem::RegisterService(
    const std::string& name,
    std::shared_ptr<services::SystemService> service) {
  // App-hosted services are registered under their own pid; framework
  // services under system_server.
  Pid owner = context_.system_server_pid;
  if (auto* reg =
          dynamic_cast<services::RegistryServiceBase*>(service.get());
      reg != nullptr && reg->host_pid().valid()) {
    owner = reg->host_pid();
  }
  driver_->RegisterBinder(service, owner);
  Status status = service_manager_->AddService(name, service, kSystemUid);
  assert(status.ok());
  (void)status;
  service_objects_[name] = std::move(service);
}

void AndroidSystem::BootPrebuiltApps() {
  // com.android.bluetooth (uid 1002) hosting GattService + AdapterService.
  package_manager_.InstallPackage("com.android.bluetooth", Uid{1002});
  os::Kernel::ProcessConfig pc;
  pc.with_runtime = true;
  pc.boot_class_refs = config_.app_boot_class_refs;
  pc.memory_kb = 42 * 1024;
  pc.oom_score_adj = os::kPerceptibleAppAdj;
  const Pid bt_pid =
      kernel_.CreateProcess("com.android.bluetooth", Uid{1002}, pc);
  apps_["com.android.bluetooth"] = std::make_unique<services::AppProcess>(
      driver_.get(), service_manager_.get(), bt_pid, Uid{1002},
      "com.android.bluetooth");
  RegisterService(services::GattService::kName,
                  std::make_shared<services::GattService>(&context_, bt_pid));
  RegisterService(
      services::BluetoothAdapterService::kName,
      std::make_shared<services::BluetoothAdapterService>(&context_, bt_pid));

  // com.svox.pico (PicoTts) hosting PicoService, an unmodified
  // TextToSpeechService subclass.
  package_manager_.InstallPackage("com.svox.pico", Uid{10001});
  const Pid pico_pid = kernel_.CreateProcess("com.svox.pico", Uid{10001}, pc);
  apps_["com.svox.pico"] = std::make_unique<services::AppProcess>(
      driver_.get(), service_manager_.get(), pico_pid, Uid{10001},
      "com.svox.pico");
  RegisterService("picotts", std::make_shared<services::TextToSpeechService>(
                                 &context_, "picotts", pico_pid));
}

services::SystemService* AndroidSystem::FindServiceObject(
    const std::string& name) {
  auto it = service_objects_.find(name);
  return it == service_objects_.end() ? nullptr : it->second.get();
}

void AndroidSystem::ForEachService(
    const std::function<void(const std::string&, services::SystemService*)>&
        fn) {
  for (auto& [name, service] : service_objects_) fn(name, service.get());
}

std::size_t AndroidSystem::SystemServerJgrCount() {
  rt::Runtime* runtime = context_.system_runtime();
  return runtime == nullptr ? 0 : runtime->JgrCount();
}

services::AppProcess* AndroidSystem::InstallApp(
    const std::string& package, const std::set<std::string>& permissions) {
  const Uid uid{next_app_uid_++};
  package_manager_.InstallPackage(package, uid, permissions);
  app_permissions_[package] = permissions;
  os::Kernel::ProcessConfig pc;
  pc.with_runtime = true;
  pc.boot_class_refs = config_.app_boot_class_refs;
  pc.memory_kb = 38 * 1024;
  pc.oom_score_adj = os::kForegroundAppAdj;
  const Pid pid = kernel_.CreateProcess(package, uid, pc);
  auto app = std::make_unique<services::AppProcess>(
      driver_.get(), service_manager_.get(), pid, uid, package);
  services::AppProcess* raw = app.get();
  apps_[package] = std::move(app);
  return raw;
}

services::AppProcess* AndroidSystem::InstallApp(const std::string& package) {
  return InstallApp(package, {});
}

services::AppProcess* AndroidSystem::RelaunchApp(const std::string& package) {
  auto uid = package_manager_.GetUidForPackage(package);
  if (!uid.ok()) return nullptr;
  os::Kernel::ProcessConfig pc;
  pc.with_runtime = true;
  pc.boot_class_refs = config_.app_boot_class_refs;
  pc.memory_kb = 38 * 1024;
  pc.oom_score_adj = os::kForegroundAppAdj;
  const Pid pid = kernel_.CreateProcess(package, uid.value(), pc);
  auto app = std::make_unique<services::AppProcess>(
      driver_.get(), service_manager_.get(), pid, uid.value(), package);
  services::AppProcess* raw = app.get();
  apps_[package] = std::move(app);
  return raw;
}

services::AppProcess* AndroidSystem::FindApp(const std::string& package) {
  auto it = apps_.find(package);
  return it == apps_.end() ? nullptr : it->second.get();
}

void AndroidSystem::StopApp(const std::string& package) {
  if (services::AppProcess* app = FindApp(package); app != nullptr) {
    kernel_.KillProcess(app->pid(), "stopped");
  }
}

void AndroidSystem::CollectAllGarbage() {
  for (Pid pid : kernel_.LivePids()) {
    os::Process* proc = kernel_.FindProcess(pid);
    if (proc != nullptr && proc->HasRuntime()) {
      proc->runtime->CollectGarbage();
    }
  }
}

void AndroidSystem::Pump() {
  if (in_pump_ || !booted_) return;
  in_pump_ = true;
  if (auto reboot = kernel_.TakePendingSoftReboot(); reboot.has_value()) {
    HandleSoftReboot(*reboot);
  }
  const TimeUs now = clock().NowUs();
  if (now - last_gc_us_ >= config_.gc_period_us) {
    last_gc_us_ = now;
    CollectAllGarbage();
  }
  if (pump_extension_) pump_extension_();
  in_pump_ = false;
}

void AndroidSystem::SaveState(snapshot::Serializer& out) const {
  assert(booted_ && "checkpoint requires a booted system");
  out.Marker(0x53595331);  // "SYS1"
  kernel_.SaveState(out);
  driver_->SaveState(out);
  service_manager_->SaveState(out);
  package_manager_.SaveState(out);
  out.U64(service_objects_.size());
  for (const auto& [name, service] : service_objects_) {  // map: name order
    out.Str(name);
    service->SaveState(out);
  }
  out.I64(next_app_uid_);
  out.U64(last_gc_us_);
  out.I64(soft_reboots_seen_);
  out.U64(apps_.size());
  for (const auto& [package, app] : apps_) {
    out.Str(package);
    out.I64(app->pid().value());
    out.I64(app->uid().value());
  }
  out.U64(app_permissions_.size());
  for (const auto& [package, permissions] : app_permissions_) {
    out.Str(package);
    out.U64(permissions.size());
    for (const std::string& permission : permissions) out.Str(permission);
  }
}

void AndroidSystem::RestoreState(snapshot::Deserializer& in,
                                 const snapshot::RestoreContext& ctx) {
  assert(booted_ && "restore requires a booted system");
  in.Marker(0x53595331);
  kernel_.RestoreState(in, ctx);
  driver_->RestoreState(in);
  service_manager_->RestoreState(in);
  package_manager_.RestoreState(in);
  const std::uint64_t service_count = in.U64();
  if (service_count != service_objects_.size()) {
    in.Fail("checkpoint service census differs from the booted system");
    return;
  }
  for (std::uint64_t i = 0; i < service_count && in.ok(); ++i) {
    const std::string name = in.Str();
    auto it = service_objects_.find(name);
    if (it == service_objects_.end()) {
      in.Fail(StrCat("checkpoint has service '", name,
                     "' the booted system lacks"));
      return;
    }
    it->second->RestoreState(in);
  }
  restored_services_ = service_objects_.size();
  next_app_uid_ = static_cast<std::int32_t>(in.I64());
  last_gc_us_ = in.U64();
  soft_reboots_seen_ = in.I64();
  apps_.clear();
  for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
    std::string package = in.Str();
    const Pid pid{static_cast<std::int32_t>(in.I64())};
    const Uid uid{static_cast<std::int32_t>(in.I64())};
    apps_[package] = std::make_unique<services::AppProcess>(
        driver_.get(), service_manager_.get(), pid, uid, package);
  }
  app_permissions_.clear();
  for (std::uint64_t i = 0, n = in.U64(); i < n && in.ok(); ++i) {
    std::string package = in.Str();
    std::set<std::string> permissions;
    for (std::uint64_t p = 0, np = in.U64(); p < np && in.ok(); ++p) {
      permissions.insert(in.Str());
    }
    app_permissions_.emplace(std::move(package), std::move(permissions));
  }
}

bool AndroidSystem::Rewindable() const {
  return booted_ && restored_image_ != 0 && soft_reboots_seen_ == 0 &&
         !kernel_.HasPendingSoftReboot() &&
         service_objects_.size() == restored_services_ &&
         driver_->BootBindersIntact() && !driver_->HasTransactHooks() &&
         pump_extension_ == nullptr && post_reboot_hook_ == nullptr &&
         kernel_.bus().subscriber_count() == 0;
}

void AndroidSystem::HandleSoftReboot(const std::string& reason) {
  ++soft_reboots_seen_;
  JGRE_LOG(kWarning, "AndroidSystem")
      << "SOFT REBOOT #" << soft_reboots_seen_ << ": " << reason;
  // Zygote restart kills every Android process.
  for (auto& [package, app] : apps_) {
    if (app->alive()) kernel_.KillProcess(app->pid(), "soft reboot");
  }
  // Tear down the old service objects and registry...
  service_objects_.clear();
  service_manager_->Clear();
  kernel_.ReapDeadProcesses();
  // ...and bring the system back: new system_server, fresh services, and the
  // persistent prebuilt apps.
  const TimeUs kRebootDowntimeUs = 15'000'000;  // ~15 s observed soft reboot
  clock().AdvanceUs(kRebootDowntimeUs);
  BootSystemServer();
  BootPrebuiltApps();
  if (post_reboot_hook_) post_reboot_hook_();
}

}  // namespace jgre::core
