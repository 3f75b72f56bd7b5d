#include "sim/device.h"

#include <iterator>
#include <stdexcept>

#include "common/log.h"
#include "common/strings.h"
#include "obs/chrome_trace.h"
#include "snapshot/serializer.h"
#include "snapshot/snapshot.h"

namespace jgre::sim {
namespace {

// A freshly Boot()ed system with the spec's system config and boot seed.
std::unique_ptr<core::AndroidSystem> BootFresh(const DeviceSpec& spec) {
  core::SystemConfig sys_config = spec.system_config();
  sys_config.seed = spec.seed();
  auto system = std::make_unique<core::AndroidSystem>(sys_config);
  system->Boot();
  return system;
}

}  // namespace

std::uint64_t PrefixKey(const DeviceSpec& spec) {
  // Every field that BootPrefix() reads, in declaration order. Byte-stable
  // encoding via the checkpoint serializer so the key is identical across
  // runs and machines.
  snapshot::Serializer out;
  out.U64(spec.seed());
  const core::SystemConfig& sys = spec.system_config();
  out.U64(sys.system_server_boot_class_refs);
  out.U64(sys.app_boot_class_refs);
  out.U64(sys.system_server_max_jgr);
  out.I64(sys.gc_period_us);
  out.I64(sys.baseline_native_processes);
  out.I64(sys.total_ram_kb);
  out.I64(sys.driver.base_transact_cost_us);
  out.F64(sys.driver.us_per_kb);
  out.I64(sys.driver.defense_log_base_us);
  out.F64(sys.driver.defense_log_fraction);
  out.U64(sys.driver.ipc_log_capacity);
  out.I64(spec.warmup_apps());
  out.I64(spec.warmup_foreground_us());
  out.I64(spec.warmup_interaction_period_us());
  return out.Hash();
}

std::unique_ptr<core::AndroidSystem> RestorePrefix(
    const DeviceSpec& spec, const snapshot::SystemSnapshot& image,
    std::string_view context) {
  std::unique_ptr<core::AndroidSystem> system = BootFresh(spec);
  Status restored = image.RestoreInto(system.get());
  if (!restored.ok()) {
    // RestoreInto already cites the snapshot source (manifest path or
    // in-memory identity); the context says which shard or device hit it.
    throw std::runtime_error(
        StrCat(context, ": restore failed: ", restored.ToString()));
  }
  return system;
}

std::unique_ptr<core::AndroidSystem> RewindPool::Restore(
    const DeviceSpec& spec, const snapshot::SystemSnapshot& image,
    std::string_view context) {
  std::unique_ptr<core::AndroidSystem> displaced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Recycle left each system at the checkpoint it last rewound to; an
    // image rebuilt since (a cache eviction) is a different one.
    for (auto it = systems_.rbegin(); it != systems_.rend(); ++it) {
      if (!image.CanRewind(**it)) continue;
      std::unique_ptr<core::AndroidSystem> pooled = std::move(*it);
      systems_.erase(std::next(it).base());
      ++rewinds_;
      return pooled;
    }
    if (!systems_.empty()) {
      displaced = std::move(systems_.front());
      systems_.erase(systems_.begin());
    }
  }
  displaced.reset();  // freed before the fresh boot, not after it
  return RestorePrefix(spec, image, context);
}

void RewindPool::Recycle(const snapshot::SystemSnapshot& image,
                         std::unique_ptr<core::AndroidSystem> system) {
  if (system == nullptr || !image.CanRewind(*system)) return;
  Status rewound = image.RewindInto(system.get());
  if (!rewound.ok()) {
    JGRE_LOG(kWarning, "RewindPool")
        << "rewind failed, dropping the system: " << rewound.ToString();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  systems_.push_back(std::move(system));
}

void RewindPool::Drain() {
  std::vector<std::unique_ptr<core::AndroidSystem>> drained;
  std::lock_guard<std::mutex> lock(mu_);
  drained.swap(systems_);
}

std::unique_ptr<core::AndroidSystem> DeviceFactory::BootPrefix() const {
  std::unique_ptr<core::AndroidSystem> system = BootFresh(spec_);
  if (spec_.warmup_apps() > 0) {
    attack::BenignWorkload::Options options;
    options.app_count = spec_.warmup_apps();
    options.per_app_foreground_us = spec_.warmup_foreground_us();
    if (spec_.warmup_interaction_period_us() > 0) {
      options.interaction_period_us = spec_.warmup_interaction_period_us();
    }
    options.seed = spec_.seed() + 3;
    options.package_prefix = "com.warm.app";
    attack::BenignWorkload warmup(system.get(), options);
    warmup.InstallAll();
    warmup.RunMonkeySession();
    // Back to quiescent: stop every warmup app (releasing its service-side
    // registrations via death notification) and reclaim the JGRs they
    // pinned, so the checkpoint boundary is a near-baseline device.
    for (const std::string& package : warmup.packages()) {
      system->StopApp(package);
    }
    system->CollectAllGarbage();
  }
  return system;
}

std::unique_ptr<DeviceSim> DeviceFactory::CreateDeviceOn(
    std::unique_ptr<core::AndroidSystem> system) const {
  return std::unique_ptr<DeviceSim>(new DeviceSim(spec_, std::move(system)));
}

DeviceSim::DeviceSim(const DeviceSpec& spec,
                     std::unique_ptr<core::AndroidSystem> system)
    : spec_(spec), rng_(spec.scenario_seed() + 2), system_(std::move(system)) {
  if (spec_.defense()) {
    defender_ = std::make_unique<defense::JgreDefender>(
        system_.get(), spec_.defender_config());
    defender_->Install();
  }
  // Pure sinks: subscribing them never advances the virtual clock, so a
  // traced run is event-for-event identical to an untraced one. Both ride
  // buffered delivery — the trace()/metrics() accessors flush before reads.
  if (spec_.trace()) {
    trace_ = std::make_unique<obs::TraceBuffer>();
    bus().Subscribe(trace_.get(), spec_.trace_mask(), /*pid_filter=*/-1,
                    obs::Delivery::kBuffered);
  }
  if (spec_.metrics()) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_sink_ = std::make_unique<obs::MetricsSink>(metrics_.get());
    bus().Subscribe(metrics_sink_.get(), obs::kAllCategories,
                    /*pid_filter=*/-1, obs::Delivery::kBuffered);
  }

  attack::BenignWorkload::Options benign_options;
  benign_options.app_count = spec_.benign_apps();
  benign_options.seed = spec_.scenario_seed() + 1;
  benign_ = std::make_unique<attack::BenignWorkload>(system_.get(),
                                                     benign_options);
  if (spec_.benign_apps() > 0) {
    benign_->InstallAll();
    next_benign_.resize(benign_->packages().size());
    for (TimeUs& t : next_benign_) {
      t = system_->clock().NowUs() + rng_.UniformU64(150'000);
    }
  }

  if (spec_.vuln().has_value()) {
    attacker_process_ = attack::InstallAttackApp(
        system_.get(), spec_.attack_package(), *spec_.vuln());
    attacker_ = std::make_unique<attack::MaliciousApp>(
        system_.get(), attacker_process_, *spec_.vuln());
  }
}

DeviceSim::~DeviceSim() {
  if (system_ != nullptr) Release();
}

std::unique_ptr<core::AndroidSystem> DeviceSim::Release() {
  // The constructor's install order, reversed.
  attacker_.reset();
  attacker_process_ = nullptr;
  benign_.reset();
  next_benign_.clear();
  if (metrics_sink_ != nullptr) bus().Unsubscribe(metrics_sink_.get());
  metrics_sink_.reset();
  metrics_.reset();
  if (trace_ != nullptr) bus().Unsubscribe(trace_.get());
  trace_.reset();
  defender_.reset();
  return std::move(system_);
}

obs::TraceBuffer* DeviceSim::trace() {
  if (trace_ != nullptr) bus().Flush();
  return trace_.get();
}

obs::MetricsRegistry* DeviceSim::metrics() {
  if (metrics_ != nullptr) bus().Flush();
  return metrics_.get();
}

bool DeviceSim::WriteChromeTrace(const std::string& path) {
  if (trace_ == nullptr) return false;
  bus().Flush();  // drain staged events into the trace ring
  auto resolver = [this](std::int32_t pid) -> std::string {
    const os::Process* p = system_->kernel().FindProcess(Pid{pid});
    return p == nullptr ? std::string() : p->name;
  };
  return obs::WriteChromeTraceFile(path, bus(), *trace_, resolver);
}

}  // namespace jgre::sim
