// Snapshot subsystem tests: per-module save/restore round-trips (RNG
// streams, IRT free lists, ring buffers), whole-system checkpoint
// stability, the on-disk format, and the headline determinism contract —
// a restored simulation continues byte-identically to a cold run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "attack/malicious_app.h"
#include "attack/vuln_registry.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "core/android_system.h"
#include "experiment/experiment.h"
#include "harness/branch_runner.h"
#include "obs/event.h"
#include "runtime/heap.h"
#include "runtime/indirect_reference_table.h"
#include "runtime/runtime.h"
#include "services/clipboard_service.h"
#include "sim/device.h"
#include "snapshot/serializer.h"
#include "snapshot/snapshot.h"

namespace jgre {
namespace {

// --- RNG --------------------------------------------------------------------

TEST(SnapshotPropertyTest, RngRoundTripContinuesTheSameStream) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull, ~0ull}) {
    Rng original(seed);
    // Burn an arbitrary prefix so the checkpoint sits mid-stream.
    for (int i = 0; i < 1000; ++i) (void)original.NextU64();

    snapshot::Serializer out;
    original.SaveState(out);
    Rng restored(0);  // wrong seed on purpose: restore must overwrite it
    snapshot::Deserializer in(out.buffer());
    restored.RestoreState(in);
    ASSERT_TRUE(in.ok());

    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(original.NextU64(), restored.NextU64()) << "seed " << seed;
    }
  }
}

// --- IndirectReferenceTable -------------------------------------------------

// Drives two tables (one live, one restored mid-way) through the same
// scripted add/remove tail and insists on identical refs, sizes, and
// slot-reuse order — the free list must round-trip exactly.
TEST(SnapshotPropertyTest, IrtRoundTripPreservesFreeListOrder) {
  using rt::IndirectReferenceTable;
  for (std::uint64_t seed : {3ull, 17ull, 99ull}) {
    IndirectReferenceTable original(64, rt::IndirectRefKind::kGlobal, "g");
    Rng ops(seed);
    std::vector<rt::IndirectRef> live;
    // Random prefix: adds and removes punch a seed-dependent hole pattern.
    for (int i = 0; i < 200; ++i) {
      if (live.empty() || ops.Chance(0.6)) {
        auto ref = original.Add(original.CurrentCookie(), ObjectId{i + 1});
        if (ref.ok()) live.push_back(ref.value());
      } else {
        const std::size_t victim = ops.UniformU64(live.size());
        ASSERT_TRUE(original.Remove(original.CurrentCookie(), live[victim]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }

    snapshot::Serializer out;
    original.SaveState(out);
    IndirectReferenceTable restored(64, rt::IndirectRefKind::kGlobal, "g");
    snapshot::Deserializer in(out.buffer());
    restored.RestoreState(in);
    ASSERT_TRUE(in.ok()) << in.error();
    ASSERT_EQ(original.Size(), restored.Size());
    ASSERT_EQ(original.HoleCount(), restored.HoleCount());
    for (rt::IndirectRef ref : live) {
      ASSERT_TRUE(restored.Contains(ref));
      ASSERT_EQ(original.Get(ref).value(), restored.Get(ref).value());
    }

    // Identical tail on both: every returned ref (slot + serial) must match.
    Rng tail(seed + 1);
    for (int i = 0; i < 200; ++i) {
      if (live.empty() || tail.Chance(0.5)) {
        auto a = original.Add(original.CurrentCookie(), ObjectId{1000 + i});
        auto b = restored.Add(restored.CurrentCookie(), ObjectId{1000 + i});
        ASSERT_EQ(a.ok(), b.ok());
        if (a.ok()) {
          ASSERT_EQ(a.value(), b.value()) << "slot reuse diverged";
          live.push_back(a.value());
        }
      } else {
        const std::size_t victim = tail.UniformU64(live.size());
        ASSERT_EQ(original.Remove(original.CurrentCookie(), live[victim]),
                  restored.Remove(restored.CurrentCookie(), live[victim]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    ASSERT_EQ(original.Size(), restored.Size());
  }
}

// --- RingBuffer -------------------------------------------------------------

TEST(SnapshotPropertyTest, RingBufferRoundTripKeepsIndicesAndTail) {
  RingBuffer<std::int64_t> original(8);
  for (std::int64_t i = 0; i < 21; ++i) original.Push(i * 3);  // wrapped twice

  snapshot::Serializer out;
  original.SaveState(
      out, [](snapshot::Serializer& s, const std::int64_t& v) { s.I64(v); });
  RingBuffer<std::int64_t> restored(8);
  snapshot::Deserializer in(out.buffer());
  restored.RestoreState(in,
                        [](snapshot::Deserializer& d) { return d.I64(); });
  ASSERT_TRUE(in.ok()) << in.error();

  ASSERT_EQ(original.first_index(), restored.first_index());
  ASSERT_EQ(original.end_index(), restored.end_index());
  for (std::uint64_t i = restored.first_index(); i < restored.end_index();
       ++i) {
    EXPECT_EQ(original.At(i), restored.At(i));
  }
  // Subsequent pushes see the same logical indices and evictions.
  original.Push(777);
  restored.Push(777);
  EXPECT_EQ(original.first_index(), restored.first_index());
  EXPECT_EQ(original.At(original.end_index() - 1),
            restored.At(restored.end_index() - 1));
}

// --- Heap arena -------------------------------------------------------------

// The SoA arena serializes live slots only (holes compress away), and a
// restore must rebuild columns + candidate list so exactly that a re-save
// produces the same bytes and the next GC collects the same objects.
TEST(SnapshotPropertyTest, HeapArenaRoundTripIsByteStableWithHoles) {
  rt::Heap original;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 64; ++i) {
    const ObjectId id =
        original.AllocDescribed(rt::ObjectKind::kBinderProxy, 0, "svc");
    ids.push_back(id);
    if (i % 3 == 0) original.AddHold(id);
    original.SetManagedRef(id, static_cast<rt::HeapIndirectRef>(0x100 + i));
    if (i % 4 == 0) {
      original.SetWeakRef(id, static_cast<rt::HeapIndirectRef>(0x9000 + i));
    }
    original.SetProxyNode(id, NodeId{i + 1});
  }
  // Punch holes so dead slots interleave with live ones and the id space
  // stays dense (freed ids are never reused).
  for (std::size_t i = 0; i < ids.size(); i += 5) original.Free(ids[i]);
  const std::size_t live_before = original.LiveCount();

  snapshot::Serializer first;
  original.SaveState(first);
  rt::Heap restored;
  snapshot::Deserializer in(first.buffer());
  restored.RestoreState(in);
  ASSERT_TRUE(in.ok()) << in.error();
  snapshot::Serializer second;
  restored.SaveState(second);
  EXPECT_EQ(first.buffer(), second.buffer());  // byte-identical images

  EXPECT_EQ(restored.LiveCount(), live_before);
  EXPECT_EQ(restored.total_allocated(), original.total_allocated());
  for (const ObjectId id : ids) {
    ASSERT_EQ(restored.IsAlive(id), original.IsAlive(id));
    if (!original.IsAlive(id)) continue;
    EXPECT_EQ(restored.Holds(id), original.Holds(id));
    EXPECT_EQ(restored.Kind(id), original.Kind(id));
    EXPECT_EQ(restored.Label(id), original.Label(id));
    EXPECT_EQ(restored.ManagedRef(id), original.ManagedRef(id));
    EXPECT_EQ(restored.WeakRef(id), original.WeakRef(id));
    EXPECT_EQ(restored.ProxyNode(id).value(), original.ProxyNode(id).value());
  }
  // Same pending collection set, in the same (ascending id) order.
  std::vector<ObjectId> original_candidates, restored_candidates;
  original.TakeUnheldCandidates(&original_candidates);
  restored.TakeUnheldCandidates(&restored_candidates);
  EXPECT_EQ(original_candidates, restored_candidates);
}

// --- Whole-system checkpoints -----------------------------------------------

const attack::VulnSpec& Toast() {
  const attack::VulnSpec* vuln =
      attack::FindVulnerability("notification", "enqueueToast");
  EXPECT_NE(vuln, nullptr);
  return *vuln;
}

sim::DeviceSpec SmallScenario(std::uint64_t seed) {
  sim::DeviceSpec spec;
  spec.WithSeed(seed)
      .WithWarmup(4, 2'000'000)
      .WithBenignApps(2)
      .WithAttack(Toast())
      .WithThresholds(1500, 500)
      .WithMaxAttackerCalls(6000);
  return spec;
}

// Drives a restored system the way one fuzz execution does: a new app
// registers `calls` fresh clipboard listeners (each pinning system_server
// JGRs and a death link), then every runtime is collected.
void Drive(core::AndroidSystem& system, int calls) {
  services::AppProcess* app = system.InstallApp("com.rewind.driver");
  auto clipboard = app->GetService(services::ClipboardService::kName,
                                   services::ClipboardService::kDescriptor);
  ASSERT_TRUE(clipboard.ok()) << clipboard.status().ToString();
  for (int i = 0; i < calls; ++i) {
    Status status = clipboard.value().Call(
        services::ClipboardService::TRANSACTION_addPrimaryClipChangedListener,
        [&](binder::Parcel& p) { p.WriteStrongBinder(app->NewBinder("l")); });
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  system.CollectAllGarbage();
}

std::vector<std::uint8_t> CapturePayload(core::AndroidSystem& system) {
  auto captured = snapshot::SystemSnapshot::Capture(system);
  EXPECT_TRUE(captured.ok()) << captured.status().ToString();
  return captured.ok() ? captured.value().payload()
                       : std::vector<std::uint8_t>();
}

// Capture → restore into a fresh boot → capture again must produce the
// exact same payload bytes: restore loses nothing the serializer can see.
// The same holds after the restored system is driven and rewound in place,
// twice (the second rewind skips the runtimes nothing touched).
TEST(SystemSnapshotTest, CaptureRestoreCaptureIsByteStable) {
  sim::DeviceSpec config = SmallScenario(42);
  std::unique_ptr<core::AndroidSystem> prefix =
      sim::DeviceFactory(config).BootPrefix();
  auto captured = snapshot::SystemSnapshot::Capture(*prefix);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& snap = captured.value();
  EXPECT_GT(snap.manifest().byte_size, 0u);
  EXPECT_EQ(snap.manifest().seed, 42u);
  EXPECT_EQ(snap.manifest().virtual_time_us, prefix->clock().NowUs());

  core::SystemConfig sys_config = config.system_config();
  sys_config.seed = config.seed();
  core::AndroidSystem restored(sys_config);
  restored.Boot();
  Status status = snap.RestoreInto(&restored);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.clock().NowUs(), prefix->clock().NowUs());
  EXPECT_EQ(restored.SystemServerJgrCount(), prefix->SystemServerJgrCount());

  auto recaptured = snapshot::SystemSnapshot::Capture(restored);
  ASSERT_TRUE(recaptured.ok()) << recaptured.status().ToString();
  EXPECT_EQ(snap.manifest().content_hash,
            recaptured.value().manifest().content_hash);
  EXPECT_EQ(snap.payload(), recaptured.value().payload());

  for (int round = 1; round <= 2; ++round) {
    const std::size_t jgr_before = restored.SystemServerJgrCount();
    Drive(restored, 20);
    ASSERT_GT(restored.SystemServerJgrCount(), jgr_before);
    ASSERT_TRUE(snap.CanRewind(restored));
    status = snap.RewindInto(&restored);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(restored.rewinds(), round);
    EXPECT_EQ(restored.SystemServerJgrCount(), jgr_before);
    EXPECT_TRUE(CapturePayload(restored) == snap.payload())
        << "round " << round;
  }
}

// An image is rewound only into a system it restored and that carries
// nothing the checkpoint cannot rewind.
TEST(SystemSnapshotTest, RewindRequiresAPlainSystemRestoredFromTheImage) {
  sim::DeviceSpec config = SmallScenario(42);
  std::unique_ptr<core::AndroidSystem> prefix =
      sim::DeviceFactory(config).BootPrefix();
  auto captured = snapshot::SystemSnapshot::Capture(*prefix);
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& snap = captured.value();
  EXPECT_FALSE(prefix->Rewindable()) << "never restored";
  EXPECT_EQ(snap.RewindInto(prefix.get()).code(),
            StatusCode::kFailedPrecondition);

  std::unique_ptr<core::AndroidSystem> system =
      sim::RestorePrefix(config, snap, "rewind test");
  EXPECT_TRUE(snap.CanRewind(*system));
  auto other = snapshot::SystemSnapshot::Capture(*system);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.value().CanRewind(*system)) << "a different image";

  snapshot::EventTape tape;
  system->kernel().bus().Subscribe(&tape, obs::kAllCategories);
  EXPECT_FALSE(snap.CanRewind(*system)) << "a foreign bus subscriber";
  system->kernel().bus().Unsubscribe(&tape);
  system->driver().SetTransactGate(
      [](const binder::BinderDriver::TransactInfo&) { return Status::Ok(); });
  EXPECT_FALSE(snap.CanRewind(*system)) << "a transact gate";
  system->driver().SetTransactGate(nullptr);
  system->SetPumpExtension([] {});
  EXPECT_FALSE(snap.CanRewind(*system)) << "a pump hook";
  system->SetPumpExtension(nullptr);
  EXPECT_TRUE(snap.CanRewind(*system));

  // The reset pool rewinds a plain driven system and serves it again, and
  // destroys one that still carries a hook.
  sim::RewindPool pool;
  Drive(*system, 4);
  core::AndroidSystem* pooled = system.get();
  pool.Recycle(snap, std::move(system));
  system = pool.Restore(config, snap, "rewind test");
  EXPECT_EQ(system.get(), pooled);
  EXPECT_EQ(system->rewinds(), 1);
  EXPECT_EQ(pool.rewinds(), 1u);
  EXPECT_TRUE(CapturePayload(*system) == snap.payload());

  system->SetPumpExtension([] {});
  pool.Recycle(snap, std::move(system));
  system = pool.Restore(config, snap, "rewind test");
  EXPECT_EQ(system->rewinds(), 0) << "a hooked system was pooled";
  EXPECT_EQ(pool.rewinds(), 1u);
}

// Steps a device's attacker and, every 50 steps, each benign app.
void DriveDevice(sim::DeviceSim& device, int steps) {
  for (int i = 0; i < steps; ++i) {
    (void)device.attacker()->Step();
    if (i % 50 != 0) continue;
    for (std::size_t app = 0; app < device.benign_schedule().size(); ++app) {
      device.benign()->InteractOnce(app);
    }
  }
}

// A finished device detaches everything it installed — attacker, benign
// workload, metrics and trace sinks, defender (with its procfs file) — so
// its system rewinds to the checkpoint bytes, and the next device built on
// it replays event for event what a device on a fresh restore does.
TEST(SystemSnapshotTest, ReleasedDeviceRewindsLikeAFreshRestore) {
  sim::DeviceSpec spec = SmallScenario(42);
  spec.WithTrace().WithMetrics();
  const sim::DeviceFactory factory(spec);
  auto captured = snapshot::SystemSnapshot::Capture(*factory.BootPrefix());
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& image = captured.value();

  sim::RewindPool pool;
  std::unique_ptr<sim::DeviceSim> device =
      factory.CreateDeviceOn(pool.Restore(spec, image, "release test"));
  ASSERT_NE(device->defender(), nullptr);
  ASSERT_NE(device->trace(), nullptr);
  ASSERT_NE(device->metrics(), nullptr);
  EXPECT_TRUE(device->system().kernel().procfs().Exists("/proc/jgre_ipc_log"));
  DriveDevice(*device, 300);
  ASSERT_EQ(device->system().soft_reboots(), 0);

  std::unique_ptr<core::AndroidSystem> system = device->Release();
  device.reset();
  EXPECT_FALSE(system->kernel().procfs().Exists("/proc/jgre_ipc_log"));
  EXPECT_EQ(system->kernel()
                .procfs()
                .Read("/proc/jgre_ipc_log", kSystemUid)
                .status()
                .code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(image.CanRewind(*system));
  pool.Recycle(image, std::move(system));
  system = pool.Restore(spec, image, "release test");
  ASSERT_EQ(system->rewinds(), 1);
  EXPECT_TRUE(CapturePayload(*system) == image.payload());

  const auto replay = [&](std::unique_ptr<core::AndroidSystem> base) {
    snapshot::EventTape tape;
    base->kernel().bus().Subscribe(&tape, obs::kAllCategories);
    std::unique_ptr<sim::DeviceSim> next =
        factory.CreateDeviceOn(std::move(base));
    DriveDevice(*next, 300);
    next->bus().Unsubscribe(&tape);
    return tape.events();
  };
  const std::vector<obs::TraceEvent> rewound = replay(std::move(system));
  const std::vector<obs::TraceEvent> fresh =
      replay(sim::RestorePrefix(spec, image, "release test"));
  EXPECT_FALSE(fresh.empty());
  const auto divergence = snapshot::FirstDivergence(fresh, rewound);
  EXPECT_FALSE(divergence.has_value())
      << (divergence ? divergence->description : "");
}

// A proxy keeps no copy of its interface descriptor: it reads the driver's
// node table, which a fresh restore and a rewind both rebuild, so proxies
// made on either (or kept across a rewind) read the right descriptor.
TEST(SystemSnapshotTest, ProxyDescriptorsReadTheRestoredNodeTable) {
  const sim::DeviceSpec spec = SmallScenario(42);
  const sim::DeviceFactory factory(spec);
  auto captured = snapshot::SystemSnapshot::Capture(*factory.BootPrefix());
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& image = captured.value();
  const auto clipboard_proxy = [](core::AndroidSystem& system) {
    services::AppProcess* app = system.FindApp("com.svox.pico");
    EXPECT_NE(app, nullptr);
    auto service = system.service_manager().GetService(
        services::ClipboardService::kName, app->pid());
    EXPECT_TRUE(service.ok());
    EXPECT_TRUE(service.value().binder->IsProxy());
    return service.value().binder;
  };

  sim::RewindPool pool;
  std::unique_ptr<core::AndroidSystem> system =
      pool.Restore(spec, image, "descriptor test");
  const std::shared_ptr<binder::IBinder> kept = clipboard_proxy(*system);
  EXPECT_EQ(kept->InterfaceDescriptor(),
            services::ClipboardService::kDescriptor);

  std::unique_ptr<sim::DeviceSim> device =
      factory.CreateDeviceOn(std::move(system));
  DriveDevice(*device, 300);
  system = device->Release();
  device.reset();
  pool.Recycle(image, std::move(system));
  system = pool.Restore(spec, image, "descriptor test");
  ASSERT_EQ(system->rewinds(), 1);
  EXPECT_EQ(clipboard_proxy(*system)->InterfaceDescriptor(),
            services::ClipboardService::kDescriptor);
  EXPECT_EQ(kept->InterfaceDescriptor(),
            services::ClipboardService::kDescriptor);
}

// The rewind skips a runtime only while its mutation epoch proves nothing
// changed it. Each kind of change, made to a dead warm-up process's runtime
// (which nothing else touches, so it is skipped otherwise), must be undone
// by the next rewind.
TEST(SystemSnapshotTest, RewindUndoesEveryKindOfRuntimeChange) {
  sim::DeviceSpec config = SmallScenario(42);
  auto captured = snapshot::SystemSnapshot::Capture(
      *sim::DeviceFactory(config).BootPrefix());
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& image = captured.value();
  std::unique_ptr<core::AndroidSystem> system =
      sim::RestorePrefix(config, image, "epoch test");

  const auto dead_runtime = [&]() -> rt::Runtime* {
    for (std::int32_t pid = 1;; ++pid) {
      os::Process* proc = system->kernel().FindProcess(Pid{pid});
      if (proc == nullptr) return nullptr;
      if (!proc->alive && proc->HasRuntime()) return proc->runtime.get();
    }
  };
  const auto held_object = [](rt::Runtime& runtime) {
    ObjectId held;
    runtime.heap().ForEachLive([&](ObjectId id) {
      if (!held.valid() && runtime.heap().Holds(id) > 0) held = id;
    });
    return held;
  };
  const std::vector<std::function<void(rt::Runtime&)>> changes = {
      [&](rt::Runtime& r) { r.heap().AddHold(held_object(r)); },
      [&](rt::Runtime& r) { r.heap().RemoveHold(held_object(r)); },
      [](rt::Runtime& r) { r.AllocPlainObject("stray"); },
      [&](rt::Runtime& r) { (void)r.vm().AddGlobalRef(held_object(r)); },
      [](rt::Runtime& r) { (void)r.PushLocalFrame(); },
      [](rt::Runtime& r) { r.CollectGarbage(); },
  };
  for (std::size_t i = 0; i < changes.size(); ++i) {
    rt::Runtime* runtime = dead_runtime();
    ASSERT_NE(runtime, nullptr);
    changes[i](*runtime);
    ASSERT_FALSE(CapturePayload(*system) == image.payload()) << "change " << i;
    ASSERT_TRUE(image.CanRewind(*system)) << "change " << i;
    const Status status = image.RewindInto(system.get());
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(CapturePayload(*system) == image.payload()) << "change " << i;
  }
}

// A copy of `image` whose payload was edited by `edit` and re-hashed, so
// that it passes the file checks and only the restore can reject it.
snapshot::SystemSnapshot Rehashed(
    const snapshot::SystemSnapshot& image, const std::string& path,
    const std::function<void(std::vector<std::uint8_t>&)>& edit) {
  std::vector<std::uint8_t> payload = image.payload();
  edit(payload);
  snapshot::Serializer out;
  out.U64(snapshot::kSnapshotMagic);
  out.U32(image.manifest().version);
  out.U64(image.manifest().seed);
  out.U64(image.manifest().virtual_time_us);
  out.U64(payload.size());
  std::vector<std::uint8_t> bytes = out.TakeBuffer();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  snapshot::Serializer trailer;
  trailer.U64(snapshot::Fnv1a(payload.data(), payload.size()));
  bytes.insert(bytes.end(), trailer.buffer().begin(), trailer.buffer().end());
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = snapshot::SystemSnapshot::ReadFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.ok() ? std::move(loaded).value() : snapshot::SystemSnapshot();
}

// Overwrites the little-endian u64 `offset` bytes past the first occurrence
// of the section marker `tag` in `payload`.
void PokeU64After(std::vector<std::uint8_t>& payload, std::uint32_t tag,
                  std::size_t offset, std::uint64_t value) {
  const std::uint8_t marker[] = {
      static_cast<std::uint8_t>(tag), static_cast<std::uint8_t>(tag >> 8),
      static_cast<std::uint8_t>(tag >> 16),
      static_cast<std::uint8_t>(tag >> 24)};
  auto at = std::search(payload.begin(), payload.end(), std::begin(marker),
                        std::end(marker));
  ASSERT_NE(at, payload.end()) << std::hex << tag;
  const std::size_t pos =
      static_cast<std::size_t>(at - payload.begin()) + 4 + offset;
  ASSERT_LE(pos + 8, payload.size());
  for (int b = 0; b < 8; ++b) {
    payload[pos + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(value >> (8 * b));
  }
}

// Hostile input: rewinding a driven system from a truncated payload, or from
// one with a flipped byte or a corrupted count re-hashed to pass the file
// checks, fails with a Status (never std::bad_alloc); the reset pool drops
// the half-rewound system, and its next reset is fresh and byte-correct.
TEST(SystemSnapshotTest, RewindFromHostilePayloadFailsAndIsNotReused) {
  sim::DeviceSpec config = SmallScenario(42);
  auto captured = snapshot::SystemSnapshot::Capture(
      *sim::DeviceFactory(config).BootPrefix());
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const snapshot::SystemSnapshot& image = captured.value();

  // A count that would size an allocation of terabytes if trusted.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  // The binder driver's section marker: a flip there fails the restore
  // after the kernel section was rewound in place.
  const std::vector<std::uint8_t> driver_marker = {0x32, 0x52, 0x44, 0x42};
  const std::vector<std::function<void(std::vector<std::uint8_t>&)>> edits = {
      [](std::vector<std::uint8_t>& p) { p.resize(p.size() / 2); },
      [&](std::vector<std::uint8_t>& p) {
        auto at = std::search(p.begin(), p.end(), driver_marker.begin(),
                              driver_marker.end());
        ASSERT_NE(at, p.end());
        *at ^= 0x01;
      },
      // An IRT's top index ("IRT1", after max_entries and kind) far past
      // the table's capacity.
      [](std::vector<std::uint8_t>& p) {
        PokeU64After(p, 0x49525431, 8 + 1, kHuge);
      },
      // The IPC log's capacity and push count ("IPL2"): more records than
      // the rest of the payload holds.
      [](std::vector<std::uint8_t>& p) {
        PokeU64After(p, 0x49504C32, 0, kHuge);
        PokeU64After(p, 0x49504C32, 8, kHuge);
      },
      // A heap's allocation cursor ("HEA2") past the restorable ceiling.
      [](std::vector<std::uint8_t>& p) {
        PokeU64After(p, 0x48454132, 0, kHuge);
      },
  };
  sim::RewindPool pool;
  for (std::size_t i = 0; i < edits.size(); ++i) {
    std::unique_ptr<core::AndroidSystem> system =
        pool.Restore(config, image, "hostile test");
    ASSERT_EQ(system->rewinds(), 0) << "edit " << i;
    Drive(*system, 8);
    const snapshot::SystemSnapshot hostile =
        Rehashed(image, "snapshot_test_hostile.bin", edits[i]);
    const Status status = hostile.RewindInto(system.get());
    EXPECT_FALSE(status.ok()) << "edit " << i;
    EXPECT_FALSE(image.CanRewind(*system)) << "edit " << i;
    EXPECT_FALSE(hostile.CanRewind(*system)) << "edit " << i;

    pool.Recycle(image, std::move(system));
    system = pool.Restore(config, image, "hostile test");
    EXPECT_EQ(system->rewinds(), 0) << "edit " << i << ": not fresh";
    EXPECT_TRUE(CapturePayload(*system) == image.payload()) << "edit " << i;
  }
  EXPECT_EQ(pool.rewinds(), 0u);
}

TEST(SystemSnapshotTest, RestoreRejectsSeedMismatch) {
  core::SystemConfig config;
  config.seed = 42;
  core::AndroidSystem system(config);
  system.Boot();
  auto captured = snapshot::SystemSnapshot::Capture(system);
  ASSERT_TRUE(captured.ok());

  core::SystemConfig other = config;
  other.seed = 43;
  core::AndroidSystem target(other);
  target.Boot();
  EXPECT_EQ(captured.value().RestoreInto(&target).code(),
            StatusCode::kInvalidArgument);
}

// The headline contract: a restored branch continues event-for-event
// byte-identically to the cold run of the same scenario.
TEST(SystemSnapshotTest, RestoredRunMatchesColdRunGoldenTrace) {
  sim::DeviceSpec config = SmallScenario(7);
  config.WithDefense();

  // Cold: prefix built in-process, tape subscribed at the branch boundary.
  snapshot::EventTape cold_tape;
  experiment::DefendedAttackResult cold_result;
  {
    std::unique_ptr<core::AndroidSystem> system =
        sim::DeviceFactory(config).BootPrefix();
    system->kernel().bus().Subscribe(&cold_tape, obs::kAllCategories);
    auto device = sim::DeviceFactory(config).CreateDeviceOn(std::move(system));
    cold_result = experiment::Experiment(*device).RunDefendedAttack();
    device->system().kernel().bus().Unsubscribe(&cold_tape);
  }
  ASSERT_TRUE(cold_result.incident);

  // Restored: checkpoint the prefix, revive it in a fresh system.
  snapshot::EventTape restored_tape;
  experiment::DefendedAttackResult restored_result;
  {
    std::unique_ptr<core::AndroidSystem> prefix =
        sim::DeviceFactory(config).BootPrefix();
    auto captured = snapshot::SystemSnapshot::Capture(*prefix);
    ASSERT_TRUE(captured.ok()) << captured.status().ToString();
    prefix.reset();  // the cold prefix is gone; only the bytes survive

    core::SystemConfig sys_config = config.system_config();
    sys_config.seed = config.seed();
    auto revived = std::make_unique<core::AndroidSystem>(sys_config);
    revived->Boot();
    Status status = captured.value().RestoreInto(revived.get());
    ASSERT_TRUE(status.ok()) << status.ToString();
    revived->kernel().bus().Subscribe(&restored_tape, obs::kAllCategories);
    auto device = sim::DeviceFactory(config).CreateDeviceOn(std::move(revived));
    restored_result = experiment::Experiment(*device).RunDefendedAttack();
    device->system().kernel().bus().Unsubscribe(&restored_tape);
  }

  auto divergence = snapshot::FirstDivergence(cold_tape.events(),
                                              restored_tape.events());
  EXPECT_FALSE(divergence.has_value())
      << (divergence ? divergence->description : "");
  EXPECT_EQ(cold_result.attacker_calls, restored_result.attacker_calls);
  EXPECT_EQ(cold_result.virtual_duration_us,
            restored_result.virtual_duration_us);
  EXPECT_EQ(cold_result.report.identified_at,
            restored_result.report.identified_at);
  EXPECT_EQ(cold_result.report.recovered_at,
            restored_result.report.recovered_at);
}

// BranchRunner's restore path is the same contract, through the harness.
TEST(BranchRunnerTest, BranchesMatchColdBuilds) {
  sim::DeviceSpec config = SmallScenario(11);
  config.WithDefense();
  harness::BranchOptions options;
  options.jobs = 2;
  harness::BranchRunner runner(config, options);

  const auto branch_config = [&config](std::size_t) { return config; };
  const auto task = [](std::size_t, sim::DeviceSim& device) {
    auto result = experiment::Experiment(device).RunDefendedAttack();
    return result.virtual_duration_us;
  };
  const std::vector<DurationUs> warm =
      runner.Run<DurationUs>(3, branch_config, task);

  harness::BranchOptions cold_options;
  cold_options.jobs = 1;
  cold_options.cold = true;
  harness::BranchRunner cold_runner(config, cold_options);
  const std::vector<DurationUs> cold =
      cold_runner.Run<DurationUs>(3, branch_config, task);

  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i], cold[i]) << "branch " << i;
    EXPECT_EQ(warm[i], warm[0]) << "same config must give same branch";
  }
}

// --- File format ------------------------------------------------------------

TEST(SystemSnapshotTest, FileRoundTripValidatesContentHash) {
  core::SystemConfig config;
  config.seed = 5;
  core::AndroidSystem system(config);
  system.Boot();
  auto captured = snapshot::SystemSnapshot::Capture(system);
  ASSERT_TRUE(captured.ok());

  const std::string path = "snapshot_test_checkpoint.bin";
  Status written = captured.value().WriteFile(path);
  ASSERT_TRUE(written.ok()) << written.ToString();

  auto loaded = snapshot::SystemSnapshot::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().payload(), captured.value().payload());
  EXPECT_EQ(loaded.value().manifest().seed, 5u);
  EXPECT_EQ(loaded.value().manifest().content_hash,
            captured.value().manifest().content_hash);

  // The JSON manifest sidecar carries the same identity.
  std::ifstream manifest(path + ".manifest.json");
  ASSERT_TRUE(manifest.good());
  std::string json((std::istreambuf_iterator<char>(manifest)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"seed\": 5"), std::string::npos);
  EXPECT_NE(json.find("jgre-snapshot"), std::string::npos);

  // Flip one payload byte on disk: the hash check must reject the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(64);
    f.write(&byte, 1);
  }
  auto corrupt = snapshot::SystemSnapshot::ReadFile(path);
  EXPECT_FALSE(corrupt.ok());
  std::remove(path.c_str());
  std::remove((path + ".manifest.json").c_str());
}

TEST(DivergenceTest, ReportsFirstDifferingEvent) {
  std::vector<obs::TraceEvent> a;
  for (int i = 0; i < 5; ++i) {
    a.push_back(obs::MakeEvent(obs::Category::kIpc, obs::Label::kIpcTransact,
                               TimeUs{static_cast<std::uint64_t>(i)}, 1, 2,
                               i));
  }
  std::vector<obs::TraceEvent> b = a;
  EXPECT_FALSE(snapshot::FirstDivergence(a, b).has_value());

  b[3].arg0 = 99;
  auto diff = snapshot::FirstDivergence(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->index, 3u);

  b = a;
  b.pop_back();
  diff = snapshot::FirstDivergence(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->index, 4u);
}

}  // namespace
}  // namespace jgre
