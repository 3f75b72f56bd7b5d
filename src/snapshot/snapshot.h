// SystemSnapshot — deterministic checkpoint/restore for whole simulations.
//
// A checkpoint is the byte-stable serialization of every piece of mutable
// simulation state (virtual clock, RNG streams, heap + strong-hold graph,
// IRT/JGR tables, kernel process table + LMK, binder node table + IPC log +
// death links, service retention state, defender monitor tapes), produced by
// the per-module SaveState hooks in a fixed module order. Restoring into a
// freshly Boot()ed AndroidSystem built from the same SystemConfig yields a
// simulation whose subsequent event stream is byte-identical to the original
// — the property the divergence auditor (below) checks event by event.
//
// On-disk format: "JGRESNAP" magic, little-endian header (version, seed,
// virtual time, payload size), the payload, and an FNV-1a trailer over the
// payload. A JSON manifest sidecar (<path>.manifest.json) carries the same
// identity fields for tooling (scripts/validate_snapshot_manifest.py).
#ifndef JGRE_SNAPSHOT_SNAPSHOT_H_
#define JGRE_SNAPSHOT_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/event.h"
#include "snapshot/serializer.h"

namespace jgre::core {
class AndroidSystem;
}
namespace jgre::defense {
class JgreDefender;
}

namespace jgre::snapshot {

inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::uint64_t kSnapshotMagic = 0x50414E5345524A47ull;  // "JGRESNAP" LE

// Identity of a checkpoint; serialized as the file header and exported as
// the JSON manifest.
struct SnapshotManifest {
  std::uint32_t version = kSnapshotVersion;
  std::uint64_t seed = 0;        // SystemConfig::seed of the captured system
  TimeUs virtual_time_us = 0;    // clock at the checkpoint boundary
  std::uint64_t content_hash = 0;  // FNV-1a over the payload bytes
  std::uint64_t byte_size = 0;     // payload size

  std::string ToJson() const;
};

class SystemSnapshot {
 public:
  SystemSnapshot() = default;

  // Captures a booted, quiescent system (and, when given, the installed
  // defender). Preconditions: the system has never soft-rebooted (re-booted
  // services sit at post-boot node ids, which restore as loud placeholder
  // binders) and no virtual timers are pending.
  static Result<SystemSnapshot> Capture(
      core::AndroidSystem& system,
      const defense::JgreDefender* defender = nullptr);

  // Restores into a freshly constructed AndroidSystem with the SAME
  // SystemConfig that has been Boot()ed and not otherwise driven. When the
  // checkpoint carries defender state, `defender` must be an Install()ed
  // defender on that same system.
  Status RestoreInto(core::AndroidSystem* system,
                     defense::JgreDefender* defender = nullptr) const;

  // Rewinds a system that was restored from a checkpoint and then driven
  // (executions, app installs, GCs) back to this checkpoint in place,
  // instead of booting a new system and restoring into it. The system keeps
  // its objects: processes and runtimes are reused by pid and overwritten,
  // heap/IRT/interner restores write into the capacity they have, processes
  // and binder nodes created since are dropped, and placeholder binders are
  // reused by node id. A runtime is not read at all when its mutation epoch
  // proves nothing changed it since the last restore from this image; the
  // restore then jumps over its bytes using a per-process section index
  // derived in memory by the first restore of this image.
  //
  // Requires system->Rewindable() (FailedPrecondition otherwise). A non-OK
  // result leaves the system half-restored: discard it. Rewinding from the
  // image the system was last restored from (CanRewind) is exact — byte for
  // byte what a fresh RestoreInto yields; sim::RewindPool falls back to the
  // fresh path for every other system.
  Status RewindInto(core::AndroidSystem* system) const;
  bool CanRewind(const core::AndroidSystem& system) const;

  // Binary checkpoint at `path` plus the JSON manifest sidecar at
  // `path` + ".manifest.json".
  Status WriteFile(const std::string& path) const;
  static Result<SystemSnapshot> ReadFile(const std::string& path);

  const SnapshotManifest& manifest() const { return manifest_; }
  const std::vector<std::uint8_t>& payload() const { return payload_; }

  // Where this snapshot lives on disk: set by ReadFile and WriteFile, empty
  // for an image that only ever existed in memory. Restore errors cite
  // DescribeSource() so a failure names the image to inspect, not just a
  // deserializer offset.
  const std::string& source_path() const { return source_path_; }
  // "<path>.manifest.json" for a file-backed snapshot, "" otherwise.
  std::string ManifestPath() const {
    return source_path_.empty() ? std::string() : source_path_ + kManifestSuffix;
  }
  // "manifest <path>.manifest.json" or "in-memory snapshot (seed S, t=T us)".
  std::string DescribeSource() const;

  static constexpr const char* kManifestSuffix = ".manifest.json";

 private:
  // Per-process runtime sections of the payload (RestoreContext), derived
  // by the first successful restore and shared by copies of the snapshot.
  struct RuntimeIndex {
    std::mutex mu;
    std::atomic<bool> ready{false};
    std::vector<ByteSpan> spans;  // immutable once ready
  };

  // Gives a newly built image its identity and an empty index.
  void InitIdentity();
  Status Restore(core::AndroidSystem* system, defense::JgreDefender* defender,
                 bool rewind) const;

  SnapshotManifest manifest_;
  std::vector<std::uint8_t> payload_;
  // Process-unique identity of the payload (0: empty snapshot); copies of
  // the snapshot share it, and a system remembers the identity of the image
  // it was last restored from.
  std::uint64_t id_ = 0;
  std::shared_ptr<RuntimeIndex> index_;
  // Last persisted location; bookkeeping only, so the const WriteFile can
  // record it.
  mutable std::string source_path_;
};

// --- Divergence auditing ----------------------------------------------------
//
// The determinism contract in checkable form: subscribe an EventTape to each
// of two runs (cold and restored) at equivalent points, run both, and ask
// for the first event where the tapes disagree. Byte-identical runs yield
// std::nullopt.

class EventTape : public obs::EventSink {
 public:
  void OnEvent(const obs::TraceEvent& event) override {
    events_.push_back(event);
  }
  const std::vector<obs::TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

 private:
  std::vector<obs::TraceEvent> events_;
};

struct Divergence {
  std::size_t index = 0;    // first differing event (or the shorter length)
  std::string description;  // human-readable field-level diff
};

std::optional<Divergence> FirstDivergence(
    const std::vector<obs::TraceEvent>& cold,
    const std::vector<obs::TraceEvent>& restored);

}  // namespace jgre::snapshot

#endif  // JGRE_SNAPSHOT_SNAPSHOT_H_
