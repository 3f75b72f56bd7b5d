// SequenceExecutor — replays a Sequence against one (freshly reset) system
// and reports what the victim retained.
//
// Every execution is a Probe, the §III.D probe discipline step by step:
// install the probe app, force a GC and take the victim baseline; fire one
// call, check for an abort, run the periodic DDMS-style GC; observe (force a
// GC, read the victim's JGR and fd tables). The directed verifier
// (src/dynamic) drives the same Probe, so both stages measure the same thing.
// The executor wraps a CoverageProbe around the calls for the signature.
#ifndef JGRE_FUZZ_EXECUTOR_H_
#define JGRE_FUZZ_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/android_system.h"
#include "fuzz/oracle.h"
#include "fuzz/sequence.h"
#include "model/code_model.h"
#include "services/app.h"
#include "services/ipc_client.h"

namespace jgre::fuzz {

struct ExecOptions {
  int gc_every_calls = 64;
  std::string probe_package = "com.fuzz.probe";
  // Granted to the probe app at install (the campaign grants the union of
  // permissions the code model declares, like the directed verifier grants
  // whatever the interface under test demands).
  std::set<std::string> permissions;
};

// One execution against one system, step by step. Reply values are captured
// per step; a later call's ArgValue with `from_step` receives the captured
// binder/scalar (the dataflow-aware replay of ProtocolGraph chains).
class Probe {
 public:
  // Installs the probe app, forces a GC and reads the baseline of the
  // victim: the app `victim_package`, or system_server when empty.
  Probe(core::AndroidSystem& system, const ExecOptions& options,
        std::string victim_package);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  // Looks up (once per service) the probe app's client for `call`.
  Status Connect(const IpcCall& call);

  // kDiscard drops the reply unread, like §III.D's generated client (the
  // victim retains differently when nobody takes a reply binder).
  enum class Reply { kCapture, kDiscard };

  // Fires one call, then checks for an abort, then runs the periodic GC.
  // Returns the transaction status; an unreachable service's lookup error
  // is returned uncounted (the call still takes a step index).
  Status Fire(const IpcCall& call, Reply reply = Reply::kCapture);

  // The victim's runtime aborted, or system_server soft-rebooted.
  bool aborted() const { return obs_.victim_aborted; }

  // Forces a GC and reads the victim's JGR and fd tables; after an abort
  // the readings stay at the baseline. The last Observe is the outcome.
  Observation Observe();

 private:
  struct Captured {
    binder::StrongBinder binder;
    std::int64_t scalar = 0;
    bool has_binder = false;
    bool has_scalar = false;
  };

  Result<const services::IpcClient*> Client(const IpcCall& call);
  void ReadVictim(std::int64_t& jgr, std::int64_t& fd) const;
  bool VictimDown() const;
  void WriteArgs(const IpcCall& call, std::size_t step, binder::Parcel& p);
  void Capture(binder::Parcel& reply, std::size_t step);

  core::AndroidSystem& system_;
  const int gc_every_calls_;
  const std::string victim_package_;
  services::AppProcess* app_;
  Observation obs_;
  std::map<std::string, services::IpcClient> clients_;
  // The shared callback binder (fresh_binder == false slots), minted lazily.
  std::shared_ptr<binder::BBinder> shared_binder_;
  std::size_t steps_ = 0;
  std::vector<Captured> captured_;  // by step; absent = captured nothing
};

struct ExecOutcome {
  Observation obs;  // victim: system_server, or the host app for ExecuteRepeated
  std::vector<std::uint64_t> elements;
};

class SequenceExecutor {
 public:
  // `model` supplies the app-hosted-service map (service name -> package) so
  // homogeneous probes can watch the right victim.
  SequenceExecutor(const model::CodeModel* model, ExecOptions options);

  const ExecOptions& options() const { return options_; }

  // Replays `seq`; the observed victim is system_server (mixed sequences
  // touch many services, and the shared JGR table is the paper's target)
  // unless the sequence carries a protocol victim_hint naming an app host.
  ExecOutcome Execute(core::AndroidSystem& system, const Sequence& seq) const;

  // Homogeneous confirmation probe: the exact call, `calls` times, with the
  // victim resolved to the service's actual host (system_server or the
  // hosting app process). `setup` runs once before the repetitions — the
  // producer calls a protocol-gated target needs (mint a token, open a
  // session) so the repeated call's from_step references resolve.
  ExecOutcome ExecuteRepeated(core::AndroidSystem& system, const IpcCall& call,
                              int calls,
                              const std::vector<IpcCall>& setup = {}) const;

 private:
  // Fires `calls`, then `repeated` `repeats` times, until the victim goes
  // down, with coverage riding the bus for the calls and the last GC.
  ExecOutcome Run(core::AndroidSystem& system,
                  const std::vector<IpcCall>& calls, const IpcCall* repeated,
                  int repeats, const std::string& victim_package) const;

  ExecOptions options_;
  // service name -> hosting app package ("" = system_server).
  std::map<std::string, std::string> app_hosted_;
};

}  // namespace jgre::fuzz

#endif  // JGRE_FUZZ_EXECUTOR_H_
