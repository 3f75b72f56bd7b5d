#include "fuzz/executor.h"

#include "fuzz/coverage.h"

namespace jgre::fuzz {

Probe::Probe(core::AndroidSystem& system, const ExecOptions& options,
             std::string victim_package)
    : system_(system),
      gc_every_calls_(options.gc_every_calls),
      victim_package_(std::move(victim_package)),
      app_(system.InstallApp(options.probe_package, options.permissions)) {
  system_.CollectAllGarbage();
  ReadVictim(obs_.jgr_before, obs_.fd_before);
}

// A dead victim app holds no JGRs.
void Probe::ReadVictim(std::int64_t& jgr, std::int64_t& fd) const {
  if (victim_package_.empty()) {
    jgr = static_cast<std::int64_t>(system_.SystemServerJgrCount());
    fd = system_.kernel().OpenFdCount(system_.system_server_pid());
    return;
  }
  services::AppProcess* victim = system_.FindApp(victim_package_);
  const bool up = victim != nullptr && victim->alive() &&
                  victim->runtime() != nullptr;
  jgr = up ? static_cast<std::int64_t>(victim->runtime()->JgrCount()) : 0;
  fd = system_.kernel().OpenFdCount(victim != nullptr ? victim->pid() : Pid());
}

bool Probe::VictimDown() const {
  if (victim_package_.empty()) return system_.soft_reboots() > 0;
  services::AppProcess* victim = system_.FindApp(victim_package_);
  return victim == nullptr || !victim->alive();
}

Result<const services::IpcClient*> Probe::Client(const IpcCall& call) {
  auto it = clients_.find(call.service);
  if (it == clients_.end()) {
    auto client = app_->GetService(call.service, call.descriptor);
    if (!client.ok()) return client.status();
    it = clients_.emplace(call.service, std::move(client).value()).first;
  }
  return &it->second;
}

Status Probe::Connect(const IpcCall& call) { return Client(call).status(); }

void Probe::WriteArgs(const IpcCall& call, std::size_t step,
                      binder::Parcel& p) {
  for (const ArgValue& arg : call.args) {
    const auto at = static_cast<std::size_t>(arg.from_step);
    const bool wired = arg.from_step >= 0 && at < step && at < captured_.size();
    // A dangling or forward reference falls back to the literal.
    const Captured* from = wired ? &captured_[at] : nullptr;
    const std::int64_t scalar =
        from != nullptr && from->has_scalar ? from->scalar : arg.scalar;
    switch (arg.kind) {
      case services::ArgKind::kInt32:
        p.WriteInt32(static_cast<std::int32_t>(scalar));
        break;
      case services::ArgKind::kInt64:
        p.WriteInt64(scalar);
        break;
      case services::ArgKind::kBool:
        p.WriteBool(arg.scalar != 0);
        break;
      case services::ArgKind::kString:
        p.WriteString(arg.str);
        break;
      case services::ArgKind::kByteArray:
        p.WriteByteArray(arg.byte_size);
        break;
      case services::ArgKind::kBinder:
        if (from != nullptr && from->has_binder) {
          // Forward the binder handle minted by the producer step
          // (nested-binder parcel: session object from A into B).
          p.WriteStrongBinder(from->binder.binder);
        } else if (arg.fresh_binder) {
          p.WriteStrongBinder(app_->NewBinder("FuzzCallback"));
        } else {
          if (shared_binder_ == nullptr) {
            shared_binder_ = app_->NewBinder("FuzzSharedCallback");
          }
          p.WriteStrongBinder(shared_binder_);
        }
        break;
      case services::ArgKind::kFd:
        p.WriteFileDescriptor();
        break;
    }
  }
}

// Only the two protocol-relevant reply shapes are parsed: a leading strong
// binder (kSession) or a leading 64/32-bit scalar (kMintToken and
// id-returning queries).
void Probe::Capture(binder::Parcel& reply, std::size_t step) {
  if (captured_.size() <= step) captured_.resize(step + 1);
  Captured& into = captured_[step];
  reply.RewindRead();
  if (reply.has_binders()) {
    binder::CallContext rctx;
    rctx.self_pid = app_->pid();
    rctx.driver = app_->driver();
    auto sb = reply.ReadStrongBinder(rctx);
    if (sb.ok() && sb.value().valid()) {
      into.binder = std::move(sb).value();
      into.has_binder = true;
    }
    return;
  }
  if (auto i64 = reply.ReadInt64(); i64.ok()) {
    into.scalar = i64.value();
    into.has_scalar = true;
    return;
  }
  reply.RewindRead();
  if (auto i32 = reply.ReadInt32(); i32.ok()) {
    into.scalar = i32.value();
    into.has_scalar = true;
  }
}

Status Probe::Fire(const IpcCall& call, Reply reply_mode) {
  const std::size_t step = steps_++;
  const Result<const services::IpcClient*> client = Client(call);
  if (!client.ok()) return client.status();
  binder::Parcel reply;
  Status status = client.value()->Call(
      call.code, [&](binder::Parcel& p) { WriteArgs(call, step, p); },
      &reply);
  if (reply_mode == Reply::kCapture && status.ok() &&
      reply.value_count() > 0) {
    Capture(reply, step);
  }
  // Rejections (permission, caps, bad args) are signal too: the call counts.
  ++obs_.calls;
  if (VictimDown()) {
    obs_.victim_aborted = true;
  } else if (obs_.calls % gc_every_calls_ == 0) {
    system_.CollectAllGarbage();
  }
  return status;
}

Observation Probe::Observe() {
  if (obs_.victim_aborted) {
    obs_.jgr_after = obs_.jgr_before;
    obs_.fd_after = obs_.fd_before;
  } else {
    system_.CollectAllGarbage();
    ReadVictim(obs_.jgr_after, obs_.fd_after);
  }
  return obs_;
}

SequenceExecutor::SequenceExecutor(const model::CodeModel* model,
                                   ExecOptions options)
    : options_(std::move(options)) {
  for (const model::AppServiceModel& app : model->app_services) {
    app_hosted_[app.service_name] = app.package;
  }
}

ExecOutcome SequenceExecutor::Run(core::AndroidSystem& system,
                                  const std::vector<IpcCall>& calls,
                                  const IpcCall* repeated, int repeats,
                                  const std::string& victim_package) const {
  Probe probe(system, options_, victim_package);
  // Coverage rides the bus only while the sequence runs: baseline-taking and
  // probe install are not part of the signature.
  CoverageProbe coverage(&system.kernel().bus());
  const auto fire = [&](const IpcCall& call) {
    (void)probe.Fire(call);  // a rejected call is signal too
    return !probe.aborted();
  };
  bool up = true;
  for (std::size_t i = 0; up && i < calls.size(); ++i) up = fire(calls[i]);
  for (int i = 0; up && i < repeats; ++i) up = fire(*repeated);
  ExecOutcome out;
  out.obs = probe.Observe();
  out.elements = coverage.TakeElements();
  return out;
}

ExecOutcome SequenceExecutor::Execute(core::AndroidSystem& system,
                                      const Sequence& seq) const {
  return Run(system, seq.calls, nullptr, 0, seq.victim_hint);
}

ExecOutcome SequenceExecutor::ExecuteRepeated(
    core::AndroidSystem& system, const IpcCall& call, int calls,
    const std::vector<IpcCall>& setup) const {
  auto host = app_hosted_.find(call.service);
  return Run(system, setup, &call, calls,
             host != app_hosted_.end() ? host->second : std::string());
}

}  // namespace jgre::fuzz
