#include "harness/branch_runner.h"

#include "common/log.h"
#include "common/strings.h"

namespace jgre::harness {

std::vector<HarnessFlag> BranchFlags(std::vector<HarnessFlag> extra) {
  extra.insert(
      extra.begin(),
      {{"--cold", false, "re-simulate the shared prefix per branch"},
       {"--checkpoint", true, "write the prefix checkpoint (+ manifest) here"},
       {"--resume", true,
        "load the prefix checkpoint instead of building it"}});
  return extra;
}

BranchOptions BranchOptionsFromHarness(const HarnessOptions& options) {
  BranchOptions branch;
  branch.jobs = options.jobs;
  branch.cold = HasFlag(options, "--cold");
  if (const std::string* path = FlagValue(options, "--checkpoint")) {
    branch.checkpoint_path = *path;
  }
  if (const std::string* path = FlagValue(options, "--resume")) {
    branch.resume_path = *path;
  }
  return branch;
}

BranchRunner::BranchRunner(sim::DeviceSpec prefix, BranchOptions options)
    : prefix_(std::move(prefix)), options_(std::move(options)) {}

Status BranchRunner::Prepare() {
  if (options_.cold || snapshot_.has_value()) return Status::Ok();
  if (!options_.resume_path.empty()) {
    auto loaded = snapshot::SystemSnapshot::ReadFile(options_.resume_path);
    if (!loaded.ok()) return loaded.status();
    snapshot_ = std::move(loaded).value();
    JGRE_LOG(kInfo, "BranchRunner")
        << "resumed prefix from " << options_.resume_path << " ("
        << snapshot_->manifest().byte_size << " bytes, virtual t="
        << snapshot_->manifest().virtual_time_us << "us)";
  } else {
    std::unique_ptr<core::AndroidSystem> system =
        sim::DeviceFactory(prefix_).BootPrefix();
    auto captured = snapshot::SystemSnapshot::Capture(*system);
    if (!captured.ok()) return captured.status();
    snapshot_ = std::move(captured).value();
  }
  if (!options_.checkpoint_path.empty()) {
    JGRE_RETURN_IF_ERROR(snapshot_->WriteFile(options_.checkpoint_path));
    JGRE_LOG(kInfo, "BranchRunner")
        << "checkpoint written to " << options_.checkpoint_path;
  }
  return Status::Ok();
}

std::unique_ptr<core::AndroidSystem> BranchRunner::RestoreBranchSystem(
    std::optional<std::size_t> branch_index) const {
  const std::string context =
      branch_index.has_value()
          ? StrCat("BranchRunner (shard ", *branch_index, ")")
          : std::string("BranchRunner");
  if (!snapshot_.has_value()) {
    throw std::runtime_error(StrCat(context, ": Prepare() has not captured"));
  }
  return sim::RestorePrefix(prefix_, *snapshot_, context);
}

}  // namespace jgre::harness
