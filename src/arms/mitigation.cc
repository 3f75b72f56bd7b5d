#include "arms/mitigation.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "os/kernel.h"

namespace jgre::arms {

// ---------------------------------------------------------------- PerUidQuota

void PerUidQuota::DecayTo(std::size_t victim_live_refs) {
  if (!primed_) {
    primed_ = true;
    last_victim_live_ = victim_live_refs;
    return;
  }
  if (victim_live_refs < last_victim_live_ && total_charged_ > 0) {
    // The table shrank (GC reclaim or defender recovery): release charges
    // proportionally — the policy has no per-reference attribution, only the
    // invariant that outstanding charges track outstanding growth.
    const std::int64_t reclaimed =
        static_cast<std::int64_t>(last_victim_live_ - victim_live_refs);
    const double scale = std::max(
        0.0, 1.0 - static_cast<double>(reclaimed) /
                       static_cast<double>(total_charged_));
    std::int64_t new_total = 0;
    for (auto& [uid, charge] : charges_) {
      charge = static_cast<std::int64_t>(static_cast<double>(charge) * scale);
      new_total += charge;
    }
    total_charged_ = new_total;
  }
  last_victim_live_ = victim_live_refs;
}

Status PerUidQuota::Admit(const MitigationRequest& request) {
  DecayTo(request.victim_live_refs);
  const std::int64_t charged = charges_[request.caller_uid.value()];
  if (charged >= config_.max_charged_refs) {
    // Denials are a hot path under a flood: concatenated, not streamed.
    return LimitExceeded(
        "per_uid_quota: uid " + std::to_string(request.caller_uid.value()) +
        " holds " + std::to_string(charged) + " charged refs (cap " +
        std::to_string(config_.max_charged_refs) + ")");
  }
  return Status::Ok();
}

void PerUidQuota::Settle(const MitigationRequest& request,
                         std::int64_t jgr_delta) {
  if (jgr_delta > 0) {
    charges_[request.caller_uid.value()] += jgr_delta;
    total_charged_ += jgr_delta;
  }
  const std::int64_t live =
      static_cast<std::int64_t>(request.victim_live_refs) + jgr_delta;
  last_victim_live_ = live > 0 ? static_cast<std::size_t>(live) : 0;
}

std::int64_t PerUidQuota::ChargedTo(Uid uid) const {
  auto it = charges_.find(uid.value());
  return it == charges_.end() ? 0 : it->second;
}

// --------------------------------------------------------- TableGrowthBackoff

Status TableGrowthBackoff::Admit(const MitigationRequest& request) {
  if (request.victim_live_refs <= config_.watermark) return Status::Ok();
  const std::size_t excess = request.victim_live_refs - config_.watermark;
  const std::size_t doublings =
      config_.doubling_step == 0 ? 0 : excess / config_.doubling_step;
  DurationUs delay = config_.base_delay_us;
  for (std::size_t i = 0; i < doublings && delay < config_.max_delay_us; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, config_.max_delay_us);
  if (request.clock != nullptr && delay > 0) {
    request.clock->AdvanceUs(delay);
    ++delayed_calls_;
    total_delay_us_ += delay;
  }
  return Status::Ok();  // a tax, never a refusal
}

// ------------------------------------------------------ PerInterfaceRateLimit

Status PerInterfaceRateLimit::Admit(const MitigationRequest& request) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(request.descriptor_id) << 32) |
      request.code;
  Bucket& bucket = buckets_[key];
  if (!bucket.primed) {
    bucket.primed = true;
    bucket.tokens = config_.burst;
    bucket.last_us = request.now_us;
  } else if (request.now_us > bucket.last_us) {
    const double elapsed_s =
        static_cast<double>(request.now_us - bucket.last_us) / 1e6;
    bucket.tokens = std::min(config_.burst,
                             bucket.tokens + elapsed_s * config_.tokens_per_sec);
    bucket.last_us = request.now_us;
  }
  if (bucket.tokens < 1.0) {
    return LimitExceeded("per_interface_rate_limit: interface " +
                         std::to_string(request.descriptor_id) + "#" +
                         std::to_string(request.code) + " out of tokens");
  }
  bucket.tokens -= 1.0;
  return Status::Ok();
}

// ------------------------------------------------------------ MitigationStack

MitigationStack::MitigationStack(core::AndroidSystem* system, Config config)
    : system_(system), config_(config) {}

MitigationStack::~MitigationStack() {
  if (installed_) {
    system_->driver().SetTransactGate(nullptr);
    system_->driver().SetTransactObserver(nullptr);
  }
}

void MitigationStack::Add(std::unique_ptr<MitigationPolicy> policy) {
  policies_.push_back(std::move(policy));
  denied_by_policy_.push_back(0);
}

std::map<std::string, std::int64_t> MitigationStack::denied_by_policy() const {
  std::map<std::string, std::int64_t> by_id;
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    if (denied_by_policy_[i] > 0) {
      by_id[std::string(policies_[i]->id())] += denied_by_policy_[i];
    }
  }
  return by_id;
}

std::size_t MitigationStack::VictimLiveRefs() const {
  const os::Process* victim = system_->kernel().FindProcess(config_.victim);
  if (victim == nullptr || !victim->alive || !victim->HasRuntime()) return 0;
  const rt::JavaVMExt& vm = victim->runtime->vm();
  return vm.GlobalRefCount() + vm.WeakGlobalRefCount();
}

void MitigationStack::Install() {
  if (installed_ || policies_.empty()) return;
  installed_ = true;
  binder::BinderDriver& driver = system_->driver();
  driver.SetTransactGate(
      [this](const binder::BinderDriver::TransactInfo& info) -> Status {
        if (info.target_owner != config_.victim ||
            info.caller_uid < config_.min_gated_uid) {
          return Status::Ok();
        }
        MitigationRequest request;
        request.caller = info.caller;
        request.caller_uid = info.caller_uid;
        request.victim = info.target_owner;
        request.descriptor_id = info.descriptor_id;
        request.code = info.code;
        request.now_us = system_->clock().NowUs();
        request.victim_live_refs = VictimLiveRefs();
        request.clock = &system_->clock();
        for (std::size_t i = 0; i < policies_.size(); ++i) {
          Status vote = policies_[i]->Admit(request);
          if (!vote.ok()) {
            ++total_denied_;
            ++denied_by_uid_[info.caller_uid.value()];
            ++denied_by_policy_[i];
            in_flight_ = false;
            return vote;
          }
        }
        pending_ = request;
        in_flight_ = true;
        return Status::Ok();
      });
  driver.SetTransactObserver(
      [this](const binder::BinderDriver::TransactInfo& info,
             const Status& status) {
        (void)info;
        (void)status;
        if (!in_flight_) return;
        in_flight_ = false;
        const std::int64_t delta =
            static_cast<std::int64_t>(VictimLiveRefs()) -
            static_cast<std::int64_t>(pending_.victim_live_refs);
        for (auto& policy : policies_) policy->Settle(pending_, delta);
      });
}

std::int64_t MitigationStack::DeniedForUid(Uid uid) const {
  auto it = denied_by_uid_.find(uid.value());
  return it == denied_by_uid_.end() ? 0 : it->second;
}

}  // namespace jgre::arms
