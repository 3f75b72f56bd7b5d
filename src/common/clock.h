// Deterministic virtual clock for the discrete-event simulation.
//
// All timing in the simulator (IPC latency, service execution cost, GC
// cadence, attack durations) is expressed in virtual microseconds. Nothing in
// the library reads wall-clock time; experiments are reproducible given a
// seed. Components advance the clock to model the cost of the work they
// perform, mirroring how the paper measures durations on a real device.
#ifndef JGRE_COMMON_CLOCK_H_
#define JGRE_COMMON_CLOCK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/types.h"
#include "snapshot/serializer.h"

namespace jgre {

class SimClock {
 public:
  SimClock() = default;

  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  TimeUs NowUs() const { return now_us_; }

  // Advances virtual time by `delta` microseconds and fires any timers that
  // come due, in deadline order. The timer-free advance stays inline: per-
  // event virtual-time charges (monitor recording, log costs) are hot.
  void AdvanceUs(DurationUs delta) {
    if (timers_.empty()) {
      now_us_ += delta;
      return;
    }
    AdvanceTo(now_us_ + delta);
  }

  // Jump directly to an absolute time (must not go backwards).
  void AdvanceTo(TimeUs when_us);

  // Registers a callback to run when virtual time reaches `deadline_us`.
  // Returns a timer id usable with `CancelTimer`.
  std::int64_t ScheduleAt(TimeUs deadline_us, std::function<void()> fn);

  void CancelTimer(std::int64_t timer_id);

  // Number of timers that have fired since construction (observability).
  std::int64_t timers_fired() const { return timers_fired_; }

  bool HasPendingTimers() const { return !timers_.empty(); }

  // Checkpointing. Pending timers hold arbitrary std::functions and cannot
  // be serialized; the snapshot layer requires a quiescent clock (no pending
  // timers) at the checkpoint boundary and the restore fails otherwise.
  void SaveState(snapshot::Serializer& out) const {
    out.I64(static_cast<std::int64_t>(now_us_));
    out.I64(next_timer_id_);
    out.I64(timers_fired_);
    out.U64(timers_.size());
  }
  void RestoreState(snapshot::Deserializer& in) {
    now_us_ = static_cast<TimeUs>(in.I64());
    next_timer_id_ = in.I64();
    timers_fired_ = in.I64();
    if (in.U64() != 0) in.Fail("checkpoint taken with pending timers");
    timers_.clear();
  }

 private:
  TimeUs now_us_ = 0;
  std::int64_t next_timer_id_ = 1;
  std::int64_t timers_fired_ = 0;
  // deadline -> (timer id -> callback); std::map keeps deadline order and
  // insertion-ordered ids within a deadline give deterministic firing.
  std::map<TimeUs, std::map<std::int64_t, std::function<void()>>> timers_;
};

}  // namespace jgre

#endif  // JGRE_COMMON_CLOCK_H_
