// Unit tests for the common substrate: clock, RNG, status, strings, stats,
// the ring buffer backing the IPC log and trace sinks, and the inline vector
// of the binder call path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/inline_vector.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"

namespace jgre {
namespace {

// --- SimClock ---------------------------------------------------------------

TEST(SimClockTest, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.NowUs(), 0u);
  clock.AdvanceUs(250);
  EXPECT_EQ(clock.NowUs(), 250u);
  clock.AdvanceTo(1000);
  EXPECT_EQ(clock.NowUs(), 1000u);
}

TEST(SimClockTest, TimersFireInDeadlineOrder) {
  SimClock clock;
  std::vector<int> fired;
  clock.ScheduleAt(300, [&] { fired.push_back(3); });
  clock.ScheduleAt(100, [&] { fired.push_back(1); });
  clock.ScheduleAt(200, [&] { fired.push_back(2); });
  clock.AdvanceUs(500);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimClockTest, TimerSeesItsOwnDeadlineAsNow) {
  SimClock clock;
  TimeUs seen = 0;
  clock.ScheduleAt(120, [&] { seen = clock.NowUs(); });
  clock.AdvanceUs(1000);
  EXPECT_EQ(seen, 120u);
  EXPECT_EQ(clock.NowUs(), 1000u);
}

TEST(SimClockTest, TimerCanScheduleWithinTheAdvanceWindow) {
  SimClock clock;
  std::vector<TimeUs> fired;
  clock.ScheduleAt(100, [&] {
    fired.push_back(clock.NowUs());
    clock.ScheduleAt(150, [&] { fired.push_back(clock.NowUs()); });
  });
  clock.AdvanceUs(200);
  EXPECT_EQ(fired, (std::vector<TimeUs>{100, 150}));
}

TEST(SimClockTest, CancelTimerPreventsFiring) {
  SimClock clock;
  bool fired = false;
  const auto id = clock.ScheduleAt(50, [&] { fired = true; });
  clock.CancelTimer(id);
  clock.AdvanceUs(100);
  EXPECT_FALSE(fired);
}

TEST(SimClockTest, PastDeadlineFiresOnNextAdvance) {
  SimClock clock;
  clock.AdvanceUs(500);
  bool fired = false;
  clock.ScheduleAt(100, [&] { fired = true; });  // already past
  clock.AdvanceUs(1);
  EXPECT_TRUE(fired);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU64(10), 10u);
    const auto v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.UniformDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  int buckets[10] = {};
  const int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.UniformU64(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 50);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.15);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng forked = a.Fork();
  // Advancing the fork must not change the parent's future draws.
  Rng b(21);
  (void)b.Fork();
  for (int i = 0; i < 16; ++i) (void)forked.NextU64();
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status status = ResourceExhausted("table full");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.ToString(), "RESOURCE_EXHAUSTED: table full");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ResultTest, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status { return InvalidArgument("x"); };
  auto wrapper = [&]() -> Status {
    JGRE_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInvalidArgument);
}

// --- strings -------------------------------------------------------------------

TEST(StringsTest, StrCatConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("pid=", 42, ", ok=", true), "pid=42, ok=1");
}

TEST(StringsTest, SplitAndJoinRoundTrip) {
  const auto parts = StrSplit("a,b,,c", ',');
  EXPECT_EQ(parts, (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrJoin(parts, ","), "a,b,,c");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StrStartsWith("android.permission.X", "android."));
  EXPECT_FALSE(StrStartsWith("an", "android"));
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%03d-%s", 7, "x"), "007-x");
}

// --- stats --------------------------------------------------------------------

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 5.0);
}

TEST(SummaryTest, CdfIsMonotone) {
  Summary s;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) s.Add(rng.UniformDouble());
  auto cdf = s.Cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(TimeSeriesTest, DownsampleKeepsEndpoints) {
  TimeSeries series("jgr");
  for (int i = 0; i <= 1000; ++i) {
    series.Add(static_cast<TimeUs>(i), i * 2.0);
  }
  TimeSeries down = series.Downsample(11);
  ASSERT_EQ(down.points().size(), 11u);
  EXPECT_EQ(down.points().front().first, 0u);
  EXPECT_EQ(down.points().back().first, 1000u);
}

// --- RingBuffer -------------------------------------------------------------

TEST(RingBufferTest, WraparoundAtCapacityKeepsLogicalIndices) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 4; ++i) ring.Push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.first_index(), 0u);
  ring.Push(4);  // first eviction: value 0 falls off
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_pushed(), 5u);
  EXPECT_EQ(ring.first_index(), 1u);
  EXPECT_EQ(ring.end_index(), 5u);
  // Logical index i always addresses the i-th value ever pushed.
  for (std::uint64_t i = ring.first_index(); i < ring.end_index(); ++i) {
    EXPECT_EQ(ring.At(i), static_cast<int>(i));
  }
}

TEST(RingBufferTest, PushBulkMatchesRepeatedPush) {
  // State equivalence across fill phases: growing, exactly full, wrapped at
  // an arbitrary head position — with bulk counts below, at, and above
  // capacity (the at/above-capacity path replaces the storage wholesale).
  constexpr std::size_t kCapacity = 8;
  const std::size_t prefills[] = {0, 3, 8, 13};
  const std::size_t counts[] = {1, 5, 7, 8, 9, 20};
  for (const std::size_t prefill : prefills) {
    for (const std::size_t count : counts) {
      RingBuffer<std::int64_t> bulk(kCapacity);
      RingBuffer<std::int64_t> reference(kCapacity);
      for (std::size_t i = 0; i < prefill; ++i) {
        bulk.Push(static_cast<std::int64_t>(i));
        reference.Push(static_cast<std::int64_t>(i));
      }
      std::vector<std::int64_t> items;
      for (std::size_t i = 0; i < count; ++i) {
        items.push_back(static_cast<std::int64_t>(100 + i));
      }
      bulk.PushBulk(items.data(), items.size());
      for (const std::int64_t v : items) reference.Push(v);

      ASSERT_EQ(bulk.total_pushed(), reference.total_pushed());
      ASSERT_EQ(bulk.size(), reference.size());
      ASSERT_EQ(bulk.first_index(), reference.first_index());
      for (std::uint64_t i = bulk.first_index(); i < bulk.end_index(); ++i) {
        ASSERT_EQ(bulk.At(i), reference.At(i))
            << "prefill " << prefill << " count " << count << " index " << i;
      }
    }
  }
}

TEST(RingBufferTest, DrainSinceDeliversWrappedChunksInOrder) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 6; ++i) ring.Push(i);  // retains 2..5, wrapped
  std::vector<int> seen;
  std::size_t chunks = 0;
  const auto stats =
      ring.DrainSince(ring.first_index(), [&](const int* data, std::size_t n) {
        ++chunks;
        seen.insert(seen.end(), data, data + n);
      });
  EXPECT_EQ(stats.next, ring.end_index());
  EXPECT_EQ(stats.visited, 4u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(chunks, 2u);  // the physical wrap point splits the visit
  EXPECT_EQ(seen, (std::vector<int>{2, 3, 4, 5}));
}

TEST(RingBufferTest, DrainSinceWhileFillingResumesAtWatermark) {
  RingBuffer<int> ring(8);
  for (int i = 0; i < 3; ++i) ring.Push(i);
  std::vector<int> seen;
  const auto chunk = [&](const int* data, std::size_t n) {
    seen.insert(seen.end(), data, data + n);
  };
  const auto first = ring.DrainSince(0, chunk);
  EXPECT_EQ(first.visited, 3u);
  for (int i = 3; i < 7; ++i) ring.Push(i);
  const auto second = ring.DrainSince(first.next, chunk);
  EXPECT_EQ(second.visited, 4u);
  EXPECT_EQ(second.dropped, 0u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  // Nothing new since the watermark: visit nothing, keep it put.
  const auto third = ring.DrainSince(second.next, chunk);
  EXPECT_EQ(third.visited, 0u);
  EXPECT_EQ(third.next, second.next);
}

TEST(RingBufferTest, DrainSinceReaderOverrunCountsDropped) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 10; ++i) ring.Push(i);  // retains 6..9
  std::vector<int> seen;
  const auto stats = ring.DrainSince(2, [&](const int* data, std::size_t n) {
    seen.insert(seen.end(), data, data + n);
  });
  EXPECT_EQ(stats.dropped, 4u);  // logical 2..5 were overwritten
  EXPECT_EQ(stats.visited, 4u);
  EXPECT_EQ(stats.next, 10u);
  EXPECT_EQ(seen, (std::vector<int>{6, 7, 8, 9}));
}

TEST(RingBufferTest, DrainSinceFutureWatermarkClampsToEnd) {
  RingBuffer<int> ring(4);
  ring.Push(1);
  const auto stats = ring.DrainSince(99, [](const int*, std::size_t) {
    ADD_FAILURE() << "a clamped future watermark must visit nothing";
  });
  EXPECT_EQ(stats.visited, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.next, ring.end_index());
}

TEST(RingBufferTest, PushBulkAfterClearKeepsLogicalIndicesMonotone) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 6; ++i) ring.Push(i);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.end_index(), 6u);  // indices are never reused
  const int tail[] = {10, 11, 12};
  ring.PushBulk(tail, 3);
  EXPECT_EQ(ring.first_index(), 6u);
  EXPECT_EQ(ring.end_index(), 9u);
  EXPECT_EQ(ring.At(6), 10);
  EXPECT_EQ(ring.At(8), 12);
}

// --- InlineVector -----------------------------------------------------------

using Strings = InlineVector<std::string, 2>;

std::vector<std::string> Contents(const Strings& v) {
  return std::vector<std::string>(v.begin(), v.end());
}

Strings Filled(int n) {
  Strings v;
  for (int i = 0; i < n; ++i) v.push_back(std::string(20, 'a' + i));
  return v;
}

// Inline (2) and spilled (5) contents survive copies and moves; a moved-from
// vector is empty and reusable.
TEST(InlineVectorTest, CopyAndMoveKeepContentsInlineAndSpilled) {
  for (int n : {2, 5}) {
    Strings source = Filled(n);
    const std::vector<std::string> expected = Contents(source);
    Strings copy(source);
    EXPECT_EQ(Contents(copy), expected);
    Strings moved(std::move(source));
    EXPECT_EQ(Contents(moved), expected);
    EXPECT_TRUE(source.empty());
    source.push_back("again");
    EXPECT_EQ(Contents(source), std::vector<std::string>{"again"});
    Strings assigned = Filled(3);
    assigned = std::move(moved);
    EXPECT_EQ(Contents(assigned), expected);
    assigned = copy;
    EXPECT_EQ(Contents(assigned), expected);
  }
}

// insert and erase keep the order, across the inline/heap boundary; an
// element of the vector itself can be appended while it grows.
TEST(InlineVectorTest, InsertEraseAndSelfAppendKeepOrder) {
  InlineVector<int, 2> v;
  v.push_back(1);
  v.push_back(3);
  v.insert(v.begin() + 1, 2);  // spills to the heap
  v.insert(v.begin(), 0);
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()),
            (std::vector<int>{0, 1, 2, 3}));
  v.erase(v.begin() + 2);
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()),
            (std::vector<int>{0, 1, 3}));
  Strings s = Filled(2);
  s.push_back(s[0]);  // grows while reading its own element
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[2], std::string(20, 'a'));
  s.clear();
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace jgre
