// Allocation budget of the binder call path.
//
// Replaces the global operator new/delete with counting versions and counts
// the heap allocations of steady-state attacker and benign calls: after a
// warm-up (service lookup, proxy caches, table growth), 1,000 calls of each
// case must stay under a per-call ceiling. What a call still allocates, and
// why, is tabulated in DESIGN.md ("Hot path: the binder call").
//
// Sanitizer runtimes own operator new, so under ASan/TSan the replacement is
// compiled out and the tests skip.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "attack/benign_workload.h"
#include "attack/malicious_app.h"
#include "attack/vuln_registry.h"
#include "core/android_system.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JGRE_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JGRE_ALLOC_COUNTING 0
#endif
#endif
#ifndef JGRE_ALLOC_COUNTING
#define JGRE_ALLOC_COUNTING 1
#endif

namespace {
// Single-threaded tests: a plain counter is enough.
std::uint64_t g_allocations = 0;
}  // namespace

#if JGRE_ALLOC_COUNTING
namespace {
void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // JGRE_ALLOC_COUNTING

namespace jgre {
namespace {

constexpr int kWarmupCalls = 2'000;
constexpr int kMeasuredCalls = 1'000;

// Allocations per call of `call` over kMeasuredCalls calls, after
// kWarmupCalls unmeasured ones. Each ceiling below is the count measured
// when the budget was set, plus one.
template <typename Call>
double AllocationsPerCall(Call&& call) {
  for (int i = 0; i < kWarmupCalls; ++i) call(i);
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < kMeasuredCalls; ++i) call(kWarmupCalls + i);
  return static_cast<double>(g_allocations - before) / kMeasuredCalls;
}

double AttackAllocationsPerCall(const char* service, const char* interface) {
  const attack::VulnSpec* vuln = attack::FindVulnerability(service, interface);
  EXPECT_NE(vuln, nullptr) << service << "." << interface;
  if (vuln == nullptr) return 0;
  core::AndroidSystem system;
  system.Boot();
  services::AppProcess* evil =
      attack::InstallAttackApp(&system, "com.evil.app", *vuln);
  attack::MaliciousApp attacker(&system, evil, *vuln);
  return AllocationsPerCall([&](int) {
    ASSERT_TRUE(attacker.Step().ok()) << service << "." << interface;
  });
}

class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!JGRE_ALLOC_COUNTING) {
      GTEST_SKIP() << "the sanitizer runtime owns operator new";
    }
  }
};

// Code-Snippet 2 against a kRegister registry method with a string argument:
// a fresh Binder per call, retained with its death link in system_server.
TEST_F(AllocBudgetTest, RegisterCallWithStringArgument) {
  const double per_call =
      AttackAllocationsPerCall("connectivity", "requestNetwork");
  std::printf("%.3f allocations per call\n", per_call);
  EXPECT_LE(per_call, 5.0);
}

// A kSession method: the service also mints a server-side session binder
// per call and replies with it.
TEST_F(AllocBudgetTest, SessionCall) {
  const double per_call = AttackAllocationsPerCall("midi", "openDevice");
  std::printf("%.3f allocations per call\n", per_call);
  EXPECT_LE(per_call, 8.0);
}

// One benign app interaction (service lookups plus queries, occasionally a
// toast or a wifi lock), cycling over a small installed population.
TEST_F(AllocBudgetTest, BenignInteraction) {
  core::AndroidSystem system;
  system.Boot();
  attack::BenignWorkload::Options options;
  options.app_count = 10;
  attack::BenignWorkload workload(&system, options);
  workload.InstallAll();
  const double per_call = AllocationsPerCall([&](int i) {
    workload.InteractOnce(static_cast<std::size_t>(i) % 10);
  });
  std::printf("%.3f allocations per call\n", per_call);
  EXPECT_LE(per_call, 4.0);
}

}  // namespace
}  // namespace jgre
