// Dynamic verification tests (§III.D): probes against the live simulator
// must reproduce the paper's verdicts — 57 exploitable interfaces, bounded
// growth for the correctly constrained ones, and the enqueueToast bypass.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "core/android_system.h"
#include "dynamic/verifier.h"
#include "model/corpus.h"

namespace jgre {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new core::AndroidSystem();
    system_->Boot();
    model_ = new model::CodeModel(model::BuildAospModel(*system_));
    report_ = new analysis::AnalysisReport(analysis::RunAnalysis(*model_));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete model_;
    delete system_;
  }

  static const analysis::AnalyzedInterface* Find(const std::string& service,
                                                 const std::string& method) {
    for (const auto& iface : report_->interfaces) {
      if (iface.service == service && iface.method == method) return &iface;
    }
    return nullptr;
  }

  static dynamic::VerifyOptions FastOptions() {
    dynamic::VerifyOptions options;
    options.max_calls = 4000;
    options.probe_calls = 1200;
    options.gc_every_calls = 250;
    return options;
  }

  static core::AndroidSystem* system_;
  static model::CodeModel* model_;
  static analysis::AnalysisReport* report_;
};

// The golden verdicts (tests/golden/verifier_verdicts.txt): every field of
// every verdict of the AOSP sweep and of the Table V market scan at
// FastOptions, one line each, prefixed by its section. Each sweep test writes
// its section's lines to verifier_verdicts.<section>.actual in its working
// directory (build/tests). After an intended verdict change, rerun both
// tests, review the diff and regenerate the golden from the build tree:
//   cd build/tests && cat verifier_verdicts.aosp.actual
//       verifier_verdicts.market.actual
//       > ../../tests/golden/verifier_verdicts.txt
std::string GoldenLine(const std::string& section, const dynamic::Verdict& v) {
  char growth[40];
  std::snprintf(growth, sizeof growth, "%.17g", v.jgr_growth_per_call);
  std::ostringstream line;
  line << section << ' ' << v.id << " tested=" << v.tested
       << " exploitable=" << v.exploitable
       << " victim_aborted=" << v.victim_aborted
       << " bypassed_constraint=" << v.bypassed_constraint
       << " calls_issued=" << v.calls_issued
       << " jgr_growth_per_call=" << growth
       << " skip_reason=" << v.skip_reason;
  return line.str();
}

void ExpectMatchesGolden(const std::string& section,
                         const std::vector<dynamic::Verdict>& verdicts) {
  std::vector<std::string> actual;
  std::ofstream dump("verifier_verdicts." + section + ".actual");
  for (const dynamic::Verdict& v : verdicts) {
    actual.push_back(GoldenLine(section, v));
    dump << actual.back() << '\n';
  }
  std::ifstream golden(JGRE_VERIFIER_GOLDEN);
  ASSERT_TRUE(golden.good()) << "cannot read " << JGRE_VERIFIER_GOLDEN;
  std::vector<std::string> expected;
  for (std::string line; std::getline(golden, line);) {
    if (line.starts_with(section + ' ')) expected.push_back(line);
  }
  ASSERT_EQ(actual.size(), expected.size()) << section;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]);
  }
}

core::AndroidSystem* VerifierTest::system_ = nullptr;
model::CodeModel* VerifierTest::model_ = nullptr;
analysis::AnalysisReport* VerifierTest::report_ = nullptr;

TEST_F(VerifierTest, ClipboardListenerIsExploitable) {
  dynamic::JgreVerifier verifier(FastOptions());
  auto verdict =
      verifier.Verify(*Find("clipboard", "addPrimaryClipChangedListener"),
                      *model_);
  EXPECT_TRUE(verdict.tested);
  EXPECT_TRUE(verdict.exploitable);
  EXPECT_NEAR(verdict.jgr_growth_per_call, 2.0, 0.3);
}

TEST_F(VerifierTest, DisplayPerProcessConstraintIsBounded) {
  dynamic::JgreVerifier verifier(FastOptions());
  auto verdict = verifier.Verify(*Find("display", "registerCallback"), *model_);
  EXPECT_TRUE(verdict.tested);
  EXPECT_FALSE(verdict.exploitable);
  EXPECT_LT(verdict.jgr_growth_per_call, 0.05);
}

TEST_F(VerifierTest, EnqueueToastRequiresTheAndroidSpoof) {
  dynamic::JgreVerifier verifier(FastOptions());
  auto verdict = verifier.Verify(*Find("notification", "enqueueToast"), *model_);
  EXPECT_TRUE(verdict.tested);
  EXPECT_TRUE(verdict.exploitable);
  // The honest probe was capped at MAX_PACKAGE_NOTIFICATIONS; only the
  // "android" package spoof (Code-Snippet 3) gets through.
  EXPECT_TRUE(verdict.bypassed_constraint);
}

TEST_F(VerifierTest, PicoTtsSetCallbackCrashesTheAppNotTheSystem) {
  dynamic::VerifyOptions options = FastOptions();
  options.max_calls = 20000;  // enough to abort the app's smaller baseline
  dynamic::JgreVerifier verifier(options);
  auto verdict = verifier.Verify(*Find("picotts", "setCallback"), *model_);
  EXPECT_TRUE(verdict.tested);
  EXPECT_TRUE(verdict.exploitable);
  EXPECT_TRUE(verdict.victim_aborted);
}

// An fd parameter must reach the service as a real descriptor: dropbox's
// addFile ({kString, kFd}) dups every one it receives into system_server
// and never closes it, so a probe that sends the fd starves system_server
// at RLIMIT_NOFILE (1,024) and soft-reboots the device long before the
// 1,200-call early exit. A parcel without the fd fails to unmarshal, the
// service keeps nothing, and the probe ends bounded.
TEST_F(VerifierTest, FdParameterReachesTheService) {
  const analysis::AnalyzedInterface* add_file = Find("dropbox", "addFile");
  ASSERT_NE(add_file, nullptr);
  dynamic::JgreVerifier verifier(FastOptions());
  auto verdict = verifier.Verify(*add_file, *model_);
  EXPECT_TRUE(verdict.tested) << verdict.skip_reason;
  EXPECT_TRUE(verdict.victim_aborted);
  EXPECT_LE(verdict.calls_issued, 1024);
}

TEST_F(VerifierTest, FullSweepReproducesTheCensus) {
  dynamic::JgreVerifier verifier(FastOptions());
  auto verdicts = verifier.VerifyAll(*report_, *model_);
  ASSERT_EQ(verdicts.size(), 60u);
  int exploitable = 0;
  int bounded = 0;
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.tested) << v.id << ": " << v.skip_reason;
    if (v.exploitable) {
      ++exploitable;
    } else {
      ++bounded;
    }
  }
  // 54 system-service + 3 prebuilt-app vulnerabilities; the 3 correctly
  // per-process-constrained interfaces stay bounded.
  EXPECT_EQ(exploitable, 57);
  EXPECT_EQ(bounded, 3);
  ExpectMatchesGolden("aosp", verdicts);
}

TEST_F(VerifierTest, TableVMarketScanFindsExactlyThreeVulnerableApps) {
  model::CodeModel market = model::BuildMarketModel(model::MarketOptions{});
  analysis::AnalysisReport market_report = analysis::RunAnalysis(market);
  dynamic::JgreVerifier verifier(FastOptions());
  auto verdicts = verifier.VerifyAll(market_report, market);
  std::set<std::string> vulnerable_services;
  for (const auto& v : verdicts) {
    if (v.exploitable) vulnerable_services.insert(v.service);
  }
  EXPECT_EQ(vulnerable_services,
            (std::set<std::string>{"googletts", "supernetvpn", "snapmovie"}));
  ExpectMatchesGolden("market", verdicts);
}

}  // namespace
}  // namespace jgre
