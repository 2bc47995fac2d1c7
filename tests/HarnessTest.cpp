//===-- tests/HarnessTest.cpp - Experiment harness and table printers ------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Tables.h"

#include "support/TableFormatter.h"

#include <cmath>
#include <cstdlib>
#include <gtest/gtest.h>

using namespace literace;

namespace {

TEST(TableFormatterTest, AlignsColumnsAndUnderlinesHeader) {
  TableFormatter Table("T");
  Table.addRow({"Name", "Value"});
  Table.addRow({"a", "1"});
  Table.addRow({"longer", "22"});
  std::string Out = Table.str();
  EXPECT_NE(Out.find("== T =="), std::string::npos);
  EXPECT_NE(Out.find("Name    Value"), std::string::npos);
  EXPECT_NE(Out.find("longer  22"), std::string::npos);
}

TEST(TableFormatterTest, Formatters) {
  EXPECT_EQ(TableFormatter::percent(0.714), "71.4%");
  EXPECT_EQ(TableFormatter::percent(0.018, 1), "1.8%");
  EXPECT_EQ(TableFormatter::times(2.4), "2.40x");
  EXPECT_EQ(TableFormatter::num(3.14159, 2), "3.14");
}

TEST(TableFormatterTest, SeparatorRendersRule) {
  TableFormatter Table;
  Table.addRow({"h"});
  Table.addSeparator();
  Table.addRow({"x"});
  std::string Out = Table.str();
  EXPECT_NE(Out.find("-"), std::string::npos);
}

TEST(ValidateManifestTest, DetectsFamiliesBySitePairs) {
  RaceReport Report;
  RaceSighting S;
  S.FirstPc = 10;
  S.SecondPc = 20;
  Report.record(S);

  std::vector<SeededRaceSpec> Manifest;
  Manifest.push_back({"found", {10, 20, 30}, false});
  Manifest.push_back({"missing", {40, 50}, false});
  auto [Detected, AllWithin] = validateAgainstManifest(Report, Manifest);
  EXPECT_EQ(Detected, 1u);
  EXPECT_TRUE(AllWithin);
}

TEST(ValidateManifestTest, FlagsRacesOutsideEveryFamily) {
  RaceReport Report;
  RaceSighting S;
  S.FirstPc = 10;
  S.SecondPc = 99; // 99 is in no family.
  Report.record(S);
  std::vector<SeededRaceSpec> Manifest;
  Manifest.push_back({"family", {10, 20}, false});
  auto [Detected, AllWithin] = validateAgainstManifest(Report, Manifest);
  EXPECT_EQ(Detected, 0u);
  EXPECT_FALSE(AllWithin);
}

TEST(ValidateManifestTest, BothSitesMustBeInTheSameFamily) {
  RaceReport Report;
  RaceSighting S;
  S.FirstPc = 10;
  S.SecondPc = 40; // Sites from two different families.
  Report.record(S);
  std::vector<SeededRaceSpec> Manifest;
  Manifest.push_back({"a", {10, 20}, false});
  Manifest.push_back({"b", {40, 50}, false});
  auto [Detected, AllWithin] = validateAgainstManifest(Report, Manifest);
  EXPECT_EQ(Detected, 0u);
  EXPECT_FALSE(AllWithin);
}

TEST(ParamsFromEnvTest, ReadsScaleAndSeed) {
  setenv("LITERACE_SCALE", "0.25", 1);
  setenv("LITERACE_SEED", "777", 1);
  WorkloadParams P = paramsFromEnv();
  EXPECT_DOUBLE_EQ(P.Scale, 0.25);
  EXPECT_EQ(P.Seed, 777u);
  unsetenv("LITERACE_SCALE");
  unsetenv("LITERACE_SEED");
  WorkloadParams Default = paramsFromEnv();
  EXPECT_DOUBLE_EQ(Default.Scale, 1.0);

  setenv("LITERACE_REPEATS", "3", 1);
  EXPECT_EQ(repeatsFromEnv(1), 3u);
  unsetenv("LITERACE_REPEATS");
  EXPECT_EQ(repeatsFromEnv(2), 2u);
}

TEST(DetectionExperimentTest, ProducesSaneAggregates) {
  WorkloadParams Params;
  Params.Scale = 0.05;
  DetectionResult R =
      runDetectionExperiment(WorkloadKind::Channel, Params, 1);

  EXPECT_EQ(R.Benchmark, "Dryad Channel");
  EXPECT_TRUE(R.LogConsistent);
  EXPECT_GT(R.MemOps, 0u);
  EXPECT_GT(R.SyncOps, 0u);
  EXPECT_GT(R.NumFunctions, 5u);
  EXPECT_GT(R.NumThreads, 5u);
  EXPECT_EQ(R.StaticTotal, R.RareTotal + R.FrequentTotal);
  EXPECT_EQ(R.SeededDetected, R.SeededTotal);
  EXPECT_TRUE(R.AllDetectedWithinSeededSites);

  ASSERT_EQ(R.Samplers.size(), 7u);
  for (const SamplerOutcome &S : R.Samplers) {
    EXPECT_GE(S.DetectionRate, 0.0);
    EXPECT_LE(S.DetectionRate, 1.0);
    EXPECT_GE(S.EffectiveSamplingRate, 0.0);
    EXPECT_LE(S.EffectiveSamplingRate, 1.0);
    EXPECT_LE(S.StaticFound, R.StaticTotal);
  }
  // ESR sanity: UCP logs almost everything; random samplers hit their
  // configured rates within 4.5 sigma of their binomial (ESR weights
  // activations by memory ops, so the sample count is the run's
  // effective one, not its raw activation count); TL-Ad stays in low
  // single digits.
  EXPECT_GT(R.Samplers[6].EffectiveSamplingRate, 0.9);  // UCP
  ASSERT_GT(R.EsrSamples, 100.0);
  for (auto [Slot, Rate] : {std::pair{4, 0.10}, std::pair{5, 0.25}})
    EXPECT_NEAR(R.Samplers[Slot].EffectiveSamplingRate, Rate,
                4.5 * std::sqrt(Rate * (1 - Rate) / R.EsrSamples))
        << R.Samplers[Slot].ShortName << " over " << R.EsrSamples
        << " effective samples";
  EXPECT_LT(R.Samplers[0].EffectiveSamplingRate, 0.2); // TL-Ad
}

TEST(DetectionExperimentTest, RepeatsAggregateMedians) {
  WorkloadParams Params;
  Params.Scale = 0.05;
  DetectionResult R =
      runDetectionExperiment(WorkloadKind::ConcRTMessaging, Params, 3);
  EXPECT_TRUE(R.LogConsistent);
  EXPECT_EQ(R.SeededDetected, R.SeededTotal);
  EXPECT_EQ(R.StaticTotal, R.RareTotal + R.FrequentTotal);
}

TEST(OverheadExperimentTest, MeasuresAllConfigurations) {
  WorkloadParams Params;
  Params.Scale = 0.05;
  OverheadRow Row = runOverheadExperiment(WorkloadKind::LKRHash, Params, 1,
                                          ::testing::TempDir());
  EXPECT_EQ(Row.Benchmark, "LKRHash");
  EXPECT_GT(Row.BaselineSec, 0.0);
  EXPECT_GT(Row.DispatchOnlySec, 0.0);
  EXPECT_GT(Row.SyncLoggingSec, 0.0);
  EXPECT_GT(Row.LiteRaceSec, 0.0);
  EXPECT_GT(Row.FullLoggingSec, 0.0);
  // Full logging writes strictly more than LiteRace (same sync ops, all
  // memory ops instead of a sample).
  EXPECT_GT(Row.FullLogBytes, Row.LiteRaceLogBytes);
  EXPECT_GT(Row.LiteRaceLogBytes, 0u);
  EXPECT_GT(Row.fullLogMBps(), 0.0);
  EXPECT_GE(Row.liteRaceSlowdown(), 0.5); // Sanity, not a perf assertion.
}

TEST(TablePrintersTest, RenderWithoutCrashing) {
  WorkloadParams Params;
  Params.Scale = 0.05;
  std::vector<DetectionResult> Results;
  Results.push_back(
      runDetectionExperiment(WorkloadKind::Channel, Params, 1));
  // Printers write to stdout; gtest captures it. We only require that
  // they do not crash and produce non-trivial output.
  ::testing::internal::CaptureStdout();
  printTable2(Results);
  printTable3(Results);
  printFigure4(Results);
  printFigure5(Results);
  printTable4(Results);
  std::string Out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(Out.find("Table 2"), std::string::npos);
  EXPECT_NE(Out.find("TL-Ad"), std::string::npos);
  EXPECT_NE(Out.find("Dryad Channel"), std::string::npos);
  EXPECT_NE(Out.find("Figure 5"), std::string::npos);

  std::vector<OverheadRow> Rows;
  OverheadRow Row;
  Row.Benchmark = "LKRHash";
  Row.BaselineSec = 1.0;
  Row.DispatchOnlySec = 1.1;
  Row.SyncLoggingSec = 1.8;
  Row.LiteRaceSec = 2.4;
  Row.FullLoggingSec = 14.7;
  Row.LiteRaceLogBytes = 1000000;
  Row.FullLogBytes = 30000000;
  Rows.push_back(Row);
  ::testing::internal::CaptureStdout();
  printTable5(Rows);
  printFigure6(Rows);
  Out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(Out.find("Table 5"), std::string::npos);
  EXPECT_NE(Out.find("2.40x"), std::string::npos);
  EXPECT_NE(Out.find("14.70x"), std::string::npos);
  EXPECT_NE(Out.find("Figure 6"), std::string::npos);
}

} // namespace
