//===-- pipebench/tests/ArithTest.cpp - Benchmark arithmetic tests --------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Arith.h"

#include <gtest/gtest.h>

using namespace pipebench;

namespace {

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

TEST(PercentileRule, MedianUsesMidpointForEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PercentileRule, NearestRank) {
  const std::vector<double> V = iota(100);
  EXPECT_DOUBLE_EQ(percentile(V, 90), 90.0);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 100.0);
  EXPECT_DOUBLE_EQ(percentile({7}, 90), 7.0);
  // Unsorted input is sorted first.
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 60), 3.0);
}

TEST(PercentileRule, TenSamplesBeyond) {
  // p90 of 100 samples sits at rank 90 with exactly 10 beyond it.
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_TRUE(supportsPercentile(100, 90));
  EXPECT_FALSE(supportsPercentile(99, 90));
  EXPECT_FALSE(supportsPercentile(100, 95));
  EXPECT_TRUE(supportsPercentile(200, 95));
  EXPECT_FALSE(supportsPercentile(19, 50));
  EXPECT_TRUE(supportsPercentile(20, 50));
}

TEST(PercentileRule, HighestSupported) {
  EXPECT_EQ(highestSupportedPercentile(9), std::nullopt);
  EXPECT_EQ(highestSupportedPercentile(20), 50.0);
  EXPECT_EQ(highestSupportedPercentile(40), 75.0);
  EXPECT_EQ(highestSupportedPercentile(100), 90.0);
  EXPECT_EQ(highestSupportedPercentile(199), 90.0);
  EXPECT_EQ(highestSupportedPercentile(200), 95.0);
  EXPECT_EQ(highestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(highestSupportedPercentile(10000), 99.9);
}

TEST(SelfTime, UnionCountsOverlapOnce) {
  EXPECT_EQ(unionLength({{0, 10}, {5, 15}, {20, 25}}), 20u);
  EXPECT_EQ(unionLength({{20, 25}, {0, 10}, {2, 3}}), 15u);
  EXPECT_EQ(unionLength({}), 0u);
  EXPECT_EQ(unionLength({{5, 5}, {7, 3}}), 0u);
}

TEST(SelfTime, OverlappingChildrenOnOtherThreads) {
  // A recording span on the main thread (0..100) with sink spans from
  // two workload threads that overlap each other (10..40 and 30..60) and
  // one that runs past the parent's end (90..120); each sink span has a
  // nested byte-layer span on its own thread.
  std::vector<Span> Spans = {
      {1, 0, 1, 0, "record", 0, 100},
      {2, 1, 1, 1, "sink.writeChunk", 10, 40},
      {3, 1, 1, 2, "sink.writeChunk", 30, 60},
      {4, 1, 1, 1, "sink.writeChunk", 90, 120},
      {5, 2, 1, 1, "support.output.write", 20, 35},
      {6, 3, 1, 2, "support.output.write", 50, 70},
  };
  const std::vector<uint64_t> Self = selfTimes(Spans);
  // Children cover [10,60) and, clipped, [90,100): 60 of 100.
  EXPECT_EQ(Self[0], 40u);
  EXPECT_EQ(Self[1], 15u); // 30 - 15
  EXPECT_EQ(Self[2], 20u); // 30 - [50,60) clipped to the parent
  EXPECT_EQ(Self[3], 30u);
  EXPECT_EQ(Self[4], 15u);
  EXPECT_EQ(Self[5], 20u);
}

TEST(SelfTime, OrphanAndRootSpansKeepTheirDuration) {
  std::vector<Span> Spans = {
      {7, 0, 1, 0, "analyze", 0, 50},
      {8, 99, 1, 0, "orphan", 10, 20},
  };
  const std::vector<uint64_t> Self = selfTimes(Spans);
  EXPECT_EQ(Self[0], 50u);
  EXPECT_EQ(Self[1], 10u);
}

TEST(SelfTime, StageWallSelfTimesAddUpToTheWallTime) {
  // Two sink spans on different threads overlap during [30,40): summing
  // per-span self-times counts that interval twice, the per-stage wall
  // self-times count it once and add up to the root's 100 ns exactly.
  std::vector<Span> Spans = {
      {1, 0, 1, 0, "record", 0, 100},
      {2, 1, 1, 1, "sink.writeChunk", 10, 40},
      {3, 1, 1, 2, "sink.writeChunk", 30, 60},
      {4, 2, 1, 1, "support.output.write", 20, 35},
      {5, 3, 1, 2, "support.output.write", 50, 58},
  };
  uint64_t SpanSum = 0;
  for (uint64_t S : selfTimes(Spans))
    SpanSum += S;
  EXPECT_EQ(SpanSum, 110u);

  const std::map<std::string, uint64_t> Wall = wallSelfByName(Spans);
  EXPECT_EQ(Wall.at("record"), 50u);
  EXPECT_EQ(Wall.at("sink.writeChunk"), 27u);
  EXPECT_EQ(Wall.at("support.output.write"), 23u);
  uint64_t WallSum = 0;
  for (const auto &[Name, Ns] : Wall)
    WallSum += Ns;
  EXPECT_EQ(WallSum, 100u);
}

TEST(RatioBases, RecordSlowdownIsOverTheBaselineRun) {
  EXPECT_DOUBLE_EQ(*recordSlowdown(0.066, 0.060), 1.1);
  // A baseline of zero or NaN is no base: the ratio is refused, not
  // reported as inf or 0.
  EXPECT_EQ(recordSlowdown(0.066, 0.0), std::nullopt);
  EXPECT_EQ(recordSlowdown(0.066, std::nan("")), std::nullopt);
  EXPECT_EQ(recordSlowdown(0.066, -1.0), std::nullopt);
}

TEST(RatioBases, DetectionRateIsOverTheReferenceRaces) {
  EXPECT_DOUBLE_EQ(*detectionRate(6, 8), 0.75);
  EXPECT_DOUBLE_EQ(*detectionRate(8, 8), 1.0);
  EXPECT_EQ(detectionRate(0, 0), std::nullopt);
  EXPECT_DOUBLE_EQ(*detectionRate(0, 4), 0.0);
}

TEST(Fingerprint, MismatchRefusesComparison) {
  const Fingerprint A = {{"host_cores", "4"},
                         {"cpu_model", "X"},
                         {"vectorclock_simd", "avx2"}};
  Fingerprint B = A;
  EXPECT_TRUE(fingerprintMismatches(A, B).empty());
  B["host_cores"] = "1";
  const std::vector<std::string> Diff = fingerprintMismatches(A, B);
  ASSERT_EQ(Diff.size(), 1u);
  EXPECT_EQ(Diff[0], "host_cores: 4 != 1");
}

TEST(Fingerprint, MissingFieldIsAMismatch) {
  const Fingerprint A = {{"host_cores", "4"}, {"build_type", "Release"}};
  const Fingerprint B = {{"host_cores", "4"}};
  const std::vector<std::string> Diff = fingerprintMismatches(A, B);
  ASSERT_EQ(Diff.size(), 1u);
  EXPECT_EQ(Diff[0], "build_type: Release != <missing>");
}

} // namespace
