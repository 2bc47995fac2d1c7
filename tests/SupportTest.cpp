//===-- tests/SupportTest.cpp - Support utilities ---------------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/FunctionRegistry.h"
#include "support/Crc32.h"
#include "support/Hashing.h"
#include "support/SplitMix64.h"
#include "support/Timer.h"

#include <cstring>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace literace;

namespace {

TEST(HashingTest, Mix64IsDeterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

TEST(HashingTest, Mix64SpreadsLowBits) {
  // Sequential inputs must not produce sequential low bits (SyncVar
  // counter selection depends on this).
  std::set<uint64_t> LowBits;
  for (uint64_t I = 0; I != 256; ++I)
    LowBits.insert(mix64(I) & 127);
  EXPECT_GT(LowBits.size(), 100u);
}

TEST(HashingTest, HashCombineOrderSensitive) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 A(7), B(7), C(8);
  for (int I = 0; I != 100; ++I) {
    uint64_t V = A.next();
    EXPECT_EQ(V, B.next());
  }
  EXPECT_NE(A.next(), C.next());
}

TEST(SplitMix64Test, NextDoubleInUnitInterval) {
  SplitMix64 Rng(123);
  for (int I = 0; I != 10000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(SplitMix64Test, NextBelowRespectsBound) {
  SplitMix64 Rng(99);
  for (uint64_t Bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int I = 0; I != 1000; ++I)
      EXPECT_LT(Rng.nextBelow(Bound), Bound);
  }
}

TEST(SplitMix64Test, NextBelowIsRoughlyUniform) {
  SplitMix64 Rng(5);
  unsigned Counts[8] = {};
  const unsigned N = 80000;
  for (unsigned I = 0; I != N; ++I)
    ++Counts[Rng.nextBelow(8)];
  for (unsigned Bucket = 0; Bucket != 8; ++Bucket)
    EXPECT_NEAR(Counts[Bucket], N / 8.0, N / 8.0 * 0.1);
}

TEST(SplitMix64Test, BernoulliEdgeCases) {
  SplitMix64 Rng(1);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(Rng.nextBernoulli(0.0));
    EXPECT_TRUE(Rng.nextBernoulli(1.0));
    EXPECT_FALSE(Rng.nextBernoulli(-0.5));
    EXPECT_TRUE(Rng.nextBernoulli(1.5));
  }
}

TEST(SplitMix64Test, BernoulliHitsRate) {
  SplitMix64 Rng(17);
  unsigned Hits = 0;
  const unsigned N = 100000;
  for (unsigned I = 0; I != N; ++I)
    Hits += Rng.nextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.01);
}

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer Timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double S = Timer.seconds();
  EXPECT_GE(S, 0.015);
  EXPECT_LT(S, 5.0);
  EXPECT_GE(Timer.nanoseconds(), 15u * 1000 * 1000);
  Timer.restart();
  EXPECT_LT(Timer.seconds(), 0.015);
}

TEST(Crc32Test, MatchesTheCastagnoliCheckValue) {
  // The canonical CRC32C check value (RFC 3720 / Intel SSE4.2 crc32c):
  // crc of the nine ASCII digits "123456789".
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(crc32c("", 0), 0x00000000u);
  EXPECT_EQ(crc32c("a", 1), 0xC1D04330u);
  const char ThirtyTwoZeros[32] = {};
  EXPECT_EQ(crc32c(ThirtyTwoZeros, 32), 0x8A9136AAu);
}

TEST(Crc32Test, IncrementalUpdatesMatchOneShot) {
  const char Data[] = "segmented checksummed frames";
  const size_t Size = sizeof(Data) - 1;
  uint32_t State = crc32cInit();
  for (size_t I = 0; I != Size; ++I)
    State = crc32cUpdate(State, Data + I, 1);
  EXPECT_EQ(crc32cFinal(State), crc32c(Data, Size));
}

TEST(Crc32Test, SelectedPathMatchesTheTableAtEveryLengthAndAlignment) {
  SCOPED_TRACE(std::string("CRC32C path: ") + LITERACE_CRC32C_IMPL);
  SplitMix64 Rng(0xC4C32C);
  std::vector<uint8_t> Buffer(4096 + 8);
  for (uint8_t &B : Buffer)
    B = static_cast<uint8_t>(Rng.next());
  for (size_t Align = 0; Align != 8; ++Align)
    for (size_t Len = 0; Len <= 4096; ++Len) {
      const uint8_t *P = Buffer.data() + Align;
      ASSERT_EQ(crc32cUpdate(crc32cInit(), P, Len),
                detail::crc32cUpdateTable(crc32cInit(), P, Len))
          << "length " << Len << " at offset " << Align;
    }
}

TEST(Crc32Test, IncrementalSplitAtEveryOffsetMatchesOneShot) {
  SCOPED_TRACE(std::string("CRC32C path: ") + LITERACE_CRC32C_IMPL);
  uint8_t Data[64];
  for (size_t I = 0; I != sizeof(Data); ++I)
    Data[I] = static_cast<uint8_t>(I * 37 + 11);
  const uint32_t Whole = crc32c(Data, sizeof(Data));
  for (size_t Split = 0; Split <= sizeof(Data); ++Split) {
    uint32_t State = crc32cUpdate(crc32cInit(), Data, Split);
    State = crc32cUpdate(State, Data + Split, sizeof(Data) - Split);
    EXPECT_EQ(crc32cFinal(State), Whole) << "split at " << Split;
  }
}

TEST(Crc32Test, SingleBitFlipsChangeTheChecksum) {
  const char Data[] = "literace segment payload bytes!!";
  const size_t Size = sizeof(Data) - 1;
  const uint32_t Clean = crc32c(Data, Size);
  for (size_t Byte = 0; Byte != Size; ++Byte)
    for (unsigned Bit = 0; Bit != 8; ++Bit) {
      char Flipped[sizeof(Data)];
      std::memcpy(Flipped, Data, sizeof(Data));
      Flipped[Byte] ^= static_cast<char>(1u << Bit);
      EXPECT_NE(crc32c(Flipped, Size), Clean)
          << "byte " << Byte << " bit " << Bit;
    }
}

TEST(FunctionRegistryTest, DenseIdsAndNames) {
  FunctionRegistry Registry;
  FunctionId A = Registry.registerFunction("alpha");
  FunctionId B = Registry.registerFunction("beta");
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(Registry.name(A), "alpha");
  EXPECT_EQ(Registry.name(B), "beta");
  EXPECT_EQ(Registry.size(), 2u);
}

TEST(FunctionRegistryTest, DuplicateNamesAreDistinctRegions) {
  FunctionRegistry Registry;
  FunctionId A = Registry.registerFunction("f");
  FunctionId B = Registry.registerFunction("f");
  EXPECT_NE(A, B);
}

TEST(FunctionRegistryTest, ConcurrentRegistrationIsSafe) {
  FunctionRegistry Registry;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&Registry, T] {
      for (unsigned I = 0; I != 500; ++I)
        Registry.registerFunction("t" + std::to_string(T) + "." +
                                  std::to_string(I));
    });
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(Registry.size(), 2000u);
  // Every id maps to a unique name.
  std::set<std::string> Names;
  for (FunctionId F = 0; F != 2000; ++F)
    Names.insert(Registry.name(F));
  EXPECT_EQ(Names.size(), 2000u);
}

} // namespace
