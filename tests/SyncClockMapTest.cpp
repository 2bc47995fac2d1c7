//===-- tests/SyncClockMapTest.cpp - SyncVar clock table --------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Differential tests of the detectors' SyncClockMap against
// std::unordered_map: seeded operation sequences over ordinary and
// adversarial keys, growth to over ten thousand keys, and find after
// ref.
//
//===----------------------------------------------------------------------===//

#include "detector/SyncClockMap.h"

#include "support/SplitMix64.h"

#include <gtest/gtest.h>
#include <unordered_map>
#include <vector>

using namespace literace;

namespace {

using Oracle = std::unordered_map<SyncVar, VectorClock>;

/// Every oracle key is present in \p Map with an equal clock, and the
/// sizes agree.
void expectSameContents(SyncClockMap &Map, const Oracle &Want) {
  ASSERT_EQ(Map.size(), Want.size());
  for (const auto &[Key, Clock] : Want) {
    const VectorClock *Got = Map.find(Key);
    ASSERT_NE(Got, nullptr) << Key;
    EXPECT_EQ(*Got, Clock) << Key;
  }
}

/// Keys that stress the probe sequence: 0 and ~0, page-aligned and
/// MiB-aligned strides, keys that agree in their low 32 bits, tagged
/// SyncVars, and plain random ones.
SyncVar adversarialKey(SplitMix64 &Rng) {
  const uint64_t K = Rng.nextBelow(64);
  switch (Rng.nextBelow(7)) {
  case 0:
    return Rng.nextBelow(2) ? 0 : ~uint64_t(0);
  case 1:
    return K << 12;
  case 2:
    return K << 20;
  case 3:
    return (K << 32) | 0x1234;
  case 4:
    return makeSyncVar(SyncObjectKind::Page, K);
  case 5:
    return ~(K << 12);
  default:
    return Rng.next();
  }
}

TEST(SyncClockMapTest, MatchesUnorderedMapOnSeededOperations) {
  for (uint64_t Seed = 1; Seed != 41; ++Seed) {
    SCOPED_TRACE(testing::Message() << "seed " << Seed);
    SplitMix64 Rng(Seed);
    SyncClockMap Map;
    Oracle Want;
    for (int Op = 0; Op != 2000; ++Op) {
      const SyncVar S = adversarialKey(Rng);
      if (Rng.nextBelow(3) == 0) {
        const VectorClock *Got = Map.find(S);
        const auto It = Want.find(S);
        ASSERT_EQ(Got != nullptr, It != Want.end()) << S;
        if (Got) {
          ASSERT_EQ(*Got, It->second) << S;
        }
        continue;
      }
      const auto T = static_cast<ThreadId>(Rng.nextBelow(6));
      VectorClock &Clock = Map.ref(S);
      ASSERT_EQ(Clock, Want[S]) << S;
      if (Rng.nextBelow(2)) {
        Clock.tick(T);
        Want[S].tick(T);
      } else {
        VectorClock Other;
        Other.set(T, Rng.nextBelow(100));
        Clock.joinWith(Other);
        Want[S].joinWith(Other);
      }
    }
    expectSameContents(Map, Want);
    EXPECT_LE(Map.size() * 2, Map.slotCount());
  }
}

TEST(SyncClockMapTest, GrowsFromOneToTensOfThousandsOfKeys) {
  SplitMix64 Rng(0x9e0);
  SyncClockMap Map;
  Oracle Want;
  std::vector<SyncVar> Keys;
  for (uint64_t I = 0; I != 12000; ++I) {
    // Page-aligned keys sharing their low 12 bits: the identity hash of
    // std::hash would pile them into every 4096th bucket.
    const SyncVar S = I % 2 ? (I << 12) : makeSyncVar(SyncObjectKind::Page, I);
    const size_t SlotsBefore = Map.slotCount();
    Map.ref(S).set(static_cast<ThreadId>(I % 5), I + 1);
    Want[S].set(static_cast<ThreadId>(I % 5), I + 1);
    Keys.push_back(S);
    ASSERT_EQ(Map.size(), I + 1);
    ASSERT_LE(Map.size() * 2, Map.slotCount()) << "load factor above 1/2";
    if (Map.slotCount() != SlotsBefore) {
      // Just rehashed: every earlier key is still where find() looks.
      for (const SyncVar K : Keys)
        ASSERT_EQ(*Map.find(K), Want[K]) << K;
    } else {
      const SyncVar K = Keys[Rng.nextBelow(Keys.size())];
      ASSERT_EQ(*Map.find(K), Want[K]) << K;
    }
  }
  EXPECT_GE(Map.slotCount(), 2 * Map.size());
  expectSameContents(Map, Want);
}

TEST(SyncClockMapTest, FindAfterRefAndMissesThatCreateNothing) {
  SyncClockMap Map;
  // Key 0 and ~0 on a map with no slots yet.
  EXPECT_EQ(Map.find(0), nullptr);
  EXPECT_EQ(Map.find(~uint64_t(0)), nullptr);
  EXPECT_EQ(Map.size(), 0u);

  VectorClock &Zero = Map.ref(0);
  EXPECT_EQ(Zero, VectorClock()) << "a new SyncVar's clock is all zero";
  Zero.set(2, 7);
  ASSERT_NE(Map.find(0), nullptr);
  EXPECT_EQ(Map.find(0)->get(2), 7u);
  EXPECT_EQ(Map.find(~uint64_t(0)), nullptr) << "a miss creates nothing";
  EXPECT_EQ(Map.size(), 1u);

  Map.ref(~uint64_t(0)).set(1, 3);
  EXPECT_EQ(Map.find(0)->get(2), 7u);
  EXPECT_EQ(Map.find(~uint64_t(0))->get(1), 3u);
  EXPECT_EQ(&Map.ref(0), Map.find(0)) << "ref() of a present key finds it";
  EXPECT_EQ(Map.size(), 2u);
}

} // namespace
