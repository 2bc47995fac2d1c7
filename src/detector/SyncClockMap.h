//===-- detector/SyncClockMap.h - Per-SyncVar vector clocks -----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The happens-before detectors' table from SyncVar to vector clock.
///
/// LiteRace logs every synchronization operation but samples memory
/// operations, so a sampled trace is mostly sync events on a handful of
/// SyncVars (26 in the httpd-1 and channel-stdlib recordings), and every
/// one of them looks its SyncVar up here. The table is built for that:
///
///   - A power-of-two, open-addressed table of {key, index} slots with
///     linear probing from mix64(key), kept at most half full, so a
///     lookup is one hash and (almost always) one slot compare. Mixing
///     first keeps page-aligned SyncVars (allocation events, §4.3) and
///     keys with equal low bits from clustering.
///   - The clocks live in one dense vector that the slots index into. A
///     rehash moves 16-byte slots, never a clock, and the clocks of a
///     small table share a few cache lines.
///
/// A reference returned by find() or ref() is invalidated by any later
/// ref(), which may grow the dense vector. Callers use it at once.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_DETECTOR_SYNCCLOCKMAP_H
#define LITERACE_DETECTOR_SYNCCLOCKMAP_H

#include "detector/VectorClock.h"
#include "runtime/Ids.h"
#include "support/Compiler.h"
#include "support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace literace {

class SyncClockMap {
public:
  /// The clock of \p S, or null if \p S has none yet.
  VectorClock *find(SyncVar S) {
    const Slot *At = probe(S);
    if (!At || At->Index == NoIndex)
      return nullptr;
    return &Clocks[At->Index];
  }

  /// The clock of \p S, created empty (all components zero) if \p S has
  /// none yet.
  VectorClock &ref(SyncVar S) {
    Slot *At = probe(S);
    if (!At || At->Index == NoIndex)
      At = insert(S);
    return Clocks[At->Index];
  }

  /// Number of SyncVars with a clock.
  size_t size() const { return Clocks.size(); }

  /// Number of slots in the open-addressed table (exposed for tests).
  size_t slotCount() const { return Slots.size(); }

private:
  static constexpr uint32_t NoIndex = ~uint32_t(0);

  struct Slot {
    SyncVar Key = 0;
    uint32_t Index = NoIndex; // Into Clocks; NoIndex marks an empty slot.
  };

  /// The slot holding \p S, or the empty slot where it would go; null
  /// while the table has no slots.
  Slot *probe(SyncVar S) {
    if (Slots.empty())
      return nullptr;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = mix64(S) & Mask;; I = (I + 1) & Mask) {
      Slot &At = Slots[I];
      if (At.Index == NoIndex || At.Key == S)
        return &At;
    }
  }

  /// Adds \p S (known absent) with an empty clock and returns its slot.
  LR_NOINLINE Slot *insert(SyncVar S) {
    // Load factor <= 1/2: a probe for a missing key ends at an empty
    // slot after ~1.5 slots on average.
    if ((Clocks.size() + 1) * 2 > Slots.size())
      rehash(Slots.empty() ? 16 : Slots.size() * 2);
    Slot *At = probe(S);
    assert(At->Index == NoIndex && "insert() of a present key");
    At->Key = S;
    At->Index = static_cast<uint32_t>(Clocks.size());
    Clocks.emplace_back();
    return At;
  }

  void rehash(size_t NewCount) {
    assert((NewCount & (NewCount - 1)) == 0 &&
           "slot count must stay a power of two");
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCount, Slot());
    for (const Slot &From : Old)
      if (From.Index != NoIndex)
        *probe(From.Key) = From;
  }

  std::vector<Slot> Slots;
  std::vector<VectorClock> Clocks;
};

} // namespace literace

#endif // LITERACE_DETECTOR_SYNCCLOCKMAP_H
