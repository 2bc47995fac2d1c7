//===-- detector/RaceReport.h - Race aggregation ----------------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregation of detected races. Following §5.3, every dynamic race
/// sighting is grouped by the unordered pair of static instructions
/// (program counters) involved; each group is a *static data race*, which
/// roughly corresponds to one synchronization bug. Static races are
/// classified rare/frequent by how often they manifest per million memory
/// operations (§5.3.1).
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_DETECTOR_RACEREPORT_H
#define LITERACE_DETECTOR_RACEREPORT_H

#include "runtime/Ids.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace literace {

class FunctionRegistry;

/// One dynamic observation of a race: two conflicting, unordered accesses.
struct RaceSighting {
  Pc FirstPc = 0;
  Pc SecondPc = 0;
  uint64_t Addr = 0;
  ThreadId FirstTid = 0;
  ThreadId SecondTid = 0;
  bool FirstIsWrite = false;
  bool SecondIsWrite = false;
  /// Global replay sequence number of the access that completed the pair
  /// (the later of the two). Sightings recorded by one replay carry
  /// nondecreasing indices.
  uint64_t EventIndex = 0;
};

/// Unordered pair of access sites identifying a static race.
using StaticRaceKey = std::pair<Pc, Pc>;

/// Builds the canonical (sorted) key for a pair of access sites.
inline StaticRaceKey makeStaticRaceKey(Pc A, Pc B) {
  return A <= B ? StaticRaceKey{A, B} : StaticRaceKey{B, A};
}

/// Aggregated information about one static race.
struct StaticRace {
  StaticRaceKey Key;
  /// Number of dynamic sightings.
  uint64_t DynamicCount = 0;
  /// Address of the first sighting (for triage).
  uint64_t ExampleAddr = 0;
  /// Replay sequence number of the first sighting; with ExampleAddr it
  /// makes aggregation independent of recording order.
  uint64_t FirstEventIndex = 0;
  /// True if any sighting was write/write.
  bool SawWriteWrite = false;
};

/// Collects race sightings and aggregates them into static races.
class RaceReport {
public:
  /// The §5.3.1 threshold: a static race is rare if it manifested fewer
  /// than this many times per million memory operations.
  static constexpr double RarePerMillionMemOps = 3.0;

  /// Records one dynamic sighting.
  void record(const RaceSighting &Sighting);

  /// Number of distinct static races.
  size_t numStaticRaces() const { return Races.size(); }

  /// Total dynamic sightings.
  uint64_t numDynamicSightings() const { return TotalSightings; }

  /// True if the pair (A, B) was reported (order-insensitive).
  bool contains(Pc A, Pc B) const {
    return Races.count(makeStaticRaceKey(A, B)) != 0;
  }

  /// All static races in the canonical report order: an explicit stable
  /// sort by (site pair, first event index). Every consumer that renders
  /// or compares reports goes through this, so output never depends on
  /// container iteration order.
  std::vector<StaticRace> staticRaces() const;

  /// Static races with neither site in \p SuppressedSites. The paper
  /// notes that some detected races are benign or intentional (Table 4's
  /// caption, §3.4); suppressions let a user retire triaged sites so
  /// reruns surface only new findings.
  std::vector<StaticRace>
  staticRacesExcluding(const std::set<Pc> &SuppressedSites) const;

  /// The set of static race keys (for detection-rate comparisons).
  std::set<StaticRaceKey> keys() const;

  /// The set of addresses any sighting occurred on (used to compare
  /// detector backends, which agree on racy addresses but may pick
  /// different witness pc pairs).
  const std::set<uint64_t> &racyAddresses() const {
    return SightingAddresses;
  }

  /// True if \p Race is rare for an execution of \p TotalMemOps logged
  /// memory operations (§5.3.1: fewer than 3 manifestations per million).
  static bool isRare(const StaticRace &Race, uint64_t TotalMemOps);

  /// Splits keys() into (rare, frequent) for an execution of
  /// \p TotalMemOps memory operations.
  std::pair<std::set<StaticRaceKey>, std::set<StaticRaceKey>>
  splitRareFrequent(uint64_t TotalMemOps) const;

  /// Human-readable multi-line summary; resolves function names through
  /// \p Registry if provided.
  std::string describe(const FunctionRegistry *Registry = nullptr) const;

private:
  std::map<StaticRaceKey, StaticRace> Races;
  std::set<uint64_t> SightingAddresses;
  uint64_t TotalSightings = 0;
};

} // namespace literace

#endif // LITERACE_DETECTOR_RACEREPORT_H
