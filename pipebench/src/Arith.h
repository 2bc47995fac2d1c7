//===-- pipebench/src/Arith.h - Benchmark arithmetic -----------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure arithmetic behind every number pipebench prints: medians and
/// the percentile rule, span self-times, the bases of its ratios, and the
/// host-fingerprint check that guards comparisons. Header-only and free of
/// library dependencies so tests/ArithTest.cpp can pin each rule down.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_ARITH_H
#define PIPEBENCH_ARITH_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pipebench {

/// Median with the midpoint rule for even counts (Python's
/// statistics.median). 0 for an empty sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// 1-based nearest rank of percentile \p Q (0 < Q <= 100) in \p N samples.
inline size_t nearestRank(size_t N, double Q) {
  const double Rank = std::ceil(Q / 100.0 * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(Rank), 1, N);
}

/// Nearest-rank percentile \p Q of \p V. 0 for an empty sample.
inline double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return V[nearestRank(V.size(), Q) - 1];
}

/// Samples strictly above the nearest-rank position of percentile \p Q.
inline size_t samplesBeyond(size_t N, double Q) {
  return N == 0 ? 0 : N - nearestRank(N, Q);
}

/// Minimum number of samples beyond a reported tail percentile.
constexpr size_t MinSamplesBeyond = 10;

/// True if \p N samples support reporting percentile \p Q: at least
/// MinSamplesBeyond samples lie beyond it.
inline bool supportsPercentile(size_t N, double Q) {
  return samplesBeyond(N, Q) >= MinSamplesBeyond;
}

/// The tail percentile to report for \p N samples: the highest of the
/// usual candidates with at least MinSamplesBeyond samples beyond it, or
/// nullopt when not even the median qualifies.
inline std::optional<double> highestSupportedPercentile(size_t N) {
  static const double Candidates[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0,
                                      50.0};
  for (double Q : Candidates)
    if (supportsPercentile(N, Q))
      return Q;
  return std::nullopt;
}

/// Half-open wall-clock interval [Begin, End) in nanoseconds.
struct Interval {
  uint64_t Begin = 0;
  uint64_t End = 0;
};

/// Length of the union of \p V (intervals may overlap, in any order).
inline uint64_t unionLength(std::vector<Interval> V) {
  std::sort(V.begin(), V.end(), [](const Interval &A, const Interval &B) {
    return A.Begin < B.Begin;
  });
  uint64_t Total = 0;
  uint64_t CurBegin = 0, CurEnd = 0;
  bool Open = false;
  for (const Interval &I : V) {
    if (I.End <= I.Begin)
      continue;
    if (Open && I.Begin <= CurEnd) {
      CurEnd = std::max(CurEnd, I.End);
      continue;
    }
    if (Open)
      Total += CurEnd - CurBegin;
    CurBegin = I.Begin;
    CurEnd = I.End;
    Open = true;
  }
  if (Open)
    Total += CurEnd - CurBegin;
  return Total;
}

/// One recorded span: a call into a layer, timed from the benchmark side.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span
  uint32_t Run = 0;    ///< iteration or session the span belongs to
  uint32_t Thread = 0; ///< dense benchmark-assigned thread index
  const char *Name = "";
  uint64_t Begin = 0; ///< ns since the recorder's epoch
  uint64_t End = 0;

  uint64_t duration() const { return End > Begin ? End - Begin : 0; }
};

/// Self time of every span (same order as \p Spans): its duration minus
/// the union of its children's intervals clipped to it. Children may run
/// on other threads and overlap each other; the union counts each covered
/// instant once.
inline std::vector<uint64_t> selfTimes(const std::vector<Span> &Spans) {
  std::map<uint64_t, size_t> IndexOf;
  for (size_t I = 0; I != Spans.size(); ++I)
    IndexOf[Spans[I].Id] = I;
  std::vector<std::vector<Interval>> Children(Spans.size());
  for (const Span &S : Spans) {
    auto It = IndexOf.find(S.Parent);
    if (S.Parent == 0 || It == IndexOf.end())
      continue;
    const Span &P = Spans[It->second];
    const uint64_t B = std::max(S.Begin, P.Begin);
    const uint64_t E = std::min(S.End, P.End);
    if (E > B)
      Children[It->second].push_back({B, E});
  }
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const uint64_t Covered = unionLength(std::move(Children[I]));
    const uint64_t D = Spans[I].duration();
    Self[I] = D > Covered ? D - Covered : 0;
  }
  return Self;
}

/// Wall-clock self time of each span name (stage): the union of that
/// name's spans minus the union of their children's intervals, each
/// clipped to its parent. Unlike summing selfTimes(), spans of one stage
/// running concurrently on several threads count each instant once, so
/// the stages of a span tree add up to at most its wall time.
inline std::map<std::string, uint64_t>
wallSelfByName(const std::vector<Span> &Spans) {
  std::map<uint64_t, size_t> IndexOf;
  for (size_t I = 0; I != Spans.size(); ++I)
    IndexOf[Spans[I].Id] = I;
  std::map<std::string, std::vector<Interval>> Own, Children;
  for (const Span &S : Spans) {
    Own[S.Name].push_back({S.Begin, S.End});
    auto It = IndexOf.find(S.Parent);
    if (S.Parent == 0 || It == IndexOf.end())
      continue;
    const Span &P = Spans[It->second];
    const uint64_t B = std::max(S.Begin, P.Begin);
    const uint64_t E = std::min(S.End, P.End);
    if (E > B)
      Children[P.Name].push_back({B, E});
  }
  std::map<std::string, uint64_t> Out;
  for (auto &[Name, V] : Own) {
    const uint64_t Total = unionLength(std::move(V));
    const uint64_t Covered = unionLength(std::move(Children[Name]));
    Out[Name] = Total > Covered ? Total - Covered : 0;
  }
  return Out;
}

/// \p Num / \p Base, or nullopt when the base is not a positive finite
/// number (a ratio without a valid base is an error, never a 0 or inf).
inline std::optional<double> ratio(double Num, double Base) {
  if (!(Base > 0.0) || !std::isfinite(Base) || !std::isfinite(Num))
    return std::nullopt;
  return Num / Base;
}

/// record_slowdown: the instrumented recording time over an
/// uninstrumented (Baseline mode, null sink) run of the same workload and
/// seed.
inline std::optional<double> recordSlowdown(double RecordS,
                                            double BaselineS) {
  return ratio(RecordS, BaselineS);
}

/// detection_rate: static races found over static races found by the
/// reference run (a full-logging run of the same workload and seed, or
/// batch detection over the same bytes).
inline std::optional<double> detectionRate(size_t Found, size_t Reference) {
  return ratio(static_cast<double>(Found), static_cast<double>(Reference));
}

/// Host and build identity stamped into every result.
using Fingerprint = std::map<std::string, std::string>;

/// Fields on which two fingerprints differ, as "key: a != b" lines. A
/// field missing on one side counts as a difference. Results whose
/// fingerprints differ must not be compared.
inline std::vector<std::string> fingerprintMismatches(const Fingerprint &A,
                                                      const Fingerprint &B) {
  std::vector<std::string> Out;
  auto Value = [](const Fingerprint &F, const std::string &Key) {
    auto It = F.find(Key);
    return It == F.end() ? std::string("<missing>") : It->second;
  };
  std::map<std::string, bool> Keys;
  for (const auto &[K, V] : A)
    Keys[K] = true;
  for (const auto &[K, V] : B)
    Keys[K] = true;
  for (const auto &[K, Unused] : Keys) {
    const std::string VA = Value(A, K), VB = Value(B, K);
    if (VA != VB)
      Out.push_back(K + ": " + VA + " != " + VB);
  }
  return Out;
}

} // namespace pipebench

#endif // PIPEBENCH_ARITH_H
