//===-- tests/SegmentedLogTest.cpp - v2 segmented format + salvage ----------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// The crash-consistency contract of the v2 segmented log
// (docs/ROBUSTNESS.md), checked exhaustively: round trips, truncation at
// EVERY byte offset, seeded bit flips, exact drop accounting, the
// detection subset property — races reported from a salvaged trace are a
// subset of the full-trace report — a seeded mutation differential
// of readTrace() against SegmentStreamDecoder, which share one frame
// loop — and readTrace()'s bounded read window: frames, damage and
// forged lengths at its edges, frames larger than it, and named pipes.
//
//===----------------------------------------------------------------------===//

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "detector/LogBuilder.h"
#include "runtime/CompressedLog.h"
#include "support/Crc32.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace literace;

namespace {

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + Name;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  if (!F)
    return Bytes;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return Bytes;
}

/// Makes \p Path hold exactly Data[0, Size): overwrites it in place, then
/// cuts it to \p Size. The sweeps below rewrite one file thousands of
/// times, and truncating it to zero on every open would free and
/// reallocate its blocks each time; on a filesystem mounted with
/// `discard` every such truncate waits on a synchronous block discard.
void writeFileBytes(const std::string &Path, const uint8_t *Data,
                    size_t Size) {
  const int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(Fd, 0) << Path;
  size_t Done = 0;
  while (Done < Size) {
    const ssize_t N = ::pwrite(Fd, Data + Done, Size - Done,
                               static_cast<off_t>(Done));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Done += static_cast<size_t>(N);
  }
  const bool Cut = ::ftruncate(Fd, static_cast<off_t>(Size)) == 0;
  ::close(Fd);
  ASSERT_EQ(Done, Size) << Path;
  ASSERT_TRUE(Cut) << Path;
}

/// Writes \p T through a SegmentedFileSink in round-robin chunks of
/// \p ChunkEvents, so consecutive frames alternate between threads and a
/// truncation hurts everyone.
void writeSegmented(const Trace &T, const std::string &Path,
                    size_t ChunkEvents, bool Compress = false) {
  SegmentedFileSink::Options Opts;
  Opts.Compress = Compress;
  SegmentedFileSink Sink(Path, T.NumTimestampCounters, Opts);
  ASSERT_TRUE(Sink.ok());
  std::vector<size_t> Next(T.PerThread.size(), 0);
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid) {
      const auto &Stream = T.PerThread[Tid];
      if (Next[Tid] >= Stream.size())
        continue;
      const size_t N = std::min(ChunkEvents, Stream.size() - Next[Tid]);
      Sink.writeChunk(static_cast<ThreadId>(Tid),
                      Stream.data() + Next[Tid], N);
      Next[Tid] += N;
      Progress = true;
    }
  }
  ASSERT_TRUE(Sink.close());
}

/// A three-thread trace mixing proper synchronization (no race on X) with
/// unprotected sharing (races on Y and Z), plus enough sync traffic that
/// truncations land between sync operations.
Trace buildRacyTrace() {
  const SyncVar M = makeSyncVar(SyncObjectKind::Mutex, 1);
  const SyncVar N = makeSyncVar(SyncObjectKind::Mutex, 2);
  LogBuilder B(16);
  B.onThread(0).threadStart();
  B.onThread(1).threadStart();
  B.onThread(2).threadStart();
  for (unsigned I = 0; I != 12; ++I) {
    B.onThread(0).lock(M).write(0x100, 10).unlock(M).write(0x200 + I, 11);
    B.onThread(1).lock(M).write(0x100, 20).unlock(M).write(0x200 + I, 21);
    B.onThread(2).lock(N).read(0x300, 30).unlock(N).write(0x400, 31);
    B.onThread(0).read(0x400, 12);
  }
  B.onThread(0).threadEnd();
  B.onThread(1).threadEnd();
  B.onThread(2).threadEnd();
  return B.build();
}

TEST(SegmentedLogTest, RoundTripsRawPayloads) {
  std::string Path = tempPath("seg_roundtrip.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Ok) << R.Error;
  EXPECT_EQ(R.Stats.Format, TraceFormat::V2Segmented);
  EXPECT_TRUE(R.Stats.CleanShutdown);
  EXPECT_EQ(R.Stats.SegmentsDropped, 0u);
  EXPECT_EQ(R.T.NumTimestampCounters, T.NumTimestampCounters);
  ASSERT_EQ(R.T.PerThread.size(), T.PerThread.size());
  for (size_t I = 0; I != T.PerThread.size(); ++I) {
    ASSERT_EQ(R.T.PerThread[I].size(), T.PerThread[I].size()) << I;
    for (size_t J = 0; J != T.PerThread[I].size(); ++J) {
      EXPECT_EQ(R.T.PerThread[I][J].Addr, T.PerThread[I][J].Addr);
      EXPECT_EQ(R.T.PerThread[I][J].Ts, T.PerThread[I][J].Ts);
      EXPECT_EQ(R.T.PerThread[I][J].Kind, T.PerThread[I][J].Kind);
    }
  }
  std::remove(Path.c_str());
}

TEST(SegmentedLogTest, RoundTripsCompressedPayloads) {
  std::string Path = tempPath("seg_roundtrip_z.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8, /*Compress=*/true);
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Ok) << R.Error;
  ASSERT_EQ(R.T.totalEvents(), T.totalEvents());
  for (size_t I = 0; I != T.PerThread.size(); ++I)
    ASSERT_EQ(R.T.PerThread[I].size(), T.PerThread[I].size()) << I;
  std::remove(Path.c_str());
}

TEST(SegmentedLogTest, AbandonKeepsEverythingButTheFooter) {
  std::string Path = tempPath("seg_abandon.bin");
  Trace T = buildRacyTrace();
  {
    SegmentedFileSink Sink(Path, T.NumTimestampCounters);
    ASSERT_TRUE(Sink.ok());
    for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid)
      Sink.writeChunk(static_cast<ThreadId>(Tid), T.PerThread[Tid].data(),
                      T.PerThread[Tid].size());
    Sink.abandon(); // Simulated crash: no footer.
  }
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged);
  EXPECT_FALSE(R.Stats.CleanShutdown);
  EXPECT_FALSE(R.Stats.TruncatedTail);
  EXPECT_EQ(R.Stats.SegmentsDropped, 0u);
  EXPECT_EQ(R.T.totalEvents(), T.totalEvents());
  std::remove(Path.c_str());
}

TEST(SegmentedLogTest, ScanSegmentsInventoriesEveryFrame) {
  std::string Path = tempPath("seg_scan.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  std::vector<SegmentInfo> Inventory = scanSegments(Path);
  ASSERT_GE(Inventory.size(), 2u);
  uint64_t Events = 0;
  for (const SegmentInfo &S : Inventory) {
    EXPECT_TRUE(S.HeaderOk);
    EXPECT_TRUE(S.PayloadOk);
    if (!S.IsFooter)
      Events += S.EventCount;
  }
  EXPECT_TRUE(Inventory.back().IsFooter);
  EXPECT_EQ(Events, T.totalEvents());
  std::remove(Path.c_str());
}

// The heart of the robustness contract: cut the file at EVERY byte
// offset. The salvage reader must never crash, recovered events must be
// monotone in the cut position, and drop accounting must be exact: a cut
// strictly inside frame k recovers frames 0..k-1 and reports exactly one
// dropped segment with a truncated tail; a cut on a frame boundary drops
// nothing and reports only the missing clean-shutdown marker.
TEST(SegmentedLogTest, TruncationAtEveryOffsetIsExactAndMonotone) {
  std::string Path = tempPath("seg_full.bin");
  std::string CutPath = tempPath("seg_cut.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  const std::vector<uint8_t> Full = readFileBytes(Path);
  ASSERT_FALSE(Full.empty());

  // Frame boundaries and per-frame cumulative event counts, from the
  // (trusted, just-written) inventory.
  std::vector<SegmentInfo> Inventory = scanSegments(Path);
  std::vector<uint64_t> FrameStart, EventsBefore;
  uint64_t Cumulative = 0;
  for (const SegmentInfo &S : Inventory) {
    FrameStart.push_back(S.Offset);
    EventsBefore.push_back(Cumulative);
    if (!S.IsFooter)
      Cumulative += S.EventCount;
  }
  FrameStart.push_back(Full.size());
  EventsBefore.push_back(Cumulative);

  uint64_t PrevRecovered = 0;
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    writeFileBytes(CutPath, Full.data(), Cut);
    TraceReadResult R = readTrace(CutPath);
    const uint64_t Recovered = R.Stats.EventsRecovered;
    EXPECT_GE(Recovered, PrevRecovered) << "cut=" << Cut;
    PrevRecovered = Recovered;
    if (Cut < 16) { // Inside the file header: nothing recoverable.
      EXPECT_EQ(R.Status, TraceReadStatus::Unreadable) << "cut=" << Cut;
      continue;
    }
    ASSERT_TRUE(R.readable()) << "cut=" << Cut;
    // Find the frame this cut lands in.
    const size_t K =
        static_cast<size_t>(std::upper_bound(FrameStart.begin(),
                                             FrameStart.end(), Cut) -
                            FrameStart.begin()) -
        1;
    EXPECT_EQ(Recovered, EventsBefore[K]) << "cut=" << Cut;
    if (Cut == Full.size()) {
      EXPECT_EQ(R.Status, TraceReadStatus::Ok);
    } else if (Cut == FrameStart[K]) { // Exactly on a boundary.
      EXPECT_EQ(R.Stats.SegmentsDropped, 0u) << "cut=" << Cut;
      EXPECT_FALSE(R.Stats.TruncatedTail) << "cut=" << Cut;
      EXPECT_FALSE(R.Stats.CleanShutdown) << "cut=" << Cut;
    } else { // Strictly inside frame K.
      EXPECT_EQ(R.Stats.SegmentsDropped, 1u) << "cut=" << Cut;
      EXPECT_TRUE(R.Stats.TruncatedTail) << "cut=" << Cut;
    }
  }
  std::remove(Path.c_str());
  std::remove(CutPath.c_str());
}

TEST(SegmentedLogTest, TruncationOfCompressedPayloadsStaysMonotone) {
  std::string Path = tempPath("segz_full.bin");
  std::string CutPath = tempPath("segz_cut.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8, /*Compress=*/true);
  const std::vector<uint8_t> Full = readFileBytes(Path);
  uint64_t PrevRecovered = 0;
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    writeFileBytes(CutPath, Full.data(), Cut);
    TraceReadResult R = readTrace(CutPath);
    EXPECT_GE(R.Stats.EventsRecovered, PrevRecovered) << "cut=" << Cut;
    PrevRecovered = R.Stats.EventsRecovered;
  }
  EXPECT_EQ(PrevRecovered, T.totalEvents());
  std::remove(Path.c_str());
  std::remove(CutPath.c_str());
}

// Single-bit damage anywhere past the file header is caught by one of the
// three CRCs (frame header, payload, footer) and costs at most the
// damaged frame; everything else is still recovered.
TEST(SegmentedLogTest, BitFlipsArePinpointedByChecksums) {
  std::string Path = tempPath("seg_flip_full.bin");
  std::string FlipPath = tempPath("seg_flip.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  const std::vector<uint8_t> Full = readFileBytes(Path);
  const uint64_t FullEvents = T.totalEvents();
  const uint64_t DataFrames = scanSegments(Path).size() - 1;
  const uint64_t MaxFrameEvents = 8;
  for (size_t At = 16; At < Full.size(); At += 7) {
    std::vector<uint8_t> Damaged = Full;
    Damaged[At] ^= static_cast<uint8_t>(1u << (At % 8));
    writeFileBytes(FlipPath, Damaged.data(), Damaged.size());
    TraceReadResult R = readTrace(FlipPath);
    ASSERT_TRUE(R.readable()) << "flip at " << At;
    EXPECT_EQ(R.Status, TraceReadStatus::Salvaged) << "flip at " << At;
    EXPECT_GE(R.Stats.SegmentsDropped, 1u) << "flip at " << At;
    EXPECT_GE(R.Stats.EventsRecovered + MaxFrameEvents, FullEvents)
        << "flip at " << At;
    EXPECT_GE(R.Stats.SegmentsRecovered + 2, DataFrames) << "flip at " << At;
  }
  std::remove(Path.c_str());
  std::remove(FlipPath.c_str());
}

TEST(SegmentedLogTest, DamagedFileHeaderIsRecoveredByScanning) {
  std::string Path = tempPath("seg_badheader.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  std::vector<uint8_t> Bytes = readFileBytes(Path);
  for (size_t I = 0; I != 16; ++I) // Shred the file header.
    Bytes[I] = 0xff;
  writeFileBytes(Path, Bytes.data(), Bytes.size());
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged);
  EXPECT_TRUE(R.Stats.SalvagedHeader);
  EXPECT_EQ(R.Stats.EventsRecovered, T.totalEvents());
  std::remove(Path.c_str());
}

TEST(SegmentedLogTest, StrictModeRefusesAnyImperfection) {
  std::string Path = tempPath("seg_strict.bin");
  Trace T = buildRacyTrace();
  {
    SegmentedFileSink Sink(Path, T.NumTimestampCounters);
    Sink.writeChunk(0, T.PerThread[0].data(), T.PerThread[0].size());
    Sink.abandon();
  }
  TraceReadOptions Strict;
  Strict.Salvage = false;
  TraceReadResult R = readTrace(Path, Strict);
  EXPECT_EQ(R.Status, TraceReadStatus::Unreadable);
  EXPECT_TRUE(R.T.PerThread.empty());
  EXPECT_FALSE(R.Error.empty());
  std::remove(Path.c_str());
}

// The retired v1 formats (an unframed chunk stream and whole-file
// per-thread compressed streams) are refused by their headers: Unreadable
// with a message to re-record, not scanned for frames. Built by hand, as
// no sink writes them any more.
TEST(SegmentedLogTest, RetiredV1FilesReadAsUnreadable) {
  const Trace T = buildRacyTrace();
  const std::vector<EventRecord> &Stream = T.PerThread[0];
  const auto Append = [](std::vector<uint8_t> &Out, const void *Data,
                         size_t Size) {
    const auto *P = static_cast<const uint8_t *>(Data);
    Out.insert(Out.end(), P, P + Size);
  };
  // v1 raw: FileHeader with version 1, then {tid, count} + records.
  std::vector<uint8_t> RawBytes;
  const uint64_t FileMagic = 0x4C695465526163ULL;
  const uint32_t RawHeader[2] = {1, T.NumTimestampCounters};
  const uint32_t Chunk[2] = {0, static_cast<uint32_t>(Stream.size())};
  Append(RawBytes, &FileMagic, sizeof(FileMagic));
  Append(RawBytes, RawHeader, sizeof(RawHeader));
  Append(RawBytes, Chunk, sizeof(Chunk));
  Append(RawBytes, Stream.data(), Stream.size() * sizeof(EventRecord));
  // v1 compressed: its own magic, counters, thread count, then one
  // size-prefixed encoded stream per thread.
  std::vector<uint8_t> CompressedBytes;
  const uint64_t CompressedMagic = 0x4C52436F6D7001ULL;
  const uint32_t CompressedHeader[2] = {T.NumTimestampCounters, 1};
  std::vector<uint8_t> Encoded;
  compressEventStream(Stream, Encoded);
  const uint64_t EncodedSize = Encoded.size();
  Append(CompressedBytes, &CompressedMagic, sizeof(CompressedMagic));
  Append(CompressedBytes, CompressedHeader, sizeof(CompressedHeader));
  Append(CompressedBytes, &EncodedSize, sizeof(EncodedSize));
  Append(CompressedBytes, Encoded.data(), Encoded.size());

  const std::string Path = tempPath("v1_retired.bin");
  for (const std::vector<uint8_t> *Bytes : {&RawBytes, &CompressedBytes}) {
    const std::string Where = Bytes == &RawBytes ? "v1 raw" : "v1 compressed";
    writeFileBytes(Path, Bytes->data(), Bytes->size());
    const TraceReadResult R = readTrace(Path);
    EXPECT_EQ(R.Status, TraceReadStatus::Unreadable) << Where;
    EXPECT_EQ(R.Stats.Format, TraceFormat::Unknown) << Where;
    EXPECT_TRUE(R.T.PerThread.empty()) << Where;
    EXPECT_NE(R.Error.find("v1 trace format"), std::string::npos)
        << Where << ": " << R.Error;
    EXPECT_NE(R.Error.find("re-record"), std::string::npos)
        << Where << ": " << R.Error;
  }
  std::remove(Path.c_str());
}

// The detection subset property (docs/ROBUSTNESS.md): analyzing a
// salvaged prefix with gap-tolerant replay reports a SUBSET of the
// full-trace races — coverage loss may hide races but never invents
// them. Checked against every third truncation offset, with the HB and
// FastTrack backends agreeing on every salvaged trace.
TEST(SegmentedLogTest, SalvagedDetectionReportsASubsetOfFullReport) {
  std::string Path = tempPath("seg_subset_full.bin");
  std::string CutPath = tempPath("seg_subset_cut.bin");
  Trace T = buildRacyTrace();
  writeSegmented(T, Path, 4);
  const std::vector<uint8_t> Full = readFileBytes(Path);

  RaceReport FullReport;
  ASSERT_TRUE(detectRaces(T, FullReport));
  const std::set<StaticRaceKey> FullKeys = FullReport.keys();
  ASSERT_GT(FullKeys.size(), 0u) << "need races for a subset property";

  bool SawNonEmptySalvagedReport = false;
  for (size_t Cut = 16; Cut <= Full.size(); Cut += 3) {
    writeFileBytes(CutPath, Full.data(), Cut);
    TraceReadResult R = readTrace(CutPath);
    ASSERT_TRUE(R.readable()) << "cut=" << Cut;
    ReplayOptions Replay;
    Replay.AllowTimestampGaps = true;
    RaceReport HB, FT;
    ASSERT_TRUE(detectRaces(R.T, HB, Replay)) << "cut=" << Cut;
    ASSERT_TRUE(detectRacesFastTrack(R.T, FT, Replay)) << "cut=" << Cut;
    const std::set<StaticRaceKey> HBKeys = HB.keys();
    EXPECT_TRUE(std::includes(FullKeys.begin(), FullKeys.end(),
                              HBKeys.begin(), HBKeys.end()))
        << "cut=" << Cut << ": salvaged report is not a subset";
    EXPECT_EQ(HBKeys, FT.keys()) << "cut=" << Cut;
    if (!HBKeys.empty())
      SawNonEmptySalvagedReport = true;
  }
  // The property must not hold vacuously: plenty of prefixes still
  // contain detectable races.
  EXPECT_TRUE(SawNonEmptySalvagedReport);
  std::remove(Path.c_str());
  std::remove(CutPath.c_str());
}

/// Applies one SplitMix64-chosen mutation to a v2 file whose intact
/// frames are \p Frames: a few bit flips, a truncation, a splice (a
/// frame's bytes pasted over a random offset), or a frame duplicated in
/// place.
void mutateOnce(std::vector<uint8_t> &Bytes,
                const std::vector<SegmentInfo> &Frames, SplitMix64 &Rng) {
  if (Bytes.empty())
    return;
  const SegmentInfo &F = Frames[Rng.nextBelow(Frames.size())];
  const size_t FrameBytes = 28 + F.PayloadBytes;
  std::vector<uint8_t> Frame;
  if (F.Offset + FrameBytes <= Bytes.size())
    Frame.assign(Bytes.begin() + F.Offset,
                 Bytes.begin() + F.Offset + FrameBytes);
  switch (Rng.nextBelow(4)) {
  case 0: // bit flips
    for (uint64_t N = 1 + Rng.nextBelow(4); N; --N)
      Bytes[Rng.nextBelow(Bytes.size())] ^=
          static_cast<uint8_t>(1u << Rng.nextBelow(8));
    break;
  case 1: // truncation
    Bytes.resize(Rng.nextBelow(Bytes.size()));
    break;
  case 2: { // splice: paste a frame over a random offset
    const size_t At = Rng.nextBelow(Bytes.size());
    Bytes.resize(std::max(Bytes.size(), At + Frame.size()));
    std::copy(Frame.begin(), Frame.end(), Bytes.begin() + At);
    break;
  }
  default: // duplicate a frame right after itself
    Bytes.insert(Bytes.begin() + std::min(F.Offset + FrameBytes,
                                          Bytes.size()),
                 Frame.begin(), Frame.end());
    break;
  }
}

/// Feeds \p Bytes to a SegmentStreamDecoder in random piece sizes (from
/// single bytes to more than a frame) and reassembles per-thread streams.
SegmentStreamDecoder
decodeInPieces(const std::vector<uint8_t> &Bytes, SplitMix64 &Rng,
               std::vector<std::vector<EventRecord>> &Out) {
  SegmentStreamDecoder D;
  for (size_t At = 0; At < Bytes.size();) {
    const uint64_t MaxPiece = Rng.nextBelow(2) ? 16 : 600;
    const size_t Piece =
        std::min<size_t>(Bytes.size() - At, 1 + Rng.nextBelow(MaxPiece));
    D.feed(Bytes.data() + At, Piece);
    At += Piece;
  }
  D.finish();
  SegmentStreamDecoder::Chunk C;
  while (D.take(C)) {
    if (C.Tid >= Out.size())
      Out.resize(C.Tid + 1);
    Out[C.Tid].insert(Out[C.Tid].end(), C.Records.begin(), C.Records.end());
  }
  return D;
}

bool sameStreams(const std::vector<std::vector<EventRecord>> &A,
                 const std::vector<std::vector<EventRecord>> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t Tid = 0; Tid != A.size(); ++Tid)
    if (A[Tid].size() != B[Tid].size() ||
        (!A[Tid].empty() &&
         std::memcmp(A[Tid].data(), B[Tid].data(),
                     A[Tid].size() * sizeof(EventRecord)) != 0))
      return false;
  return true;
}

void expectSameStats(const TraceReadStats &A, const TraceReadStats &B,
                     const std::string &Where) {
  EXPECT_EQ(A.SegmentsRecovered, B.SegmentsRecovered) << Where;
  EXPECT_EQ(A.SegmentsDropped, B.SegmentsDropped) << Where;
  EXPECT_EQ(A.EventsRecovered, B.EventsRecovered) << Where;
  EXPECT_EQ(A.BytesDropped, B.BytesDropped) << Where;
  EXPECT_EQ(A.BytesRecovered, B.BytesRecovered) << Where;
  EXPECT_EQ(A.CleanShutdown, B.CleanShutdown) << Where;
  EXPECT_EQ(A.TruncatedTail, B.TruncatedTail) << Where;
  EXPECT_EQ(A.EventsDroppedByWriter, B.EventsDroppedByWriter) << Where;
  EXPECT_EQ(A.FooterTotalsMismatch, B.FooterTotalsMismatch) << Where;
  EXPECT_EQ(A.SalvagedHeader, B.SalvagedHeader) << Where;
  EXPECT_EQ(A.PerThreadDropped, B.PerThreadDropped) << Where;
}

// readTrace() and SegmentStreamDecoder run one frame loop; seeded
// mutations of small v2 and v2z files (bit flips, truncation, splices,
// duplicated frames) must leave them agreeing exactly on stats, on the
// per-thread record streams and on the per-thread dropped segments, and
// every byte must be accounted as recovered or dropped.
TEST(SegmentedLogTest, MutatedFilesDecodeIdenticallyInBothReaders) {
  const std::string Path = tempPath("seg_mutation_base.bin");
  const std::string MutPath = tempPath("seg_mutation.bin");
  const Trace T = buildRacyTrace();
  size_t Compared = 0;
  for (bool Compress : {false, true}) {
    writeSegmented(T, Path, 5, Compress);
    const std::vector<uint8_t> Clean = readFileBytes(Path);
    const std::vector<SegmentInfo> Frames = scanSegments(Path);
    ASSERT_GT(Frames.size(), 4u);
    for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
      SplitMix64 Rng(Seed * 0x9E3779B97F4A7C15ull + Compress);
      std::vector<uint8_t> Bytes = Clean;
      for (uint64_t N = 1 + Rng.nextBelow(3); N; --N)
        mutateOnce(Bytes, Frames, Rng);
      writeFileBytes(MutPath, Bytes.data(), Bytes.size());
      const std::string Where = std::string(Compress ? "v2z" : "v2") +
                                " seed " + std::to_string(Seed);

      const TraceReadResult R = readTrace(MutPath);
      std::vector<std::vector<EventRecord>> Streams;
      const SegmentStreamDecoder D = decodeInPieces(Bytes, Rng, Streams);
      const TraceReadStats &DS = D.stats();
      // The decoder accounts every byte it was fed, header included.
      EXPECT_EQ(DS.BytesRecovered + DS.BytesDropped +
                    (D.headerSeen() && !DS.SalvagedHeader ? 16 : 0),
                Bytes.size())
          << Where;
      // A header mutated into a retired v1 header is refused, and a file
      // with no intact frame is unreadable; the decoder has no file
      // header check to refuse with, so those two have nothing to agree
      // on.
      if (R.Stats.Format != TraceFormat::V2Segmented)
        continue;
      ++Compared;
      expectSameStats(R.Stats, DS, Where);
      EXPECT_TRUE(sameStreams(R.T.PerThread, Streams)) << Where;
      EXPECT_EQ(R.Stats.BytesRecovered + R.Stats.BytesDropped +
                    (R.Stats.SalvagedHeader ? 0 : 16),
                Bytes.size())
          << Where;
      EXPECT_EQ(R.Status == TraceReadStatus::Ok,
                Bytes == Clean || (!R.Stats.SegmentsDropped &&
                                   R.Stats.CleanShutdown &&
                                   !R.Stats.FooterTotalsMismatch))
          << Where;
    }
  }
  EXPECT_GT(Compared, 500u) << "too few mutations stayed v2 to compare";
  std::remove(Path.c_str());
  std::remove(MutPath.c_str());
}

/// A CRC-valid segment header (docs/LOG_FORMAT.md layout: magic,
/// encoding, flags, reserved, tid, event count, payload bytes, payload
/// CRC, header CRC).
std::vector<uint8_t> forgeHeader(uint8_t Encoding, uint32_t Tid,
                                 uint32_t EventCount, uint32_t PayloadBytes,
                                 uint32_t PayloadCrc) {
  std::vector<uint8_t> H(28);
  const uint32_t Magic = 0x4753524Cu;
  const uint32_t Fields[] = {Tid, EventCount, PayloadBytes, PayloadCrc};
  std::memcpy(H.data(), &Magic, 4);
  H[4] = Encoding;
  std::memcpy(H.data() + 8, Fields, sizeof(Fields));
  const uint32_t HeaderCrc = crc32c(H.data(), 24);
  std::memcpy(H.data() + 24, &HeaderCrc, 4);
  return H;
}

// A forged frame whose header checks out but claims a 64 MiB payload of
// 2^21 events (or an absurd event count) in a file of a few KiB must not
// drive a large allocation: PerThread is reserved only from frames whose
// records are actually in the file.
TEST(SegmentedLogTest, ForgedHugeFrameHeaderKeepsTheReservationBounded) {
  const std::string Path = tempPath("seg_forged.bin");
  const Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  const std::vector<uint8_t> Clean = readFileBytes(Path);
  const std::vector<SegmentInfo> Frames = scanSegments(Path);
  ASSERT_GT(Frames.size(), 3u);
  for (uint32_t EventCount : {1u << 21, 0xFFFFFFFFu}) {
    const std::vector<uint8_t> Forged =
        forgeHeader(/*Encoding=*/0, /*Tid=*/0, EventCount, 1u << 26,
                    0xDEADBEEFu);
    // Forge it between the second and third frames.
    std::vector<uint8_t> Bytes = Clean;
    Bytes.insert(Bytes.begin() + Frames[2].Offset, Forged.begin(),
                 Forged.end());
    writeFileBytes(Path, Bytes.data(), Bytes.size());

    const TraceReadResult R = readTrace(Path);
    ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << R.Error;
    EXPECT_TRUE(R.Stats.TruncatedTail);
    size_t Reserved = 0;
    for (const auto &Stream : R.T.PerThread)
      Reserved += Stream.capacity();
    EXPECT_LE(Reserved, Bytes.size() / sizeof(EventRecord));
    EXPECT_EQ(R.Stats.EventsRecovered,
              uint64_t{Frames[0].EventCount} + Frames[1].EventCount);
  }
  std::remove(Path.c_str());
}

/// A trace of \p Threads threads with \p Events memory records each:
/// bulk payload for the read-window tests, not a replayable execution.
Trace bulkTrace(size_t Threads, size_t Events) {
  SplitMix64 Rng(Threads * 1000003 + Events);
  Trace T;
  T.PerThread.resize(Threads);
  for (size_t Tid = 0; Tid != Threads; ++Tid)
    for (size_t I = 0; I != Events; ++I) {
      EventRecord R;
      R.Kind = Rng.nextBelow(2) ? EventKind::Read : EventKind::Write;
      R.Tid = static_cast<uint32_t>(Tid);
      R.Addr = 0x10000 + Rng.nextBelow(1u << 20) * 8;
      R.Pc = 0x400000 + Rng.nextBelow(4096);
      T.PerThread[Tid].push_back(R);
    }
  return T;
}

/// Checks \p R against a decode of \p Bytes with no read window: one
/// feed() of the whole file runs the shared frame loop over it in a
/// single pass.
void expectWholeBufferResult(const TraceReadResult &R,
                             const std::vector<uint8_t> &Bytes,
                             const std::string &Where) {
  SegmentStreamDecoder D;
  D.feed(Bytes.data(), Bytes.size());
  D.finish();
  std::vector<std::vector<EventRecord>> Streams;
  SegmentStreamDecoder::Chunk C;
  while (D.take(C)) {
    if (C.Tid >= Streams.size())
      Streams.resize(C.Tid + 1);
    Streams[C.Tid].insert(Streams[C.Tid].end(), C.Records.begin(),
                          C.Records.end());
  }
  EXPECT_EQ(R.Stats.Format, TraceFormat::V2Segmented) << Where;
  expectSameStats(R.Stats, D.stats(), Where);
  EXPECT_EQ(R.Stats.BytesRead, Bytes.size()) << Where;
  EXPECT_EQ(R.T.NumTimestampCounters, D.numTimestampCounters()) << Where;
  EXPECT_TRUE(sameStreams(R.T.PerThread, Streams)) << Where;
}

constexpr size_t Window = SegmentStreamDecoder::ReadWindowBytes;

// Multi-window files whose frame length divides no window: every window
// ends inside a frame, whose head must carry over to the next one.
TEST(SegmentedLogTest, FramesStraddlingEveryWindowEdgeReadWhole) {
  const std::string Path = tempPath("seg_window_edges.bin");
  const Trace T = bulkTrace(3, 40000); // 3.8 MB raw
  for (bool Compress : {false, true})
    for (size_t Chunk : {997u, 3001u, 20011u}) {
      writeSegmented(T, Path, Chunk, Compress);
      const std::vector<uint8_t> Bytes = readFileBytes(Path);
      ASSERT_GT(Bytes.size(), Compress ? Window / 2 : 3 * Window);
      const std::string Where = std::string(Compress ? "v2z" : "v2") +
                                " chunk " + std::to_string(Chunk);
      const TraceReadResult R = readTrace(Path);
      ASSERT_EQ(R.Status, TraceReadStatus::Ok) << Where << ": " << R.Error;
      EXPECT_TRUE(sameStreams(R.T.PerThread, T.PerThread)) << Where;
      expectWholeBufferResult(R, Bytes, Where);
    }
  std::remove(Path.c_str());
}

// One raw frame of the writer's maximum 2^16 records is 2 MiB of
// payload, larger than the window: the window must grow to hold it.
TEST(SegmentedLogTest, FrameLargerThanTheWindowGrowsIt) {
  const std::string Path = tempPath("seg_big_frame.bin");
  Trace T = bulkTrace(2, 1u << 16);
  T.PerThread[0].resize(1000); // a small frame first, off the window edge
  writeSegmented(T, Path, 1u << 16);
  const std::vector<SegmentInfo> Frames = scanSegments(Path);
  ASSERT_EQ(Frames.size(), 3u);
  ASSERT_EQ(Frames[1].EventCount, 1u << 16);
  ASSERT_GT(Frames[1].PayloadBytes, Window);
  const TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Ok) << R.Error;
  EXPECT_TRUE(sameStreams(R.T.PerThread, T.PerThread));
  expectWholeBufferResult(R, readFileBytes(Path), "2 MiB frame");
  std::remove(Path.c_str());
}

// Garbage that runs across the first window's edge: the resync scan
// reaches the window's end with no header found and carries its last 27
// bytes over. The next valid header is placed at every offset around
// that edge, so it starts inside the carried residue, on the edge, and
// past it; each read must drop exactly the garbage.
TEST(SegmentedLogTest, DamageAcrossAWindowEdgeResyncsExactly) {
  const std::string Path = tempPath("seg_window_damage.bin");
  writeSegmented(bulkTrace(2, 20000), Path, 1000);
  const std::vector<uint8_t> Clean = readFileBytes(Path);
  const std::vector<SegmentInfo> Frames = scanSegments(Path);
  ASSERT_GT(Frames.size(), 3u);
  // The file header and first frame, then garbage up to At, then the
  // remaining frames (the footer's totals no longer match: one drop).
  const size_t Kept = Frames[1].Offset;
  const size_t Edge = 16 + Window; // the first window's end
  for (size_t At = Edge - 40; At <= Edge + 8; ++At) {
    std::vector<uint8_t> Bytes(Clean.begin(), Clean.begin() + Kept);
    Bytes.resize(At, 0xA5);
    Bytes.insert(Bytes.end(), Clean.begin() + Frames[2].Offset, Clean.end());
    writeFileBytes(Path, Bytes.data(), Bytes.size());
    const std::string Where = "next header at " + std::to_string(At);
    const TraceReadResult R = readTrace(Path);
    ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << Where;
    EXPECT_EQ(R.Stats.SegmentsDropped, 1u) << Where;
    EXPECT_EQ(R.Stats.BytesDropped, At - Kept) << Where;
    EXPECT_FALSE(R.Stats.TruncatedTail) << Where;
    expectWholeBufferResult(R, Bytes, Where);
  }
  std::remove(Path.c_str());
}

// A CRC-valid header claiming the largest payload a reader believes
// (64 MiB) reads as a truncated tail, whether the file ends within the
// first window or runs on for megabytes past the forged header; in the
// long file the frame is counted to the end without being held.
TEST(SegmentedLogTest, ForgedMaxPayloadHeaderReadsAsATruncatedTail) {
  const std::string Path = tempPath("seg_forged_max.bin");
  for (size_t Events : {3000u, 60000u}) {
    writeSegmented(bulkTrace(2, Events), Path, 997);
    const std::vector<uint8_t> Clean = readFileBytes(Path);
    const std::vector<SegmentInfo> Frames = scanSegments(Path);
    ASSERT_GT(Frames.size(), 3u);
    const std::vector<uint8_t> Forged =
        forgeHeader(0, 1, 1u << 21, 1u << 26, 0xDEADBEEFu);
    std::vector<uint8_t> Bytes = Clean;
    Bytes.insert(Bytes.begin() + Frames[2].Offset, Forged.begin(),
                 Forged.end());
    writeFileBytes(Path, Bytes.data(), Bytes.size());
    const std::string Where = std::to_string(Bytes.size()) + " bytes";
    const TraceReadResult R = readTrace(Path);
    ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << Where;
    EXPECT_TRUE(R.Stats.TruncatedTail) << Where;
    EXPECT_EQ(R.Stats.SegmentsDropped, 1u) << Where;
    EXPECT_EQ(R.Stats.BytesDropped, Bytes.size() - Frames[2].Offset) << Where;
    EXPECT_EQ(R.Stats.EventsRecovered,
              uint64_t{Frames[0].EventCount} + Frames[1].EventCount)
        << Where;
    expectWholeBufferResult(R, Bytes, Where);
  }
  std::remove(Path.c_str());
}

// v2z frames are reserved too, so a v2z read fills each stream without
// regrowing it. A compressed frame whose header claims more records than
// its payload could encode (MinEncodedRecordBytes each) reserves nothing:
// the forged claims below cannot lift the reservation past that bound.
TEST(SegmentedLogTest, CompressedFramesReserveWithinTheirPayloadBound) {
  const std::string Path = tempPath("seg_reserve_z.bin");
  writeSegmented(bulkTrace(3, 5000), Path, 700, /*Compress=*/true);
  const TraceReadResult Clean = readTrace(Path);
  ASSERT_EQ(Clean.Status, TraceReadStatus::Ok) << Clean.Error;
  for (const auto &Stream : Clean.T.PerThread)
    EXPECT_EQ(Stream.capacity(), Stream.size());

  std::vector<uint8_t> Bytes = readFileBytes(Path);
  const std::vector<SegmentInfo> Frames = scanSegments(Path);
  const SegmentInfo &Real = Frames[0];
  const std::vector<uint8_t> Payload(
      Bytes.begin() + Real.Offset + 28,
      Bytes.begin() + Real.Offset + 28 + Real.PayloadBytes);
  const uint32_t Bound = Real.PayloadBytes / MinEncodedRecordBytes;
  // Forged copies of the first frame ahead of it, with intact payloads.
  for (uint32_t Claim : {Bound + 1, 0xFFFFFFFFu}) {
    std::vector<uint8_t> Frame =
        forgeHeader(1, Real.Tid, Claim, Real.PayloadBytes,
                    crc32c(Payload.data(), Payload.size()));
    Frame.insert(Frame.end(), Payload.begin(), Payload.end());
    Bytes.insert(Bytes.begin() + Real.Offset, Frame.begin(), Frame.end());
  }
  writeFileBytes(Path, Bytes.data(), Bytes.size());
  const TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << R.Error;
  EXPECT_EQ(R.Stats.SegmentsDropped, 2u);
  EXPECT_TRUE(sameStreams(R.T.PerThread, Clean.T.PerThread));
  const auto &Forged = R.T.PerThread[Real.Tid];
  EXPECT_LE(Forged.capacity(), Forged.size() + 2 * Bound);
  expectWholeBufferResult(R, Bytes, "forged v2z counts");
  std::remove(Path.c_str());
}

/// Reads \p Bytes with readTrace() through a named pipe at \p Fifo, fed
/// by a writer thread in pieces of up to 64 KiB.
TraceReadResult readThroughFifo(const std::vector<uint8_t> &Bytes,
                                const std::string &Fifo) {
  std::remove(Fifo.c_str());
  EXPECT_EQ(::mkfifo(Fifo.c_str(), 0600), 0) << Fifo;
  std::thread Writer([&] {
    const int Fd = ::open(Fifo.c_str(), O_WRONLY | O_CLOEXEC);
    SplitMix64 Rng(Bytes.size());
    for (size_t At = 0; Fd >= 0 && At < Bytes.size();) {
      const size_t Piece =
          std::min<size_t>(Bytes.size() - At, 1 + Rng.nextBelow(1u << 16));
      const ssize_t N = ::write(Fd, Bytes.data() + At, Piece);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      At += static_cast<size_t>(N);
    }
    if (Fd >= 0)
      ::close(Fd);
  });
  TraceReadResult R = readTrace(Fifo);
  Writer.join();
  std::remove(Fifo.c_str());
  return R;
}

// A named pipe cannot be seeked or sized: the read skips the reservation
// and grows the window for a big frame by doubling. None of that may
// change the result: it must equal reading the same bytes from a file.
TEST(SegmentedLogTest, NamedPipeReadsLikeTheFile) {
  const std::string Path = tempPath("seg_fifo_src.bin");
  const std::string Fifo = tempPath("seg_fifo");
  Trace Big = bulkTrace(2, 1u << 16);
  Big.PerThread[0].resize(1000);
  struct Case {
    const char *Name;
    const Trace &T;
    size_t Chunk;
    bool Compress;
    bool ForgeTail; // a forged 64 MiB header after the second frame
  };
  const Trace Bulk = bulkTrace(3, 20000);
  const Case Cases[] = {{"v2", Bulk, 3001, false, false},
                        {"v2z", Bulk, 3001, true, false},
                        {"2 MiB frame", Big, 1u << 16, false, false},
                        {"forged tail", Bulk, 3001, false, true}};
  for (const Case &C : Cases) {
    writeSegmented(C.T, Path, C.Chunk, C.Compress);
    if (C.ForgeTail) {
      std::vector<uint8_t> Bytes = readFileBytes(Path);
      const std::vector<uint8_t> Forged =
          forgeHeader(0, 0, 1u << 21, 1u << 26, 0);
      Bytes.insert(Bytes.begin() + scanSegments(Path)[2].Offset,
                   Forged.begin(), Forged.end());
      writeFileBytes(Path, Bytes.data(), Bytes.size());
    }
    const TraceReadResult File = readTrace(Path);
    const TraceReadResult Pipe = readThroughFifo(readFileBytes(Path), Fifo);
    ASSERT_TRUE(File.readable()) << C.Name;
    EXPECT_EQ(Pipe.Status, File.Status) << C.Name;
    EXPECT_EQ(Pipe.Error, File.Error) << C.Name;
    EXPECT_EQ(Pipe.Stats.Format, File.Stats.Format) << C.Name;
    EXPECT_EQ(Pipe.Stats.BytesRead, File.Stats.BytesRead) << C.Name;
    expectSameStats(Pipe.Stats, File.Stats, C.Name);
    EXPECT_EQ(Pipe.T.NumTimestampCounters, File.T.NumTimestampCounters);
    EXPECT_TRUE(sameStreams(Pipe.T.PerThread, File.T.PerThread)) << C.Name;
  }
  std::remove(Path.c_str());
}

/// Checks that the reader's kind counts equal walks over what it returned.
void expectCountsMatchWalks(const TraceReadResult &R,
                            const std::string &Where) {
  EXPECT_EQ(R.Stats.MemoryEvents, R.T.memoryOps()) << Where;
  EXPECT_EQ(R.Stats.SyncEvents, R.T.syncOps()) << Where;
}

// The raw-frame pass copies, checksums and kind-checks in one loop. A
// frame failing either check must cost exactly itself, with the same
// accounting whichever check failed, in both readers.
TEST(SegmentedLogTest, RawFrameWithBadCrcOrBadKindDropsExactlyThatFrame) {
  const std::string Path = tempPath("seg_fused.bin");
  const Trace T = buildRacyTrace();
  writeSegmented(T, Path, 8);
  const std::vector<uint8_t> Clean = readFileBytes(Path);
  const std::vector<SegmentInfo> Frames = scanSegments(Path);
  ASSERT_GT(Frames.size(), 5u);
  const SegmentInfo &Victim = Frames[4];
  ASSERT_FALSE(Victim.IsFooter);
  ASSERT_EQ(Victim.EventCount, 8u);
  // Where the victim's records start in its thread's stream.
  size_t Before = 0;
  for (size_t I = 0; I != 4; ++I)
    if (Frames[I].Tid == Victim.Tid)
      Before += Frames[I].EventCount;
  std::vector<std::vector<EventRecord>> Expected = T.PerThread;
  Expected[Victim.Tid].erase(Expected[Victim.Tid].begin() + Before,
                             Expected[Victim.Tid].begin() + Before + 8);
  const size_t Payload = Victim.Offset + 28;

  for (const bool BadKind : {false, true}) {
    std::vector<uint8_t> Bytes = Clean;
    if (BadKind) {
      // Record 5's kind byte (offset 28 in the record) becomes invalid,
      // under a payload CRC and header CRC that both check out.
      Bytes[Payload + 5 * sizeof(EventRecord) + 28] = 0x7f;
      const uint32_t PayloadCrc =
          crc32c(Bytes.data() + Payload, Victim.PayloadBytes);
      std::memcpy(Bytes.data() + Victim.Offset + 20, &PayloadCrc, 4);
      const uint32_t HeaderCrc = crc32c(Bytes.data() + Victim.Offset, 24);
      std::memcpy(Bytes.data() + Victim.Offset + 24, &HeaderCrc, 4);
    } else {
      Bytes[Payload + 3 * sizeof(EventRecord) + 2] ^= 0x10; // an Addr bit
    }
    writeFileBytes(Path, Bytes.data(), Bytes.size());
    const std::string Where = BadKind ? "bad kind" : "bad crc";

    const TraceReadResult R = readTrace(Path);
    ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << Where;
    EXPECT_EQ(R.Stats.SegmentsDropped, 1u) << Where;
    EXPECT_EQ(R.Stats.SegmentsRecovered, Frames.size() - 2) << Where;
    EXPECT_EQ(R.Stats.BytesDropped, 28u + Victim.PayloadBytes) << Where;
    EXPECT_EQ(R.Stats.EventsRecovered, T.totalEvents() - 8) << Where;
    EXPECT_TRUE(R.Stats.CleanShutdown) << Where;
    EXPECT_FALSE(R.Stats.TruncatedTail) << Where;
    const std::map<uint32_t, uint64_t> Dropped{{Victim.Tid, 1}};
    EXPECT_EQ(R.Stats.PerThreadDropped, Dropped) << Where;
    EXPECT_TRUE(sameStreams(R.T.PerThread, Expected)) << Where;
    expectCountsMatchWalks(R, Where);

    SplitMix64 Rng(BadKind);
    std::vector<std::vector<EventRecord>> Streams;
    const SegmentStreamDecoder D = decodeInPieces(Bytes, Rng, Streams);
    expectSameStats(D.stats(), R.Stats, Where);
    EXPECT_EQ(D.stats().MemoryEvents, R.Stats.MemoryEvents) << Where;
    EXPECT_EQ(D.stats().SyncEvents, R.Stats.SyncEvents) << Where;
    EXPECT_TRUE(sameStreams(Streams, Expected)) << Where;
  }
  std::remove(Path.c_str());
}

// TraceReadStats::MemoryEvents and SyncEvents are counted while decoding;
// on clean, truncated, bit-flipped and mutated v2 and v2z files they must
// equal walks over the trace read, and strict refusal zeroes them.
TEST(SegmentedLogTest, ReaderKindCountsEqualWalksOverTheTrace) {
  const std::string Path = tempPath("seg_counts.bin");
  const std::string DamagedPath = tempPath("seg_counts_damaged.bin");
  const Trace T = buildRacyTrace();
  for (const bool Compress : {false, true}) {
    const std::string Format = Compress ? "v2z" : "v2";
    writeSegmented(T, Path, 8, Compress);
    const std::vector<uint8_t> Clean = readFileBytes(Path);
    const TraceReadResult Whole = readTrace(Path);
    ASSERT_EQ(Whole.Status, TraceReadStatus::Ok) << Format;
    EXPECT_EQ(Whole.Stats.MemoryEvents, T.memoryOps()) << Format;
    EXPECT_EQ(Whole.Stats.SyncEvents, T.syncOps()) << Format;

    for (size_t Cut = 16; Cut < Clean.size(); Cut += 3) {
      writeFileBytes(DamagedPath, Clean.data(), Cut);
      expectCountsMatchWalks(readTrace(DamagedPath),
                             Format + " cut " + std::to_string(Cut));
    }
    for (size_t At = 16; At < Clean.size(); At += 5) {
      std::vector<uint8_t> Bytes = Clean;
      Bytes[At] ^= static_cast<uint8_t>(1u << (At % 8));
      writeFileBytes(DamagedPath, Bytes.data(), Bytes.size());
      expectCountsMatchWalks(readTrace(DamagedPath),
                             Format + " flip " + std::to_string(At));
    }
    const std::vector<SegmentInfo> Frames = scanSegments(Path);
    for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
      SplitMix64 Rng(Seed * 0x2545F4914F6CDD1Dull + Compress);
      std::vector<uint8_t> Bytes = Clean;
      mutateOnce(Bytes, Frames, Rng);
      writeFileBytes(DamagedPath, Bytes.data(), Bytes.size());
      expectCountsMatchWalks(readTrace(DamagedPath),
                             Format + " seed " + std::to_string(Seed));
    }

    std::vector<uint8_t> Cut(Clean.begin(), Clean.end() - 5);
    writeFileBytes(DamagedPath, Cut.data(), Cut.size());
    TraceReadOptions Strict;
    Strict.Salvage = false;
    const TraceReadResult Refused = readTrace(DamagedPath, Strict);
    ASSERT_EQ(Refused.Status, TraceReadStatus::Unreadable) << Format;
    EXPECT_EQ(Refused.Stats.MemoryEvents, 0u) << Format;
    EXPECT_EQ(Refused.Stats.SyncEvents, 0u) << Format;
  }
  std::remove(Path.c_str());
  std::remove(DamagedPath.c_str());
}

} // namespace
