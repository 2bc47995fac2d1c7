//===-- tests/CompressedLogTest.cpp - Compressed log format ----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompressedLog.h"

#include "detector/HBDetector.h"
#include "detector/LogBuilder.h"
#include "harness/DetectionExperiment.h"
#include "support/SplitMix64.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdio>
#include <gtest/gtest.h>
#include <memory>
#include <optional>
#include <sys/stat.h>

using namespace literace;

namespace {

bool recordsEqual(const EventRecord &A, const EventRecord &B) {
  return A.Addr == B.Addr && A.Pc == B.Pc && A.Ts == B.Ts &&
         A.Tid == B.Tid && A.Kind == B.Kind && A.Mask == B.Mask;
}

bool tracesEqual(const Trace &A, const Trace &B) {
  if (A.NumTimestampCounters != B.NumTimestampCounters ||
      A.PerThread.size() != B.PerThread.size())
    return false;
  for (size_t T = 0; T != A.PerThread.size(); ++T) {
    if (A.PerThread[T].size() != B.PerThread[T].size())
      return false;
    for (size_t I = 0; I != A.PerThread[T].size(); ++I)
      if (!recordsEqual(A.PerThread[T][I], B.PerThread[T][I]))
        return false;
  }
  return true;
}

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + Name;
}

/// The whole-input decode: the records, or nullopt unless every byte of
/// \p Data decoded cleanly.
std::optional<std::vector<EventRecord>>
decodeWhole(const uint8_t *Data, size_t Size, ThreadId Tid) {
  std::vector<EventRecord> Out;
  if (decompressEventStreamInto(Data, Size, Tid, Out) != Size)
    return std::nullopt;
  return Out;
}

TEST(CompressedStreamTest, EmptyStream) {
  std::vector<uint8_t> Out;
  EXPECT_EQ(compressEventStream({}, Out), 0u);
  auto Back = decodeWhole(Out.data(), Out.size(), 0);
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(Back->empty());
}

TEST(CompressedStreamTest, RoundTripsAllKinds) {
  LogBuilder B(16);
  SyncVar M = makeSyncVar(SyncObjectKind::Mutex, 0x8000);
  B.onThread(3)
      .threadStart()
      .write(0xdeadbeef, makePc(4, 7), 0x8003)
      .read(0xdeadbef7, makePc(4, 8), 0x8003)
      .acquire(M)
      .release(M)
      .acqRel(makeSyncVar(SyncObjectKind::Atomic, 0x9000))
      .alloc(makeSyncVar(SyncObjectKind::Page, 12))
      .free(makeSyncVar(SyncObjectKind::Page, 12))
      .threadEnd();
  Trace T = B.build();

  std::vector<uint8_t> Out;
  compressEventStream(T.PerThread[3], Out);
  auto Back = decodeWhole(Out.data(), Out.size(), 3);
  ASSERT_TRUE(Back.has_value());
  ASSERT_EQ(Back->size(), T.PerThread[3].size());
  for (size_t I = 0; I != Back->size(); ++I)
    EXPECT_TRUE(recordsEqual((*Back)[I], T.PerThread[3][I])) << "record "
                                                             << I;
}

TEST(CompressedStreamTest, RandomStreamsRoundTripExactly) {
  SplitMix64 Rng(0xc0ffee);
  for (int Trial = 0; Trial != 20; ++Trial) {
    std::vector<EventRecord> Stream;
    uint64_t Ts = 1;
    for (int I = 0; I != 500; ++I) {
      EventRecord R;
      R.Tid = 5;
      switch (Rng.nextBelow(4)) {
      case 0:
        R.Kind = EventKind::Read;
        break;
      case 1:
        R.Kind = EventKind::Write;
        break;
      case 2:
        R.Kind = EventKind::Acquire;
        R.Ts = Ts++;
        break;
      default:
        R.Kind = EventKind::Release;
        R.Ts = Ts++;
        break;
      }
      R.Addr = Rng.next() >> Rng.nextBelow(40); // Mixed magnitudes.
      R.Pc = makePc(static_cast<FunctionId>(Rng.nextBelow(100)),
                    static_cast<uint32_t>(Rng.nextBelow(300)));
      R.Mask = static_cast<uint16_t>(Rng.nextBelow(0x10000));
      Stream.push_back(R);
    }
    std::vector<uint8_t> Out;
    compressEventStream(Stream, Out);
    auto Back = decodeWhole(Out.data(), Out.size(), 5);
    ASSERT_TRUE(Back.has_value());
    ASSERT_EQ(Back->size(), Stream.size());
    for (size_t I = 0; I != Stream.size(); ++I)
      ASSERT_TRUE(recordsEqual((*Back)[I], Stream[I]));
  }
}

TEST(CompressedStreamTest, TruncatedInputIsRejected) {
  LogBuilder B(16);
  B.onThread(0).write(0x1000, makePc(1, 1)).write(0x2000, makePc(1, 2));
  std::vector<uint8_t> Out;
  compressEventStream(B.build().PerThread[0], Out);
  for (size_t Cut = 1; Cut < Out.size(); ++Cut) {
    auto Back = decodeWhole(Out.data(), Cut, 0);
    // Either cleanly rejected or a strict prefix; never garbage kinds.
    if (Back) {
      for (const EventRecord &R : *Back)
        EXPECT_LE(static_cast<uint8_t>(R.Kind),
                  static_cast<uint8_t>(EventKind::Free));
    }
  }
}

TEST(CompressedStreamTest, GarbageKindIsRejected) {
  uint8_t Garbage[] = {0x0f, 0x00, 0x00, 0x00}; // Kind 15 is invalid.
  EXPECT_FALSE(decodeWhole(Garbage, sizeof(Garbage), 0));
}

TEST(CompressedStreamTest, TruncatedDecodeKeepsTheCleanPrefix) {
  LogBuilder B(16);
  SyncVar M = makeSyncVar(SyncObjectKind::Mutex, 0x8000);
  B.onThread(0)
      .threadStart()
      .write(0x1000, makePc(1, 1))
      .acquire(M)
      .read(0x2000, makePc(1, 2))
      .release(M)
      .threadEnd();
  std::vector<EventRecord> Stream = B.build().PerThread[0];
  std::vector<uint8_t> Out;
  compressEventStream(Stream, Out);

  std::vector<EventRecord> Whole;
  EXPECT_EQ(decompressEventStreamInto(Out.data(), Out.size(), 0, Whole),
            Out.size());
  ASSERT_EQ(Whole.size(), Stream.size());

  // Every truncation yields a prefix of the true stream, never garbage,
  // and the decoded length is monotone in the cut position. The bytes
  // consumed reach the cut exactly when it lands on a record boundary
  // (the full stream included).
  size_t Prev = 0;
  size_t Boundaries = 0;
  for (size_t Cut = 0; Cut <= Out.size(); ++Cut) {
    std::vector<EventRecord> Events;
    const size_t Used = decompressEventStreamInto(Out.data(), Cut, 0, Events);
    EXPECT_LE(Used, Cut);
    ASSERT_LE(Events.size(), Stream.size());
    EXPECT_GE(Events.size(), Prev) << "cut=" << Cut;
    Boundaries += Used == Cut && Events.size() != Prev;
    Prev = Events.size();
    for (size_t I = 0; I != Events.size(); ++I)
      EXPECT_TRUE(recordsEqual(Events[I], Stream[I])) << "cut=" << Cut;
  }
  EXPECT_EQ(Boundaries, Stream.size());
}

TEST(CompressedStreamTest, DecodeOfGarbageIsEmptyNotFatal) {
  uint8_t Garbage[64];
  for (size_t I = 0; I != sizeof(Garbage); ++I)
    Garbage[I] = static_cast<uint8_t>(0xf0 | I); // Invalid kinds/flags.
  std::vector<EventRecord> Events;
  EXPECT_EQ(decompressEventStreamInto(Garbage, sizeof(Garbage), 0, Events),
            0u);
  EXPECT_TRUE(Events.empty());
}

TEST(CompressedStreamTest, VarintOverrunIsRejectedNotOverread) {
  // A header byte promising a delta, followed by continuation bits right
  // to the end of the buffer: the decoder must stop at the boundary.
  std::vector<uint8_t> Evil;
  Evil.push_back(0x01); // Kind = Read.
  for (int I = 0; I != 32; ++I)
    Evil.push_back(0xff); // Endless varint continuation.
  std::vector<EventRecord> Events;
  EXPECT_EQ(decompressEventStreamInto(Evil.data(), Evil.size(), 0, Events),
            0u);
  EXPECT_TRUE(Events.empty());
}

TEST(CompressedStreamTest, UnknownHeaderFlagBitsAreRejected) {
  // Only the low kind nibble and the has-mask flag are defined; anything
  // else is a future extension the current decoder must not guess at.
  uint8_t Evil[] = {0x41, 0x00, 0x00, 0x00}; // Kind 1 + undefined bit 6.
  EXPECT_FALSE(decodeWhole(Evil, sizeof(Evil), 0));
}

/// Returns a value near \p Prev or anywhere in the 64-bit range, so the
/// zig-zag deltas cover small steps and jumps across +-2^63.
uint64_t randomNear(SplitMix64 &Rng, uint64_t Prev) {
  switch (Rng.nextBelow(4)) {
  case 0:
    return Rng.next();
  case 1:
    return Prev + (uint64_t(1) << 63) + Rng.nextBelow(3) - 1;
  default:
    return Prev + Rng.nextBelow(129) - 64;
  }
}

/// A random stream of every kind: deltas across the whole address and pc
/// range, strictly increasing sync timestamps, occasional mask changes.
std::vector<EventRecord> randomCodecStream(SplitMix64 &Rng, ThreadId Tid) {
  std::vector<EventRecord> Stream;
  EventRecord Prev;
  uint64_t Ts = 0;
  for (uint64_t I = 0, N = Rng.nextBelow(200); I != N; ++I) {
    EventRecord R;
    R.Tid = Tid;
    R.Kind = static_cast<EventKind>(
        Rng.nextBelow(static_cast<uint64_t>(EventKind::PolicyMeta) + 1));
    R.Addr = randomNear(Rng, Prev.Addr);
    R.Pc = randomNear(Rng, Prev.Pc);
    if (isSyncKind(R.Kind))
      R.Ts = Ts += 1 + (Rng.nextBelow(8) ? Rng.nextBelow(4)
                                          : Rng.next() >> 20);
    R.Mask = Rng.nextBelow(4) ? Prev.Mask
                              : static_cast<uint16_t>(Rng.nextBelow(0x10000));
    Stream.push_back(R);
    Prev = R;
  }
  return Stream;
}

bool streamsEqual(const std::vector<EventRecord> &A,
                  const std::vector<EventRecord> &B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(), recordsEqual);
}

TEST(CompressedStreamTest, SeededRandomStreamsRoundTripExactly) {
  SplitMix64 Rng(0xc0dec0de);
  for (int Trial = 0; Trial != 500; ++Trial) {
    const auto Tid = static_cast<ThreadId>(Rng.nextBelow(64));
    const std::vector<EventRecord> Stream = randomCodecStream(Rng, Tid);
    std::vector<uint8_t> Out;
    compressEventStream(Stream, Out);
    auto Back = decodeWhole(Out.data(), Out.size(), Tid);
    ASSERT_TRUE(Back.has_value()) << "trial " << Trial;
    ASSERT_TRUE(streamsEqual(*Back, Stream)) << "trial " << Trial;
  }
}

TEST(CompressedStreamTest, MutatedStreamsDecodeAConsistentPrefix) {
  // Bit flips, truncation, splices and duplicated bytes: whatever the
  // damage, the decoder keeps one clean prefix, never reads past the
  // input, and never touches the caller's records.
  SplitMix64 Rng(0xbadc0ded);
  for (int Trial = 0; Trial != 2000; ++Trial) {
    std::vector<uint8_t> Bytes;
    compressEventStream(randomCodecStream(Rng, 1), Bytes);
    std::vector<uint8_t> Donor;
    compressEventStream(randomCodecStream(Rng, 2), Donor);
    for (uint64_t M = 0, N = 1 + Rng.nextBelow(3); M != N; ++M) {
      const size_t At = Rng.nextBelow(Bytes.size() + 1);
      switch (Rng.nextBelow(4)) {
      case 0: // Bit flip.
        if (!Bytes.empty())
          Bytes[Rng.nextBelow(Bytes.size())] ^=
              static_cast<uint8_t>(1u << Rng.nextBelow(8));
        break;
      case 1: // Truncation.
        Bytes.resize(At);
        break;
      case 2: { // Splice in a slice of another stream.
        const size_t From = Rng.nextBelow(Donor.size() + 1);
        const size_t Len = Rng.nextBelow(Donor.size() - From + 1);
        Bytes.erase(Bytes.begin() + At,
                    Bytes.begin() + At + Rng.nextBelow(Bytes.size() - At + 1));
        Bytes.insert(Bytes.begin() + At, Donor.begin() + From,
                     Donor.begin() + From + Len);
        break;
      }
      default: { // Duplicate a run of bytes in place.
        const size_t Len = Rng.nextBelow(Bytes.size() - At + 1);
        const std::vector<uint8_t> Run(Bytes.begin() + At,
                                       Bytes.begin() + At + Len);
        Bytes.insert(Bytes.begin() + At, Run.begin(), Run.end());
        break;
      }
      }
    }
    SCOPED_TRACE(testing::Message() << "trial " << Trial);
    // An exactly sized copy, so a sanitizer sees any overread.
    const size_t Size = Bytes.size();
    const std::unique_ptr<uint8_t[]> Data(new uint8_t[Size]);
    std::copy(Bytes.begin(), Bytes.end(), Data.get());

    const std::vector<EventRecord> Prefix = randomCodecStream(Rng, 9);
    std::vector<EventRecord> Out = Prefix;
    const size_t Used = decompressEventStreamInto(Data.get(), Size, 1, Out);
    ASSERT_LE(Used, Size);
    ASSERT_GE(Out.size(), Prefix.size());
    ASSERT_TRUE(std::equal(Prefix.begin(), Prefix.end(), Out.begin(),
                           recordsEqual));
    const std::vector<EventRecord> Decoded(Out.begin() + Prefix.size(),
                                           Out.end());


    // Every consumed byte belongs to a decoded record: one more record,
    // encoded against the decoded records' delta state, appends cleanly.
    EventRecord Extra;
    Extra.Tid = 1;
    Extra.Kind = EventKind::Acquire;
    Extra.Addr = Rng.next();
    Extra.Pc = Rng.next();
    Extra.Ts = Rng.next();
    Extra.Mask = static_cast<uint16_t>(Rng.next());
    std::vector<EventRecord> Longer = Decoded;
    std::vector<uint8_t> Before, After;
    compressEventStream(Longer, Before);
    Longer.push_back(Extra);
    compressEventStream(Longer, After);
    std::vector<uint8_t> Extended(Data.get(), Data.get() + Used);
    Extended.insert(Extended.end(), After.begin() + Before.size(),
                    After.end());
    const auto Clean =
        decodeWhole(Extended.data(), Extended.size(), 1);
    ASSERT_TRUE(Clean.has_value());
    EXPECT_TRUE(streamsEqual(*Clean, Longer));
  }
}

/// The encoder as it was written before it wrote through a pointer: one
/// push_back per byte. Kept as the oracle for the byte format.
void oraclePutVarint(std::vector<uint8_t> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(V));
}

uint64_t oracleZigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}

void oracleCompress(const std::vector<EventRecord> &Stream,
                    std::vector<uint8_t> &Out) {
  uint64_t PrevAddr = 0, PrevPc = 0, PrevTs = 0;
  uint16_t PrevMask = 0;
  for (const EventRecord &R : Stream) {
    uint8_t Header = static_cast<uint8_t>(R.Kind);
    if (R.Mask != PrevMask)
      Header |= 0x10;
    Out.push_back(Header);
    oraclePutVarint(Out, oracleZigzag(static_cast<int64_t>(R.Addr - PrevAddr)));
    oraclePutVarint(Out, oracleZigzag(static_cast<int64_t>(R.Pc - PrevPc)));
    if (isSyncKind(R.Kind))
      oraclePutVarint(Out, oracleZigzag(static_cast<int64_t>(R.Ts - PrevTs)));
    if (Header & 0x10) {
      oraclePutVarint(Out, R.Mask);
      PrevMask = R.Mask;
    }
    PrevAddr = R.Addr;
    PrevPc = R.Pc;
    if (isSyncKind(R.Kind))
      PrevTs = R.Ts;
  }
}

/// A stream whose address, pc and timestamp deltas swing across the whole
/// 64-bit range in both directions, with frequent mask changes: the inputs
/// that make varints longest.
std::vector<EventRecord> extremeCodecStream(SplitMix64 &Rng, size_t Count) {
  const uint64_t Edges[] = {0, 1, 0x7f, 0x80, uint64_t(1) << 63,
                            (uint64_t(1) << 63) - 1, ~uint64_t(0)};
  auto Pick = [&](uint64_t Prev) {
    switch (Rng.nextBelow(3)) {
    case 0:
      return Edges[Rng.nextBelow(std::size(Edges))];
    case 1:
      return Prev + (uint64_t(1) << 63);
    default:
      return randomNear(Rng, Prev);
    }
  };
  std::vector<EventRecord> Stream;
  EventRecord Prev;
  for (size_t I = 0; I != Count; ++I) {
    EventRecord R;
    R.Kind = static_cast<EventKind>(
        Rng.nextBelow(static_cast<uint64_t>(EventKind::PolicyMeta) + 1));
    R.Addr = Pick(Prev.Addr);
    R.Pc = Pick(Prev.Pc);
    R.Ts = isSyncKind(R.Kind) ? Pick(Prev.Ts) : 0;
    R.Mask = Rng.nextBelow(2) ? static_cast<uint16_t>(Rng.next())
                              : Prev.Mask;
    Stream.push_back(R);
    Prev = R;
  }
  return Stream;
}

// The pointer-writing encoder must emit exactly the bytes of the one it
// replaced, appending after whatever \p Out already holds, and stay
// within MaxEncodedRecordBytes a record.
TEST(CompressedStreamTest, PointerEncoderMatchesThePushBackOracle) {
  SplitMix64 Rng(0x0e1c0de5);
  for (int Trial = 0; Trial != 400; ++Trial) {
    const std::vector<EventRecord> Stream =
        Trial % 2 ? extremeCodecStream(Rng, Rng.nextBelow(300))
                  : randomCodecStream(Rng, 0);
    const std::vector<uint8_t> Prefix(Rng.nextBelow(40), 0xab);
    std::vector<uint8_t> Expected = Prefix;
    oracleCompress(Stream, Expected);
    std::vector<uint8_t> Got = Prefix;
    const size_t Appended = compressEventStream(Stream, Got);
    ASSERT_EQ(Got, Expected) << "trial " << Trial;
    EXPECT_EQ(Appended, Got.size() - Prefix.size()) << "trial " << Trial;
    EXPECT_LE(Appended, Stream.size() * MaxEncodedRecordBytes)
        << "trial " << Trial;
  }
}

// One record reaches the bound exactly: every delta is 2^63 (a ten-byte
// zig-zag varint) on a sync kind, and the mask changes to 0xffff (three
// bytes).
TEST(CompressedStreamTest, WorstCaseRecordFillsTheBoundExactly) {
  EventRecord R;
  R.Kind = EventKind::Acquire;
  R.Addr = R.Pc = R.Ts = uint64_t(1) << 63;
  R.Mask = 0xffff;
  std::vector<uint8_t> Out;
  EXPECT_EQ(compressEventStream(&R, 1, Out), MaxEncodedRecordBytes);
  auto Back = decodeWhole(Out.data(), Out.size(), 0);
  ASSERT_TRUE(Back.has_value());
  ASSERT_EQ(Back->size(), 1u);
  EXPECT_TRUE(recordsEqual((*Back)[0], R));
}

TEST(CompressedSegmentsTest, WorkloadTraceShrinksAndDetectsIdentically) {
  // End to end: write a real workload trace as v2z, read it back, and
  // verify (a) compression actually saves space and (b) the detector sees
  // exactly the same races as on the in-memory trace.
  std::string Path = tempPath("compressed_workload.bin");
  auto W = makeWorkload(WorkloadKind::Channel);
  WorkloadParams Params;
  Params.Scale = 0.05;

  ExperimentRun Reference = executeExperiment(*W, Params);
  RaceReport RefReport;
  ASSERT_TRUE(detectRaces(Reference.TraceData, RefReport));

  {
    SegmentedFileSink::Options Opts;
    Opts.Compress = true;
    SegmentedFileSink Sink(Path, 128, Opts);
    for (ThreadId Tid = 0; Tid != Reference.TraceData.PerThread.size();
         ++Tid)
      Sink.writeChunk(Tid, Reference.TraceData.PerThread[Tid].data(),
                      Reference.TraceData.PerThread[Tid].size());
    ASSERT_TRUE(Sink.close());
  }
  struct stat St;
  ASSERT_EQ(::stat(Path.c_str(), &St), 0);
  const uint64_t Raw = Reference.TraceData.totalEvents() * sizeof(EventRecord);
  EXPECT_LT(static_cast<uint64_t>(St.st_size) * 2, Raw)
      << "expected at least 2x compression on a real trace";
  TraceReadResult Back = readTrace(Path);
  ASSERT_EQ(Back.Status, TraceReadStatus::Ok) << Back.Error;
  ASSERT_TRUE(tracesEqual(Reference.TraceData, Back.T));
  RaceReport BackReport;
  ASSERT_TRUE(detectRaces(Back.T, BackReport));
  EXPECT_EQ(BackReport.keys(), RefReport.keys());
  std::remove(Path.c_str());
}

} // namespace
