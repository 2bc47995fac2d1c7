//===-- tests/EventLogTest.cpp - Log sinks and file format -----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/EventLog.h"

#include <cstdio>
#include <gtest/gtest.h>
#include <string>

using namespace literace;

namespace {

EventRecord makeRead(ThreadId Tid, uint64_t Addr, uint16_t Mask = 0x8000) {
  EventRecord R;
  R.Kind = EventKind::Read;
  R.Tid = Tid;
  R.Addr = Addr;
  R.Mask = Mask;
  return R;
}

EventRecord makeAcquire(ThreadId Tid, SyncVar S, uint64_t Ts) {
  EventRecord R;
  R.Kind = EventKind::Acquire;
  R.Tid = Tid;
  R.Addr = S;
  R.Ts = Ts;
  return R;
}

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + Name;
}

TEST(MemorySinkTest, ReassemblesPerThreadStreams) {
  MemorySink Sink(64);
  EventRecord A = makeRead(0, 0x10);
  EventRecord B = makeRead(1, 0x20);
  EventRecord C = makeRead(0, 0x30);
  Sink.writeChunk(0, &A, 1);
  Sink.writeChunk(1, &B, 1);
  Sink.writeChunk(0, &C, 1);

  Trace T = Sink.takeTrace();
  EXPECT_EQ(T.NumTimestampCounters, 64u);
  ASSERT_EQ(T.PerThread.size(), 2u);
  ASSERT_EQ(T.PerThread[0].size(), 2u);
  EXPECT_EQ(T.PerThread[0][0].Addr, 0x10u);
  EXPECT_EQ(T.PerThread[0][1].Addr, 0x30u);
  ASSERT_EQ(T.PerThread[1].size(), 1u);
  EXPECT_EQ(T.PerThread[1][0].Addr, 0x20u);
}

TEST(MemorySinkTest, TakeTraceDrainsTheSink) {
  MemorySink Sink;
  EventRecord A = makeRead(0, 0x10);
  Sink.writeChunk(0, &A, 1);
  Trace First = Sink.takeTrace();
  EXPECT_EQ(First.totalEvents(), 1u);
  Trace Second = Sink.takeTrace();
  EXPECT_EQ(Second.totalEvents(), 0u);
}

TEST(MemorySinkTest, CountsBytes) {
  MemorySink Sink;
  EventRecord Records[3] = {makeRead(0, 1), makeRead(0, 2), makeRead(0, 3)};
  Sink.writeChunk(0, Records, 3);
  EXPECT_EQ(Sink.bytesWritten(), 3 * sizeof(EventRecord));
}

TEST(TraceTest, CountsByKind) {
  Trace T;
  T.PerThread.resize(2);
  T.PerThread[0].push_back(makeRead(0, 0x10, 0x8001));
  T.PerThread[0].push_back(
      makeAcquire(0, makeSyncVar(SyncObjectKind::Mutex, 1), 1));
  T.PerThread[1].push_back(makeRead(1, 0x20, 0x8002));
  EXPECT_EQ(T.totalEvents(), 3u);
  EXPECT_EQ(T.memoryOps(), 2u);
  EXPECT_EQ(T.syncOps(), 1u);
  EXPECT_EQ(T.memoryOpsForSlot(0), 1u);
  EXPECT_EQ(T.memoryOpsForSlot(1), 1u);
  EXPECT_EQ(T.memoryOpsForSlot(2), 0u);
}

TEST(ReadTraceTest, ZeroTimestampCountersNeverReachTheTrace) {
  // NumTimestampCounters == 0 would divide by zero downstream in replay.
  // A header claiming it is damage: the frames are salvaged by scanning
  // under the writer default, and strict mode refuses the file.
  std::string Path = tempPath("zerocounters.bin");
  {
    SegmentedFileSink Sink(Path, 32);
    ASSERT_TRUE(Sink.ok());
    EventRecord A[2] = {makeRead(0, 0x10), makeRead(0, 0x20)};
    EventRecord B = makeAcquire(1, makeSyncVar(SyncObjectKind::Event, 7), 5);
    Sink.writeChunk(0, A, 2);
    Sink.writeChunk(1, &B, 1);
    ASSERT_TRUE(Sink.close());
  }
  std::FILE *F = std::fopen(Path.c_str(), "rb+");
  ASSERT_NE(F, nullptr);
  const uint32_t Zero = 0;
  std::fseek(F, 12, SEEK_SET); // FileHeader::NumTimestampCounters.
  std::fwrite(&Zero, sizeof(Zero), 1, F);
  std::fclose(F);
  TraceReadResult R = readTrace(Path);
  ASSERT_EQ(R.Status, TraceReadStatus::Salvaged) << R.Error;
  EXPECT_TRUE(R.Stats.SalvagedHeader);
  EXPECT_EQ(R.T.NumTimestampCounters, 128u);
  EXPECT_EQ(R.T.totalEvents(), 3u);
  TraceReadOptions Strict;
  Strict.Salvage = false;
  EXPECT_EQ(readTrace(Path, Strict).Status, TraceReadStatus::Unreadable);
  std::remove(Path.c_str());
}

TEST(ReadTraceTest, MissingAndGarbageFilesAreUnreadable) {
  TraceReadResult Missing = readTrace("/nonexistent/literace.bin");
  EXPECT_EQ(Missing.Status, TraceReadStatus::Unreadable);
  EXPECT_FALSE(Missing.Error.empty());

  std::string Path = tempPath("readtrace_garbage.bin");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  for (int I = 0; I != 1024; ++I)
    std::fputc(I & 0xff, F);
  std::fclose(F);
  TraceReadResult Garbage = readTrace(Path);
  EXPECT_EQ(Garbage.Status, TraceReadStatus::Unreadable);
  std::remove(Path.c_str());
}

TEST(NullSinkTest, CountsButDiscards) {
  NullSink Sink;
  EventRecord A[5] = {};
  Sink.writeChunk(3, A, 5);
  EXPECT_EQ(Sink.bytesWritten(), 5 * sizeof(EventRecord));
}

TEST(EventRecordTest, LayoutIsStable) {
  // The on-disk format depends on this layout.
  EXPECT_EQ(sizeof(EventRecord), 32u);
}

} // namespace
