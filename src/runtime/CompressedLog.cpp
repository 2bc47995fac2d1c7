//===-- runtime/CompressedLog.cpp - Delta/varint log encoding -------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompressedLog.h"

#include <cassert>

using namespace literace;

namespace {

/// Per-event header byte: low 4 bits the kind, high bits flags.
constexpr uint8_t FlagHasMask = 0x10;

/// Writes \p V as a varint at \p P and returns the byte past it.
uint8_t *putVarint(uint8_t *P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<uint8_t>(V) | 0x80;
    V >>= 7;
  }
  *P++ = static_cast<uint8_t>(V);
  return P;
}

bool getVarint(const uint8_t *&P, const uint8_t *End, uint64_t &V) {
  V = 0;
  unsigned Shift = 0;
  while (P != End) {
    uint8_t Byte = *P++;
    V |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return true;
    Shift += 7;
    if (Shift >= 64)
      return false;
  }
  return false;
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

} // namespace

size_t literace::compressEventStream(const EventRecord *Records,
                                     size_t Count,
                                     std::vector<uint8_t> &Out) {
  const size_t Before = Out.size();
  // Size for the worst case, write through a pointer, then trim.
  Out.resize(Before + Count * MaxEncodedRecordBytes);
  uint8_t *P = Out.data() + Before;
  uint64_t PrevAddr = 0;
  uint64_t PrevPc = 0;
  uint64_t PrevTs = 0;
  uint16_t PrevMask = 0;
  for (size_t I = 0; I != Count; ++I) {
    const EventRecord &R = Records[I];
    uint8_t Header = static_cast<uint8_t>(R.Kind);
    assert(Header < 0x10 && "kind must fit the header's low bits");
    if (R.Mask != PrevMask)
      Header |= FlagHasMask;
    *P++ = Header;
    P = putVarint(P, zigzag(static_cast<int64_t>(R.Addr - PrevAddr)));
    P = putVarint(P, zigzag(static_cast<int64_t>(R.Pc - PrevPc)));
    if (isSyncKind(R.Kind)) {
      P = putVarint(P, zigzag(static_cast<int64_t>(R.Ts - PrevTs)));
      PrevTs = R.Ts;
    }
    if (Header & FlagHasMask) {
      P = putVarint(P, R.Mask);
      PrevMask = R.Mask;
    }
    PrevAddr = R.Addr;
    PrevPc = R.Pc;
  }
  Out.resize(static_cast<size_t>(P - Out.data()));
  return Out.size() - Before;
}

size_t literace::decompressEventStreamInto(const uint8_t *Data, size_t Size,
                                          ThreadId Tid,
                                          std::vector<EventRecord> &Out,
                                          EventKindCounts *Counts) {
  const uint8_t *P = Data;
  const uint8_t *End = Data + Size;
  uint64_t PrevAddr = 0;
  uint64_t PrevPc = 0;
  uint64_t PrevTs = 0;
  uint16_t PrevMask = 0;
  EventKindCounts Seen;
  const uint8_t *Stop = End; // the end of the cleanly decoded prefix
  while (P != End) {
    const uint8_t *RecordStart = P;
    uint8_t Header = *P++;
    uint8_t KindBits = Header & 0x0f;
    if (KindBits > static_cast<uint8_t>(EventKind::PolicyMeta) ||
        (Header & ~uint8_t(0x0f | FlagHasMask))) {
      Stop = RecordStart;
      break;
    }
    EventRecord R;
    R.Kind = static_cast<EventKind>(KindBits);
    R.Tid = Tid;
    uint64_t V;
    bool Ok = getVarint(P, End, V);
    if (Ok)
      R.Addr = PrevAddr + static_cast<uint64_t>(unzigzag(V));
    if (Ok && (Ok = getVarint(P, End, V)))
      R.Pc = PrevPc + static_cast<uint64_t>(unzigzag(V));
    if (Ok && isSyncKind(R.Kind)) {
      if ((Ok = getVarint(P, End, V))) {
        R.Ts = PrevTs + static_cast<uint64_t>(unzigzag(V));
        PrevTs = R.Ts;
      }
    }
    if (Ok && (Header & FlagHasMask)) {
      Ok = getVarint(P, End, V) && V <= 0xffff;
      if (Ok)
        PrevMask = static_cast<uint16_t>(V);
    }
    if (!Ok) { // Truncated or malformed record: keep the prefix so far.
      Stop = RecordStart;
      break;
    }
    R.Mask = PrevMask;
    PrevAddr = R.Addr;
    PrevPc = R.Pc;
    Seen.note(R.Kind);
    Out.push_back(R);
  }
  if (Counts)
    *Counts += Seen;
  return static_cast<size_t>(Stop - Data);
}
