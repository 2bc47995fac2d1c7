//===-- collector/Collector.cpp - Always-on collection daemon ------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "collector/Collector.h"

#include "support/ByteOutput.h"
#include "telemetry/Json.h"
#include "telemetry/Prometheus.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace literace;
using namespace literace::collector;

namespace {

void appendU64(std::string &Out, uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(V));
  Out += Buf;
}

void appendBool(std::string &Out, bool V) { Out += V ? "true" : "false"; }

std::string jsonString(std::string_view S) {
  return "\"" + telemetry::jsonEscape(S) + "\"";
}

std::string siteName(Pc P) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "fn%u:%u", pcFunction(P), pcSite(P));
  return Buf;
}

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Binds and listens on an AF_UNIX stream socket, replacing a stale
/// socket file. Returns the fd or -1 (errno describes the failure).
int listenUnix(const std::string &Path) {
  if (Path.empty() || Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  ::unlink(Path.c_str());
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    const int E = errno;
    ::close(Fd);
    errno = E;
    return -1;
  }
  return Fd;
}

/// Connects to \p Path and immediately closes: wakes a thread blocked in
/// accept() so shutdown does not depend on platform accept/shutdown
/// interactions.
void pokeUnix(const std::string &Path) {
  if (Path.empty() || Path.size() >= sizeof(sockaddr_un{}.sun_path))
    return;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  ::close(Fd);
}

} // namespace

/// Detection-thread-private state of one in-flight session. Scheduler
/// is created when the first item arrives (it needs the session's
/// timestamp-counter count).
struct CollectorServer::Detection {
  std::unique_ptr<ReplayScheduler> Scheduler;
  RaceReport Report;
  HBDetector Detector{Report};
  /// Dynamic counts already forwarded to triage, per site pair. Seeded
  /// from the checkpoint for recovered sessions, so journal replay only
  /// contributes the delta.
  std::map<StaticRaceKey, uint64_t> Published;
  /// Records queued to detection so far, per thread: a spilled session's
  /// journal replay feeds each thread's stream beyond this prefix. Keyed
  /// sparsely, so a forged thread id costs one entry.
  std::map<ThreadId, uint64_t> AddedPerTid;
  std::shared_ptr<SessionState> State;
};

CollectorServer::CollectorServer(CollectorConfig ConfigIn)
    : Config(std::move(ConfigIn)),
      Triage(Config.Triage, Config.Suppressions ? Config.Suppressions
                                                : &EmptySuppressions),
      Queue(Config.QueueCapacity) {
  Metrics = telemetry::resolveRegistry(Config.Metrics);
}

CollectorServer::~CollectorServer() { stop(); }

bool CollectorServer::start(std::string *Error) {
  if (Started.load())
    return true;
  ListenFd = listenUnix(Config.IngestSocketPath);
  if (ListenFd < 0) {
    if (Error)
      *Error = "cannot listen on " + Config.IngestSocketPath + ": " +
               std::strerror(errno);
    return false;
  }
  Started.store(true);
  // Recovery feeds the queue, so the consumer must exist first; the
  // acceptor starts only after recovery so resuming clients see the
  // recovered ack positions.
  Detector = std::thread(&CollectorServer::detectLoop, this);
  if (!Config.SpoolDir.empty())
    recoverFromSpool();
  Acceptor = std::thread(&CollectorServer::acceptLoop, this);
  Housekeeper = std::thread(&CollectorServer::housekeepingLoop, this);
  return true;
}

void CollectorServer::stop() {
  if (!Started.load() || Stopping.exchange(true)) {
    // Still wake any waitForSessions() callers on a never-started server.
    Stopping.store(true);
    SessionsCv.notify_all();
    return;
  }
  const bool Crash = Crashed.load();
  // A simulated crash abandons in-flight work immediately: closing the
  // queue up front unblocks readers stuck in backpressure and stops the
  // detection thread at its next pop.
  if (Crash)
    Queue.close();
  // Unblock the acceptor, then retire the listener.
  pokeUnix(Config.IngestSocketPath);
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  ::unlink(Config.IngestSocketPath.c_str());

  // End live sessions: readers observe EOF and finish with the same
  // salvage semantics as a crashed producer's on-disk trace.
  {
    std::lock_guard<std::mutex> Guard(ReadersLock);
    for (int Fd : LiveFds)
      ::shutdown(Fd, SHUT_RD);
  }
  for (;;) {
    std::thread Reader;
    {
      std::lock_guard<std::mutex> Guard(ReadersLock);
      if (Readers.empty())
        break;
      Reader = std::move(Readers.back());
      Readers.pop_back();
    }
    if (Reader.joinable())
      Reader.join();
  }
  if (Housekeeper.joinable())
    Housekeeper.join();

  // Detached sessions have no reader; finalize them now (their clients
  // are not coming back on this daemon life).
  if (!Crash) {
    std::vector<std::shared_ptr<SessionState>> Leftover;
    {
      std::lock_guard<std::mutex> Guard(SessionsLock);
      for (const auto &[Id, S] : Sessions)
        if (S->Active.load(std::memory_order_relaxed))
          Leftover.push_back(S);
    }
    for (const auto &S : Leftover)
      finalizeIngest(S); // idempotent: no-op for already-ended sessions
  }

  // Every End item is queued; drain and join the detection thread.
  Queue.close();
  if (Detector.joinable())
    Detector.join();

  // Retire the HTTP listeners.
  {
    std::lock_guard<std::mutex> Guard(HttpLock);
    for (int Fd : HttpListenFds)
      ::shutdown(Fd, SHUT_RDWR);
  }
  {
    std::lock_guard<std::mutex> Guard(HttpLock);
    for (std::thread &T : HttpThreads)
      if (T.joinable())
        T.join();
    for (int Fd : HttpListenFds)
      ::close(Fd);
    HttpThreads.clear();
    HttpListenFds.clear();
  }
  SessionsCv.notify_all();
}

void CollectorServer::crashForTest() {
  Crashed.store(true);
  stop();
}

void CollectorServer::acceptLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Stopping.load()) {
      ::close(Fd);
      break;
    }
    std::lock_guard<std::mutex> Guard(ReadersLock);
    LiveFds.push_back(Fd);
    Readers.emplace_back(&CollectorServer::readerLoop, this, Fd);
  }
}

std::shared_ptr<CollectorServer::SessionState>
CollectorServer::createSession(uint64_t RunIdHi, uint64_t RunIdLo,
                               bool Resumable, bool Recovered,
                               uint64_t ForcedId) {
  auto State = std::make_shared<SessionState>();
  State->RunIdHi = RunIdHi;
  State->RunIdLo = RunIdLo;
  State->ResumableSession = Resumable;
  State->RecoveredSession = Recovered;
  State->Decoder = std::make_unique<SegmentStreamDecoder>();
  {
    std::lock_guard<std::mutex> Guard(SessionsLock);
    State->Id = ForcedId ? ForcedId : NextSessionId++;
    if (ForcedId && ForcedId >= NextSessionId)
      NextSessionId = ForcedId + 1;
    Sessions[State->Id] = State;
    if (Resumable && (RunIdHi | RunIdLo))
      RunIdIndex[{RunIdHi, RunIdLo}] = State->Id;
    ++Accepted;
  }
  if (!Config.SpoolDir.empty()) {
    State->JournalPath =
        Config.SpoolDir + "/" +
        journalFileName(State->Id, RunIdHi, RunIdLo, Resumable);
    if (Recovered) {
      // The journal already exists; recoverFromSpool() reopens it for
      // append after replaying it.
      State->JournalOk = true;
    } else {
      State->JournalFd = ::open(State->JournalPath.c_str(),
                                O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (State->JournalFd < 0) {
        State->JournalPath.clear();
        DurabilityBroken.store(true, std::memory_order_relaxed);
        if (Metrics)
          Metrics->threadSlab().add(
              Metrics->counter("collector.journal.errors"));
      } else {
        State->JournalOk = true;
      }
    }
  }
  if (Metrics)
    Metrics->threadSlab().add(
        Metrics->counter("collector.sessions.accepted"));
  return State;
}

std::shared_ptr<CollectorServer::SessionState>
CollectorServer::handshakeSession(int Fd) {
  const int DeadlineMs = static_cast<int>(Config.HandshakeTimeoutMs);
  uint8_t Frame[StreamHelloSize];
  std::memcpy(Frame, "LRH1", 4);
  if (!recvAllDeadline(Fd, Frame + 4, StreamHelloSize - 4, DeadlineMs))
    return nullptr;
  uint64_t Hi = 0, Lo = 0;
  if (!decodeStreamHello(Frame, Hi, Lo))
    return nullptr;

  std::shared_ptr<SessionState> State;
  {
    std::lock_guard<std::mutex> Guard(SessionsLock);
    const auto It = RunIdIndex.find({Hi, Lo});
    if (It != RunIdIndex.end()) {
      const auto SIt = Sessions.find(It->second);
      if (SIt != Sessions.end())
        State = SIt->second;
    }
  }
  const bool Resumed = State != nullptr;
  if (!State)
    State = createSession(Hi, Lo, /*Resumable=*/true, /*Recovered=*/false);

  // Take over from a stale previous connection: the client reconnected
  // before its old reader noticed the break. Shut the old fd down and
  // wait for its reader to detach.
  for (;;) {
    {
      std::lock_guard<std::mutex> Guard(State->IngestLock);
      if (State->Ended)
        return nullptr;
      if (State->AttachedFd < 0) {
        State->AttachedFd = Fd;
        State->LastAckPos = State->LogicalPos.load(std::memory_order_relaxed);
        break;
      }
      ::shutdown(State->AttachedFd, SHUT_RDWR);
    }
    if (Stopping.load())
      return nullptr;
    ::usleep(1000);
  }
  State->Detached.store(false, std::memory_order_relaxed);
  State->DetachedAtMs.store(0, std::memory_order_relaxed);
  if (Resumed) {
    ResumedCount.fetch_add(1, std::memory_order_relaxed);
    if (Metrics)
      Metrics->threadSlab().add(
          Metrics->counter("collector.sessions.resumed"));
  }

  // Ack our durable position; the client answers with the offset it will
  // resume from (>= the ack; above it declares a spool-overflow gap).
  uint8_t Ack[StreamAckSize];
  const uint64_t Pos = State->LogicalPos.load(std::memory_order_relaxed);
  encodeStreamAck(Pos, Ack);
  uint8_t ResumeFrame[StreamResumeSize];
  uint64_t Resume = 0;
  if (!sendAllDeadline(Fd, Ack, sizeof(Ack), DeadlineMs) ||
      !recvAllDeadline(Fd, ResumeFrame, sizeof(ResumeFrame), DeadlineMs) ||
      !decodeStreamResume(ResumeFrame, Resume) || Resume < Pos) {
    std::lock_guard<std::mutex> Guard(State->IngestLock);
    if (State->AttachedFd == Fd)
      State->AttachedFd = -1;
    State->Detached.store(true, std::memory_order_relaxed);
    State->DetachedAtMs.store(nowMs(), std::memory_order_relaxed);
    return nullptr;
  }
  if (Resume > Pos) {
    // The client shed [Pos, Resume): its spool cap was hit while we were
    // unreachable. Account the hole and advance the logical stream past
    // it; a checkpoint persists the new base.
    const uint64_t Gap = Resume - Pos;
    GapBytesTotal.fetch_add(Gap, std::memory_order_relaxed);
    State->LogicalPos.store(Resume, std::memory_order_relaxed);
    State->StreamBase.fetch_add(Gap, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Guard(State->IngestLock);
      State->LastAckPos = Resume;
      // Tell the decoder the exact hole size so the session's coverage
      // stats account every shed byte — resyncing over the seam alone
      // would only count the residue it scans past.
      if (State->Decoder)
        State->Decoder->noteGap(Gap);
    }
    CheckpointRequested.store(true, std::memory_order_relaxed);
    if (Metrics)
      Metrics->threadSlab().add(
          Metrics->counter("collector.ingest.gap_bytes"), Gap);
  }
  return State;
}

bool CollectorServer::ingestBytes(SessionState &State, const uint8_t *Data,
                                  size_t N, bool &QueueClosed) {
  // Write-ahead: a byte is acked as durable only after it is journaled.
  if (State.JournalFd >= 0) {
    size_t Off = 0;
    while (Off < N) {
      const ssize_t W = ::write(State.JournalFd, Data + Off, N - Off);
      if (W > 0) {
        Off += static_cast<size_t>(W);
        continue;
      }
      if (W < 0 && errno == EINTR)
        continue;
      // The WAL broke (disk full, I/O error). Durability is gone for
      // this session but live detection can continue; stop journaling
      // and flag the daemon degraded.
      ::close(State.JournalFd);
      State.JournalFd = -1;
      State.JournalOk = false;
      DurabilityBroken.store(true, std::memory_order_relaxed);
      if (Metrics)
        Metrics->threadSlab().add(
            Metrics->counter("collector.journal.errors"));
      break;
    }
    if (State.JournalFd >= 0) {
      State.JournalBytes.fetch_add(N, std::memory_order_relaxed);
      if (Metrics)
        Metrics->threadSlab().add(
            Metrics->counter("collector.journal.bytes"), N);
    }
  }
  State.Decoder->feed(Data, N);
  State.Bytes.fetch_add(N, std::memory_order_relaxed);
  State.LogicalPos.fetch_add(N, std::memory_order_relaxed);
  BytesIngestedTotal.fetch_add(N, std::memory_order_relaxed);
  if (Metrics)
    Metrics->threadSlab().add(Metrics->counter("collector.bytes.ingested"),
                              N);
  forwardDecoded(State, QueueClosed);

  // Periodic durable-progress ack to resumable clients. Best-effort and
  // non-blocking: a dropped or torn ack only costs the client spool
  // retention, and its frame parser resyncs on the magic.
  if (State.ResumableSession && State.AttachedFd >= 0) {
    const uint64_t Pos = State.LogicalPos.load(std::memory_order_relaxed);
    if (Pos - State.LastAckPos >= Config.AckEveryBytes) {
      uint8_t Ack[StreamAckSize];
      encodeStreamAck(Pos, Ack);
      ::send(State.AttachedFd, Ack, sizeof(Ack),
             MSG_NOSIGNAL | MSG_DONTWAIT);
      State.LastAckPos = Pos;
    }
  }
  return true;
}

void CollectorServer::forwardDecoded(SessionState &State, bool &QueueClosed) {
  SegmentStreamDecoder::Chunk C;
  const bool CanSpill = !State.JournalPath.empty() && State.JournalOk;
  while (State.Decoder->take(C)) {
    if (QueueClosed)
      continue; // drain the decoder; the daemon is shutting down
    if (State.Spilling.load(std::memory_order_relaxed)) {
      // Already spilling: the journal holds these bytes; the tail is
      // replayed from it at session end.
      State.SpilledEvents.fetch_add(C.Records.size(),
                                    std::memory_order_relaxed);
      if (Metrics)
        Metrics->threadSlab().add(Metrics->counter("collector.spill.events"),
                                  C.Records.size());
      continue;
    }
    IngestItem Item;
    Item.K = IngestItem::Kind::Chunk;
    Item.SessionId = State.Id;
    Item.Tid = C.Tid;
    Item.Records = std::move(C.Records);
    Item.NumCounters = State.Decoder->numTimestampCounters();
    bool Pushed = false;
    if (!(Config.TestForceSpill && CanSpill)) {
      Pushed = Queue.tryPush(Item);
      for (unsigned A = 0;
           !Pushed && A < Config.SpillAfterRetries && !Queue.closed(); ++A) {
        std::this_thread::yield();
        Pushed = Queue.tryPush(Item);
      }
    }
    if (Pushed)
      continue;
    if (Queue.closed()) {
      QueueClosed = true;
      continue;
    }
    if (CanSpill) {
      // Overload: detection is behind and the queue is full. The journal
      // already holds this session's bytes, so shed to disk instead of
      // blocking the reader; the suffix is re-fed from the journal when
      // the session ends.
      State.Spilling.store(true, std::memory_order_relaxed);
      State.SpilledEvents.fetch_add(Item.Records.size(),
                                    std::memory_order_relaxed);
      if (Metrics) {
        telemetry::ThreadSlab &Slab = Metrics->threadSlab();
        Slab.add(Metrics->counter("collector.spill.sessions"));
        Slab.add(Metrics->counter("collector.spill.events"),
                 Item.Records.size());
      }
    } else if (!Queue.push(Item)) { // blocking backpressure
      QueueClosed = true;
    }
  }
  const TraceReadStats &S = State.Decoder->stats();
  State.SegmentsRecovered.store(S.SegmentsRecovered,
                                std::memory_order_relaxed);
  State.SegmentsDropped.store(S.SegmentsDropped, std::memory_order_relaxed);
  State.BytesDropped.store(S.BytesDropped, std::memory_order_relaxed);
}

void CollectorServer::finalizeIngest(
    const std::shared_ptr<SessionState> &State, bool OnlyIfDetached) {
  IngestItem End;
  {
    std::lock_guard<std::mutex> Guard(State->IngestLock);
    if (State->Ended)
      return;
    if (OnlyIfDetached && State->AttachedFd >= 0)
      return; // the client came back just before the idle timeout
    State->Ended = true;
    State->Decoder->finish();
    bool QueueClosed = false;
    forwardDecoded(*State, QueueClosed);
    const TraceReadStats &S = State->Decoder->stats();
    if (State->JournalFd >= 0) {
      ::close(State->JournalFd);
      State->JournalFd = -1;
    }
    State->Clean.store(S.CleanShutdown, std::memory_order_relaxed);
    if (Metrics) {
      telemetry::ThreadSlab &Slab = Metrics->threadSlab();
      Slab.add(Metrics->counter("collector.segments.recovered"),
               S.SegmentsRecovered);
      Slab.add(Metrics->counter("collector.segments.dropped"),
               S.SegmentsDropped);
    }
    End.K = IngestItem::Kind::End;
    End.SessionId = State->Id;
    End.NumCounters = State->Decoder->numTimestampCounters();
    End.Clean = S.CleanShutdown;
    End.SegmentsRecovered = S.SegmentsRecovered;
    End.SegmentsDropped = S.SegmentsDropped;
    End.ReplayTail = State->Spilling.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> Guard(SessionsLock);
    const auto It = RunIdIndex.find({State->RunIdHi, State->RunIdLo});
    if (It != RunIdIndex.end() && It->second == State->Id)
      RunIdIndex.erase(It);
  }
  Queue.push(End); // false only when closed (shutdown/crash): drop
}

void CollectorServer::readerLoop(int Fd) {
  // Sniff the first four bytes: "LRH1" opens the resumable stream
  // handshake; anything else (in practice the v2 file magic) is a legacy
  // fire-and-forget stream.
  uint8_t First[4];
  size_t Got = 0;
  bool Dead = false;
  while (Got < sizeof(First)) {
    const ssize_t N = ::recv(Fd, First + Got, sizeof(First) - Got, 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Dead = true;
      break;
    }
    Got += static_cast<size_t>(N);
  }

  std::shared_ptr<SessionState> State;
  bool QueueClosed = false;
  if (!Dead) {
    if (isStreamHello(First)) {
      State = handshakeSession(Fd);
      if (!State)
        Dead = true;
    } else {
      State = createSession(0, 0, /*Resumable=*/false, /*Recovered=*/false);
      std::lock_guard<std::mutex> Guard(State->IngestLock);
      State->AttachedFd = Fd;
      ingestBytes(*State, First, sizeof(First), QueueClosed);
    }
  }

  if (State && !Dead && !QueueClosed) {
    uint8_t Buf[1 << 16];
    for (;;) {
      const ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      std::lock_guard<std::mutex> Guard(State->IngestLock);
      if (State->AttachedFd != Fd)
        break; // a reconnect took this session over
      ingestBytes(*State, Buf, static_cast<size_t>(N), QueueClosed);
      if (QueueClosed)
        break;
    }
  }

  // Connection over. A resumable session without its footer detaches and
  // waits for the client to reconnect; everything else finalizes with
  // salvage semantics.
  if (State && !Crashed.load()) {
    bool DoFinalize = false;
    {
      std::lock_guard<std::mutex> Guard(State->IngestLock);
      if (State->AttachedFd == Fd) {
        State->AttachedFd = -1;
        const bool Footer = State->Decoder && State->Decoder->footerSeen();
        if (State->ResumableSession && !Footer && !State->Ended &&
            !Stopping.load() && !QueueClosed) {
          State->Detached.store(true, std::memory_order_relaxed);
          State->DetachedAtMs.store(nowMs(), std::memory_order_relaxed);
          if (Metrics)
            Metrics->threadSlab().add(
                Metrics->counter("collector.sessions.detached"));
        } else {
          DoFinalize = true;
        }
      }
    }
    if (DoFinalize)
      finalizeIngest(State);
  }

  {
    std::lock_guard<std::mutex> Guard(ReadersLock);
    for (size_t I = 0; I != LiveFds.size(); ++I)
      if (LiveFds[I] == Fd) {
        LiveFds.erase(LiveFds.begin() + I);
        break;
      }
  }
  ::close(Fd);
}

void CollectorServer::housekeepingLoop() {
  while (!Stopping.load()) {
    ::usleep(20 * 1000);
    if (Stopping.load())
      break;
    const uint64_t Now = nowMs();
    std::vector<std::shared_ptr<SessionState>> Idle;
    {
      std::lock_guard<std::mutex> Guard(SessionsLock);
      for (const auto &[Id, S] : Sessions) {
        if (!S->Active.load(std::memory_order_relaxed) ||
            !S->Detached.load(std::memory_order_relaxed))
          continue;
        const uint64_t At = S->DetachedAtMs.load(std::memory_order_relaxed);
        if (At && Now >= At && Now - At >= Config.SessionIdleTimeoutMs)
          Idle.push_back(S);
      }
    }
    for (const auto &S : Idle) {
      if (Metrics)
        Metrics->threadSlab().add(
            Metrics->counter("collector.sessions.idle_timeout"));
      finalizeIngest(S, /*OnlyIfDetached=*/true);
    }
  }
}

void CollectorServer::recoverFromSpool() {
  ::mkdir(Config.SpoolDir.c_str(), 0755);

  CollectorCheckpoint Ckpt;
  bool HaveCkpt = false;
  std::string Text;
  if (readFileInto(Config.SpoolDir + "/" + checkpointFileName(), Text)) {
    if (decodeCheckpoint(Text, Ckpt)) {
      HaveCkpt = true;
    } else if (Metrics) {
      // The atomic-rename write protocol makes a torn checkpoint
      // impossible; garbage here is operator error. Count it and start
      // from the journals alone.
      Metrics->threadSlab().add(
          Metrics->counter("collector.checkpoint.errors"));
    }
  }
  if (HaveCkpt) {
    {
      std::lock_guard<std::mutex> Guard(SessionsLock);
      if (Ckpt.NextSessionId > NextSessionId)
        NextSessionId = Ckpt.NextSessionId;
    }
    Triage.restore(Ckpt.Races, Ckpt.Sightings, Ckpt.SuppressedSightings,
                   Ckpt.RateLimitedUpdates);
    if (Config.Suppressions)
      for (const auto &[Name, Hits] : Ckpt.SuppressionHits)
        Config.Suppressions->restoreHits(Name, Hits);
  }

  for (const std::string &Name : listJournalFiles(Config.SpoolDir)) {
    uint64_t Id = 0, Hi = 0, Lo = 0;
    bool Resumable = false;
    parseJournalFileName(Name, Id, Hi, Lo, Resumable);
    const std::string Path = Config.SpoolDir + "/" + Name;
    struct stat St {};
    if (::stat(Path.c_str(), &St) != 0)
      continue;
    const uint64_t Size = static_cast<uint64_t>(St.st_size);

    const CheckpointSessionEntry *E = nullptr;
    for (const CheckpointSessionEntry &S : Ckpt.Sessions)
      if (S.Id == Id) {
        E = &S;
        break;
      }

    auto State = createSession(Hi, Lo, Resumable, /*Recovered=*/true, Id);
    {
      std::lock_guard<std::mutex> Guard(SessionsLock);
      if (E && !E->Published.empty()) {
        // Counts the previous life already published for this session:
        // the detection thread replays only the delta beyond them.
        std::map<StaticRaceKey, uint64_t> &M = RecoveredPublished[Id];
        for (const auto &[Key, Count] : E->Published)
          M[Key] = Count;
      }
    }
    // Reconstruct the ack position: the stream offset of journal byte 0
    // (checkpointed logical position minus checkpointed journal size,
    // i.e. the accumulated gaps) plus what is actually on disk now.
    const uint64_t Base =
        E ? E->LogicalPos - std::min(E->JournalBytes, E->LogicalPos) : 0;
    State->StreamBase.store(Base, std::memory_order_relaxed);
    State->LogicalPos.store(Base + Size, std::memory_order_relaxed);
    State->JournalBytes.store(Size, std::memory_order_relaxed);
    RecoveredCount.fetch_add(1, std::memory_order_relaxed);
    if (Metrics)
      Metrics->threadSlab().add(
          Metrics->counter("collector.sessions.recovered"));

    // Replay the journal through normal ingestion (the bytes are already
    // on disk, so the journal fd stays closed during the replay).
    bool WaitForClient = false;
    {
      std::lock_guard<std::mutex> Guard(State->IngestLock);
      bool QueueClosed = false;
      std::FILE *File = std::fopen(Path.c_str(), "rb");
      if (File) {
        uint8_t Buf[1 << 16];
        size_t N;
        while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0) {
          State->Decoder->feed(Buf, N);
          State->Bytes.fetch_add(N, std::memory_order_relaxed);
          BytesIngestedTotal.fetch_add(N, std::memory_order_relaxed);
          forwardDecoded(*State, QueueClosed);
        }
        std::fclose(File);
      }
      if (Resumable && !State->Decoder->footerSeen()) {
        // Mid-stream when the daemon died; the client may still be out
        // there spooling. Reopen the journal for append and wait.
        State->JournalFd = ::open(Path.c_str(), O_WRONLY | O_APPEND);
        if (State->JournalFd < 0) {
          State->JournalOk = false;
          DurabilityBroken.store(true, std::memory_order_relaxed);
          if (Metrics)
            Metrics->threadSlab().add(
                Metrics->counter("collector.journal.errors"));
        }
        State->Detached.store(true, std::memory_order_relaxed);
        State->DetachedAtMs.store(nowMs(), std::memory_order_relaxed);
        WaitForClient = true;
      }
    }
    if (!WaitForClient)
      finalizeIngest(State);
  }
}

void CollectorServer::publish(Detection &D, uint64_t SessionId) {
  uint64_t NewSightings = 0;
  for (const StaticRace &R : D.Report.staticRaces()) {
    uint64_t &Done = D.Published[R.Key];
    if (R.DynamicCount > Done) {
      Triage.observe(R.Key, R.DynamicCount - Done, R.SawWriteWrite,
                     R.ExampleAddr, SessionId);
      NewSightings += R.DynamicCount - Done;
      Done = R.DynamicCount;
    }
  }
  D.State->Races.store(D.Report.numStaticRaces(),
                       std::memory_order_relaxed);
  if (NewSightings) {
    ++PublishedSinceCkpt;
    if (Metrics)
      Metrics->threadSlab().add(
          Metrics->counter("collector.races.sightings"), NewSightings);
  }
}

void CollectorServer::replaySpilledTail(Detection &D, const IngestItem &End) {
  if (!D.State || D.State->JournalPath.empty() || !D.Scheduler)
    return;
  const TraceReadResult R = readTrace(D.State->JournalPath);
  if (!R.readable())
    return;
  uint64_t Replayed = 0;
  for (size_t Tid = 0; Tid != R.T.PerThread.size(); ++Tid) {
    const std::vector<EventRecord> &Stream = R.T.PerThread[Tid];
    const auto Added = D.AddedPerTid.find(static_cast<ThreadId>(Tid));
    const uint64_t Done = Added == D.AddedPerTid.end() ? 0 : Added->second;
    if (Stream.size() > Done) {
      // Chunks stop entering the queue once a session starts spilling
      // and never resume, so what detection saw is exactly each
      // thread's stream prefix; feed the rest.
      D.Scheduler->addEvents(static_cast<ThreadId>(Tid),
                             Stream.data() + Done, Stream.size() - Done);
      Replayed += Stream.size() - Done;
    }
  }
  (void)End;
  if (Metrics && Replayed)
    Metrics->threadSlab().add(
        Metrics->counter("collector.spill.replayed_events"), Replayed);
}

void CollectorServer::finishSession(Detection &D, const IngestItem &End) {
  uint64_t Gaps = 0;
  if (D.Scheduler) {
    size_t Delivered = D.Scheduler->drain(D.Detector);
    if (!D.Scheduler->fullyDrained()) {
      // Dropped segments punched holes into the timestamp order; skip
      // them like file salvage does instead of stalling forever.
      Delivered += D.Scheduler->drainAllowingGaps(D.Detector);
      Gaps = D.Scheduler->timestampGaps();
    }
    if (Delivered) {
      D.State->Events.fetch_add(Delivered, std::memory_order_relaxed);
      if (Metrics)
        Metrics->threadSlab().add(
            Metrics->counter("collector.events.ingested"), Delivered);
    }
    publish(D, End.SessionId);
  }
  D.State->TimestampGaps.store(Gaps, std::memory_order_relaxed);
  D.State->Clean.store(End.Clean, std::memory_order_relaxed);
  D.State->Active.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Guard(SessionsLock);
    ++Completed;
    if (End.Clean)
      ++CleanCount;
  }
  if (Metrics) {
    telemetry::ThreadSlab &Slab = Metrics->threadSlab();
    Slab.add(Metrics->counter("collector.sessions.completed"));
    if (End.Clean)
      Slab.add(Metrics->counter("collector.sessions.clean"));
    Slab.gaugeMax(Metrics->gaugeMax("collector.races.distinct"),
                  Triage.distinctRaces());
    Slab.gaugeMax(Metrics->gaugeMax("collector.queue.depth.highwater"),
                  Queue.stats().DepthHighWater);
  }
  SessionsCv.notify_all();
}

void CollectorServer::writeCheckpoint(
    const std::map<uint64_t, Detection> &Live) {
  if (Config.SpoolDir.empty())
    return;
  CollectorCheckpoint C;
  {
    std::lock_guard<std::mutex> Guard(SessionsLock);
    C.NextSessionId = NextSessionId;
  }
  // Totals and entries form one consistent snapshot: observe() only runs
  // on this (the detection) thread, so nothing moves between the calls.
  Triage.checkpointTotals(C.Sightings, C.SuppressedSightings,
                          C.RateLimitedUpdates);
  C.Races = Triage.checkpointEntries();
  const SuppressionSet &Supp =
      Config.Suppressions ? *Config.Suppressions : EmptySuppressions;
  for (size_t I = 0; I != Supp.size(); ++I)
    if (Supp.hits(I))
      C.SuppressionHits.emplace_back(Supp.entry(I).Name, Supp.hits(I));
  for (const auto &[Id, D] : Live) {
    if (!D.State || D.State->JournalPath.empty())
      continue;
    CheckpointSessionEntry E;
    E.Id = Id;
    E.RunIdHi = D.State->RunIdHi;
    E.RunIdLo = D.State->RunIdLo;
    E.Resumable = D.State->ResumableSession;
    // JournalBytes may run ahead of what this thread has detected; that
    // is fine — recovery replays the whole journal and subtracts
    // Published. Deriving LogicalPos from StreamBase (changes only on
    // rare gap declarations) keeps the pair consistent under races.
    E.JournalBytes = D.State->JournalBytes.load(std::memory_order_relaxed);
    E.LogicalPos =
        D.State->StreamBase.load(std::memory_order_relaxed) + E.JournalBytes;
    E.Published.assign(D.Published.begin(), D.Published.end());
    C.Sessions.push_back(std::move(E));
  }
  if (writeFileAtomic(Config.SpoolDir + "/" + checkpointFileName(),
                      encodeCheckpoint(C))) {
    CheckpointsWritten.fetch_add(1, std::memory_order_relaxed);
    if (Metrics)
      Metrics->threadSlab().add(
          Metrics->counter("collector.checkpoints.written"));
  } else {
    DurabilityBroken.store(true, std::memory_order_relaxed);
    if (Metrics)
      Metrics->threadSlab().add(
          Metrics->counter("collector.checkpoint.errors"));
  }
}

void CollectorServer::detectLoop() {
  std::map<uint64_t, Detection> Live;
  IngestItem Item;
  while (!Crashed.load(std::memory_order_relaxed) && Queue.pop(Item)) {
    Detection &D = Live[Item.SessionId];
    if (!D.Scheduler) {
      D.Scheduler =
          std::make_unique<ReplayScheduler>(Item.NumCounters);
      std::lock_guard<std::mutex> Guard(SessionsLock);
      D.State = Sessions.at(Item.SessionId);
      const auto It = RecoveredPublished.find(Item.SessionId);
      if (It != RecoveredPublished.end()) {
        D.Published = std::move(It->second);
        RecoveredPublished.erase(It);
      }
    }
    if (Item.K == IngestItem::Kind::Chunk) {
      D.AddedPerTid[Item.Tid] += Item.Records.size();
      D.Scheduler->addEvents(Item.Tid, std::move(Item.Records));
      const size_t Delivered = D.Scheduler->drain(D.Detector);
      D.State->Events.fetch_add(Delivered, std::memory_order_relaxed);
      if (Metrics && Delivered)
        Metrics->threadSlab().add(
            Metrics->counter("collector.events.ingested"), Delivered);
      // The detector's report is live; surface new sightings as they
      // happen.
      publish(D, Item.SessionId);
      const bool Want =
          CheckpointRequested.exchange(false, std::memory_order_relaxed) ||
          (Config.CheckpointEveryUpdates &&
           PublishedSinceCkpt >= Config.CheckpointEveryUpdates);
      if (Want && !Config.SpoolDir.empty()) {
        writeCheckpoint(Live);
        PublishedSinceCkpt = 0;
      }
    } else {
      if (Item.ReplayTail)
        replaySpilledTail(D, Item);
      finishSession(D, Item);
      if (!Config.SpoolDir.empty()) {
        // Checkpoint (with this session's final Published still in the
        // in-flight table) *before* unlinking its journal: a crash in
        // the window leaves a journal whose replay delta against the
        // checkpoint is zero.
        writeCheckpoint(Live);
        PublishedSinceCkpt = 0;
        if (D.State && !D.State->JournalPath.empty())
          ::unlink(D.State->JournalPath.c_str());
      }
      Live.erase(Item.SessionId);
    }
  }
  if (Crashed.load(std::memory_order_relaxed))
    return; // simulated SIGKILL: no settling, no final checkpoint
  // Queue closed with sessions still live (reader hit a closed queue
  // mid-stream during shutdown): settle them as unclean.
  for (auto &[Id, D] : Live) {
    IngestItem End;
    End.K = IngestItem::Kind::End;
    End.SessionId = Id;
    End.Clean = false;
    End.ReplayTail =
        D.State && D.State->Spilling.load(std::memory_order_relaxed);
    if (End.ReplayTail)
      replaySpilledTail(D, End);
    finishSession(D, End);
    if (D.State && !D.State->JournalPath.empty())
      ::unlink(D.State->JournalPath.c_str());
  }
  Live.clear();
  // Final checkpoint: triage totals and the session-id watermark survive
  // a clean restart with nothing in flight.
  if (!Config.SpoolDir.empty())
    writeCheckpoint(Live);
}

bool CollectorServer::degraded() const {
  if (DurabilityBroken.load(std::memory_order_relaxed))
    return true;
  std::lock_guard<std::mutex> Guard(SessionsLock);
  for (const auto &[Id, S] : Sessions)
    if (S->Active.load(std::memory_order_relaxed) &&
        S->Spilling.load(std::memory_order_relaxed))
      return true;
  return false;
}

bool CollectorServer::serveHttpUnix(const std::string &Path,
                                    std::string *Error) {
  int Fd = listenUnix(Path);
  if (Fd < 0) {
    if (Error)
      *Error = "cannot listen on " + Path + ": " + std::strerror(errno);
    return false;
  }
  std::lock_guard<std::mutex> Guard(HttpLock);
  HttpListenFds.push_back(Fd);
  HttpThreads.emplace_back(&CollectorServer::httpLoop, this, Fd);
  return true;
}

bool CollectorServer::serveHttpTcp(uint16_t Port, uint16_t *BoundPort,
                                   std::string *Error) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 16) != 0) {
    if (Error)
      *Error = std::strerror(errno);
    ::close(Fd);
    return false;
  }
  if (BoundPort) {
    socklen_t Len = sizeof(Addr);
    ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len);
    *BoundPort = ntohs(Addr.sin_port);
  }
  std::lock_guard<std::mutex> Guard(HttpLock);
  HttpListenFds.push_back(Fd);
  HttpThreads.emplace_back(&CollectorServer::httpLoop, this, Fd);
  return true;
}

bool CollectorServer::route(const std::string &Path, std::string &Body,
                            std::string &ContentType) const {
  if (Path == "/metrics") {
    Body = metricsText();
    ContentType = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  }
  if (Path == "/status") {
    Body = statusJson();
    ContentType = "application/json";
    return true;
  }
  if (Path == "/races") {
    Body = racesJson();
    ContentType = "application/json";
    return true;
  }
  if (Path == "/") {
    Body = "literace-collectd: /metrics /status /races\n";
    ContentType = "text/plain; charset=utf-8";
    return true;
  }
  return false;
}

void CollectorServer::httpLoop(int ListenSocket) {
  const int IoDeadline = static_cast<int>(Config.HttpIoTimeoutMs);
  for (;;) {
    int C = ::accept(ListenSocket, nullptr, nullptr);
    if (C < 0) {
      if (errno == EINTR && !Stopping.load())
        continue;
      break;
    }
    HttpRequests.fetch_add(1, std::memory_order_relaxed);
    if (Metrics)
      Metrics->threadSlab().add(
          Metrics->counter("collector.http.requests"));

    // Read the request head (tiny GETs only; this is a triage endpoint,
    // not a web server) under a per-connection deadline: a stalled or
    // byte-dribbling scraper is cut off instead of wedging this thread.
    const uint64_t Deadline = nowMs() + Config.HttpIoTimeoutMs;
    std::string Request;
    bool TimedOut = false;
    char Buf[1024];
    while (Request.size() < 8192 &&
           Request.find("\r\n\r\n") == std::string::npos &&
           Request.find("\n\n") == std::string::npos) {
      const uint64_t Now = nowMs();
      if (Now >= Deadline) {
        TimedOut = true;
        break;
      }
      pollfd P{C, POLLIN, 0};
      const int R = ::poll(&P, 1, static_cast<int>(Deadline - Now));
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0) {
        TimedOut = R == 0;
        break;
      }
      ssize_t N = ::recv(C, Buf, sizeof(Buf), MSG_DONTWAIT);
      if (N < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK))
        continue;
      if (N <= 0)
        break;
      Request.append(Buf, static_cast<size_t>(N));
    }
    if (TimedOut) {
      HttpTimeouts.fetch_add(1, std::memory_order_relaxed);
      if (Metrics)
        Metrics->threadSlab().add(
            Metrics->counter("collector.http.io_timeouts"));
      ::close(C);
      continue;
    }

    std::string Method, Path;
    {
      const size_t LineEnd = Request.find_first_of("\r\n");
      const std::string Line = Request.substr(
          0, LineEnd == std::string::npos ? Request.size() : LineEnd);
      const size_t Sp1 = Line.find(' ');
      const size_t Sp2 =
          Sp1 == std::string::npos ? std::string::npos
                                   : Line.find(' ', Sp1 + 1);
      if (Sp1 != std::string::npos) {
        Method = Line.substr(0, Sp1);
        Path = Line.substr(Sp1 + 1, Sp2 == std::string::npos
                                        ? std::string::npos
                                        : Sp2 - Sp1 - 1);
      }
      const size_t Query = Path.find('?');
      if (Query != std::string::npos)
        Path.resize(Query);
    }

    std::string Body, ContentType, Status = "200 OK";
    if (Method != "GET") {
      Status = "405 Method Not Allowed";
      Body = "only GET is supported\n";
      ContentType = "text/plain; charset=utf-8";
    } else if (!route(Path, Body, ContentType)) {
      Status = "404 Not Found";
      Body = "no such endpoint: " + Path + "\n";
      ContentType = "text/plain; charset=utf-8";
    }
    std::string Response = "HTTP/1.0 " + Status +
                           "\r\nContent-Type: " + ContentType +
                           "\r\nContent-Length: " +
                           std::to_string(Body.size()) +
                           "\r\nConnection: close\r\n\r\n" + Body;
    if (!sendAllDeadline(C, Response.data(), Response.size(), IoDeadline)) {
      HttpTimeouts.fetch_add(1, std::memory_order_relaxed);
      if (Metrics)
        Metrics->threadSlab().add(
            Metrics->counter("collector.http.io_timeouts"));
    }
    ::close(C);
  }
}

void CollectorServer::waitForSessions(uint64_t N) {
  std::unique_lock<std::mutex> Guard(SessionsLock);
  SessionsCv.wait(Guard, [&] {
    return Completed >= N || Stopping.load();
  });
}

uint64_t CollectorServer::sessionsAccepted() const {
  std::lock_guard<std::mutex> Guard(SessionsLock);
  return Accepted;
}

uint64_t CollectorServer::sessionsCompleted() const {
  std::lock_guard<std::mutex> Guard(SessionsLock);
  return Completed;
}

std::vector<SessionStatus> CollectorServer::sessionStatuses() const {
  std::vector<SessionStatus> Out;
  std::lock_guard<std::mutex> Guard(SessionsLock);
  Out.reserve(Sessions.size());
  for (const auto &[Id, State] : Sessions) {
    SessionStatus S;
    S.Id = Id;
    S.Active = State->Active.load(std::memory_order_relaxed);
    S.Clean = State->Clean.load(std::memory_order_relaxed);
    S.Bytes = State->Bytes.load(std::memory_order_relaxed);
    S.Events = State->Events.load(std::memory_order_relaxed);
    S.SegmentsRecovered =
        State->SegmentsRecovered.load(std::memory_order_relaxed);
    S.SegmentsDropped =
        State->SegmentsDropped.load(std::memory_order_relaxed);
    S.BytesDropped = State->BytesDropped.load(std::memory_order_relaxed);
    S.TimestampGaps = State->TimestampGaps.load(std::memory_order_relaxed);
    S.Races = State->Races.load(std::memory_order_relaxed);
    S.Resumable = State->ResumableSession;
    S.Detached = State->Detached.load(std::memory_order_relaxed);
    S.Spilling = State->Spilling.load(std::memory_order_relaxed);
    S.Recovered = State->RecoveredSession;
    S.SpilledEvents = State->SpilledEvents.load(std::memory_order_relaxed);
    S.LogicalPos = State->LogicalPos.load(std::memory_order_relaxed);
    Out.push_back(S);
  }
  return Out;
}

std::string CollectorServer::statusJson() const {
  uint64_t AcceptedNow, CompletedNow, CleanNow;
  {
    std::lock_guard<std::mutex> Guard(SessionsLock);
    AcceptedNow = Accepted;
    CompletedNow = Completed;
    CleanNow = CleanCount;
  }
  const std::vector<SessionStatus> Detail = sessionStatuses();
  uint64_t Bytes = 0, Events = 0, SegRecovered = 0, SegDropped = 0;
  uint64_t Spilled = 0;
  for (const SessionStatus &S : Detail) {
    Bytes += S.Bytes;
    Events += S.Events;
    SegRecovered += S.SegmentsRecovered;
    SegDropped += S.SegmentsDropped;
    Spilled += S.SpilledEvents;
  }
  const MpscQueueStats QStats = Queue.stats();

  std::string J = "{\n  \"schema\": \"literace.status.v1\",\n";
  J += "  \"listening\": " +
       jsonString(Config.IngestSocketPath) + ",\n";
  J += "  \"degraded\": ";
  appendBool(J, degraded());
  J += ",\n  \"sessions\": {\"accepted\": ";
  appendU64(J, AcceptedNow);
  J += ", \"active\": ";
  appendU64(J, AcceptedNow - CompletedNow);
  J += ", \"completed\": ";
  appendU64(J, CompletedNow);
  J += ", \"clean\": ";
  appendU64(J, CleanNow);
  J += ", \"salvaged\": ";
  appendU64(J, CompletedNow - CleanNow);
  J += "},\n  \"ingest\": {\"bytes\": ";
  appendU64(J, Bytes);
  J += ", \"events\": ";
  appendU64(J, Events);
  J += ", \"segments_recovered\": ";
  appendU64(J, SegRecovered);
  J += ", \"segments_dropped\": ";
  appendU64(J, SegDropped);
  J += ", \"queue\": {\"capacity\": ";
  appendU64(J, Queue.capacity());
  J += ", \"depth\": ";
  appendU64(J, Queue.approxSize());
  J += ", \"high_water\": ";
  appendU64(J, QStats.DepthHighWater);
  J += ", \"producer_parks\": ";
  appendU64(J, QStats.ProducerParks);
  J += ", \"consumer_parks\": ";
  appendU64(J, QStats.ConsumerParks);
  J += "}},\n  \"durability\": {\"spool_dir\": " +
       jsonString(Config.SpoolDir);
  J += ", \"enabled\": ";
  appendBool(J, !Config.SpoolDir.empty());
  J += ", \"broken\": ";
  appendBool(J, DurabilityBroken.load(std::memory_order_relaxed));
  J += ", \"checkpoints_written\": ";
  appendU64(J, CheckpointsWritten.load(std::memory_order_relaxed));
  J += ", \"recovered_sessions\": ";
  appendU64(J, RecoveredCount.load(std::memory_order_relaxed));
  J += ", \"resumed_connections\": ";
  appendU64(J, ResumedCount.load(std::memory_order_relaxed));
  J += ", \"gap_bytes\": ";
  appendU64(J, GapBytesTotal.load(std::memory_order_relaxed));
  J += ", \"spilled_events\": ";
  appendU64(J, Spilled);
  J += "},\n  \"http\": {\"requests\": ";
  appendU64(J, HttpRequests.load(std::memory_order_relaxed));
  J += ", \"io_timeouts\": ";
  appendU64(J, HttpTimeouts.load(std::memory_order_relaxed));
  J += "},\n  \"triage\": {\"distinct_races\": ";
  appendU64(J, Triage.distinctRaces());
  J += ", \"unsuppressed_races\": ";
  appendU64(J, Triage.unsuppressedRaces());
  J += ", \"sightings\": ";
  appendU64(J, Triage.totalSightings());
  J += ", \"suppressed_sightings\": ";
  appendU64(J, Triage.suppressedSightings());
  J += ", \"rate_limited_updates\": ";
  appendU64(J, Triage.rateLimitedUpdates());
  J += "},\n  \"session_detail\": [";
  for (size_t I = 0; I != Detail.size(); ++I) {
    const SessionStatus &S = Detail[I];
    J += I ? ",\n    {" : "\n    {";
    J += "\"id\": ";
    appendU64(J, S.Id);
    J += ", \"active\": ";
    appendBool(J, S.Active);
    J += ", \"clean\": ";
    appendBool(J, S.Clean);
    J += ", \"bytes\": ";
    appendU64(J, S.Bytes);
    J += ", \"events\": ";
    appendU64(J, S.Events);
    J += ", \"segments_recovered\": ";
    appendU64(J, S.SegmentsRecovered);
    J += ", \"segments_dropped\": ";
    appendU64(J, S.SegmentsDropped);
    J += ", \"bytes_dropped\": ";
    appendU64(J, S.BytesDropped);
    J += ", \"timestamp_gaps\": ";
    appendU64(J, S.TimestampGaps);
    J += ", \"races\": ";
    appendU64(J, S.Races);
    J += ", \"resumable\": ";
    appendBool(J, S.Resumable);
    J += ", \"detached\": ";
    appendBool(J, S.Detached);
    J += ", \"spilling\": ";
    appendBool(J, S.Spilling);
    J += ", \"recovered\": ";
    appendBool(J, S.Recovered);
    J += ", \"spilled_events\": ";
    appendU64(J, S.SpilledEvents);
    J += ", \"logical_pos\": ";
    appendU64(J, S.LogicalPos);
    J += "}";
  }
  J += Detail.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return J;
}

std::string CollectorServer::racesJson() const {
  const std::vector<TriagedRace> Races = Triage.races();
  std::string J = "{\n  \"schema\": \"literace.races.v1\",\n  \"races\": [";
  for (size_t I = 0; I != Races.size(); ++I) {
    const TriagedRace &R = Races[I];
    J += I ? ",\n    {" : "\n    {";
    J += "\"first_pc\": ";
    appendU64(J, R.Key.first);
    J += ", \"second_pc\": ";
    appendU64(J, R.Key.second);
    J += ", \"first_site\": " + jsonString(siteName(R.Key.first));
    J += ", \"second_site\": " +
         jsonString(siteName(R.Key.second));
    J += ", \"count\": ";
    appendU64(J, R.DynamicCount);
    J += ", \"sessions\": ";
    appendU64(J, R.Sessions);
    J += ", \"example_addr\": ";
    appendU64(J, R.ExampleAddr);
    J += ", \"write_write\": ";
    appendBool(J, R.SawWriteWrite);
    J += ", \"suppressed\": ";
    appendBool(J, R.Suppressed);
    if (R.Suppressed)
      J += ", \"suppression\": " + jsonString(R.SuppressionName);
    J += ", \"emitted\": ";
    appendU64(J, R.EmittedUpdates);
    J += ", \"rate_limited\": ";
    appendU64(J, R.RateLimitedUpdates);
    J += "}";
  }
  J += Races.empty() ? "],\n" : "\n  ],\n";
  const SuppressionSet &Supp =
      Config.Suppressions ? *Config.Suppressions : EmptySuppressions;
  J += "  \"suppressions_used\": [";
  bool First = true;
  for (size_t I = 0; I != Supp.size(); ++I) {
    if (Supp.hits(I) == 0)
      continue;
    J += First ? "\n    {" : ",\n    {";
    First = false;
    J += "\"name\": " + jsonString(Supp.entry(I).Name) +
         ", \"hits\": ";
    appendU64(J, Supp.hits(I));
    J += "}";
  }
  J += First ? "]\n}\n" : "\n  ]\n}\n";
  return J;
}

std::string CollectorServer::metricsText() const {
  telemetry::MetricsSnapshot Snap;
  if (Metrics)
    Snap = Metrics->snapshot();
  Snap.stampCapture();
  return telemetry::toPrometheusText(Snap);
}
