//===-- collector/Collector.h - Always-on collection daemon ----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The literace-collectd ingestion server (docs/COLLECTOR.md). Many
/// concurrent `literace-run --connect` processes stream their v2
/// segmented event logs — the exact on-disk byte format, CRC frames and
/// all — over an AF_UNIX stream socket. One CollectorServer:
///
///   accept thread ──► per-connection reader threads
///        each: recv ─► journal (WAL) ─► SegmentStreamDecoder ─► queue
///                                                   │
///   detection thread ◄───────────────────── single consumer
///        per-session ReplayScheduler + HBDetector
///        race-count deltas ─► ReportTriage (dedup / suppress / limit)
///
/// Live observability rides on top: statusJson() / racesJson() /
/// metricsText() render the daemon state, and serveHttpUnix() /
/// serveHttpTcp() expose them as an HTTP/1.0 endpoint (`/status`,
/// `/races`, `/metrics` in Prometheus text exposition).
///
/// A connection is one *session*: its stream is decoded and detected
/// independently (threads from different processes never mix), and a
/// broken connection degrades to the same salvage semantics as reading a
/// crashed process's on-disk trace — intact frames are kept, the
/// truncated tail is accounted, and the session finishes with
/// gap-tolerant draining instead of hanging the daemon.
///
/// Crash-only operation (docs/ROBUSTNESS.md): with a --spool-dir
/// configured, every session's raw bytes are journaled *before*
/// detection sees them, triage state is checkpointed atomically as a
/// `literace.triage.v1` document, and start() recovers both — salvaging
/// partial journals through the same gap-tolerant path as file reads and
/// replaying only the per-race count deltas beyond what the checkpoint
/// already published, so a kill at any byte offset never double-counts.
/// Clients speaking the resumable stream protocol (support/ByteOutput.h)
/// reconnect mid-session and resume from the daemon's acked durable
/// position; when detection falls behind, a journaled session spills to
/// its journal instead of growing the queue and the daemon reports
/// itself `degraded` until the tail is replayed at session end.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_COLLECTOR_COLLECTOR_H
#define LITERACE_COLLECTOR_COLLECTOR_H

#include "collector/Checkpoint.h"
#include "collector/ReportTriage.h"
#include "collector/Suppressions.h"
#include "detector/HBDetector.h"
#include "detector/Replay.h"
#include "runtime/EventLog.h"
#include "support/MpscChunkQueue.h"
#include "telemetry/Metrics.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace literace {
namespace collector {

/// Configuration of a CollectorServer.
struct CollectorConfig {
  /// Path of the AF_UNIX ingest socket to listen on (required; an
  /// existing socket file is replaced).
  std::string IngestSocketPath;
  /// Ingest queue capacity (chunks); producers feel backpressure beyond.
  size_t QueueCapacity = 1024;
  /// Triage tuning (rate limit, injectable clock).
  TriageConfig Triage;
  /// Optional suppression set; must outlive the server.
  SuppressionSet *Suppressions = nullptr;
  /// Metrics override for tests (resolveRegistry semantics).
  telemetry::MetricsRegistry *Metrics = nullptr;

  /// Directory for write-ahead session journals and triage checkpoints
  /// (docs/ROBUSTNESS.md). Empty disables durability — no journals, no
  /// checkpoints, no recovery. Created on start() if missing.
  std::string SpoolDir;
  /// Write a triage checkpoint after this many emitted race updates
  /// (plus always at session finish and on resume gaps). 0 checkpoints
  /// only at session boundaries.
  uint64_t CheckpointEveryUpdates = 64;
  /// Ack journaled progress to resumable clients every this many
  /// logical-stream bytes (bounds their spool retention).
  uint64_t AckEveryBytes = 1 << 20;
  /// tryPush attempts (with yields) before a journaled session spills
  /// chunks to its journal instead of blocking the reader on the queue.
  unsigned SpillAfterRetries = 64;
  /// A detached resumable session (client reconnecting) is finalized
  /// with salvage semantics after this long with no connection.
  uint64_t SessionIdleTimeoutMs = 30000;
  /// Per-connection HTTP I/O deadline: a stalled scraper is cut off
  /// instead of wedging the serving thread.
  uint64_t HttpIoTimeoutMs = 5000;
  /// Deadline for each resumable-protocol handshake frame.
  uint64_t HandshakeTimeoutMs = 2000;
  /// Test hook: journaled sessions spill every chunk, so detection runs
  /// entirely from the journal replay at session end.
  bool TestForceSpill = false;
};

/// Point-in-time status of one ingest session (for /status).
struct SessionStatus {
  uint64_t Id = 0;
  bool Active = false;
  bool Clean = false; ///< stream ended with a footer at EOF
  uint64_t Bytes = 0;
  uint64_t Events = 0;
  uint64_t SegmentsRecovered = 0;
  uint64_t SegmentsDropped = 0;
  uint64_t BytesDropped = 0; ///< shed/corrupt bytes, declared gaps included
  uint64_t TimestampGaps = 0;
  uint64_t Races = 0; ///< distinct static races in this session
  bool Resumable = false; ///< spoke the resumable stream handshake
  bool Detached = false;  ///< live but currently between connections
  bool Spilling = false;  ///< overloaded: chunks deferred to journal
  bool Recovered = false; ///< re-created from a journal at startup
  uint64_t SpilledEvents = 0;
  uint64_t LogicalPos = 0; ///< client-stream offset acked as durable
};

/// The daemon core: socket ingestion, per-session incremental detection,
/// and the observability surface.
class CollectorServer {
public:
  explicit CollectorServer(CollectorConfig Config);
  ~CollectorServer();

  CollectorServer(const CollectorServer &) = delete;
  CollectorServer &operator=(const CollectorServer &) = delete;

  /// Binds the ingest socket, recovers spooled state (journals +
  /// checkpoint) when SpoolDir is set, and starts the accept, detection
  /// and housekeeping threads. False (with \p Error) if the socket
  /// cannot be bound.
  bool start(std::string *Error = nullptr);

  /// Graceful shutdown: stops accepting, ends live sessions with salvage
  /// semantics, drains the queue, and joins every thread. Idempotent.
  void stop();

  /// Simulated daemon crash for recovery tests: tears every thread down
  /// *without* final checkpoints, journal unlinks, or queue draining —
  /// whatever is on disk is exactly what a SIGKILL would have left.
  void crashForTest();

  /// Serves the HTTP endpoint on an AF_UNIX socket at \p Path.
  bool serveHttpUnix(const std::string &Path, std::string *Error = nullptr);

  /// Serves the HTTP endpoint on 127.0.0.1:\p Port (0 = ephemeral; the
  /// bound port is returned in \p BoundPort).
  bool serveHttpTcp(uint16_t Port, uint16_t *BoundPort = nullptr,
                    std::string *Error = nullptr);

  /// Blocks until \p N sessions have completed (connection closed and
  /// every event detected) or stop() is called.
  void waitForSessions(uint64_t N);

  uint64_t sessionsAccepted() const;
  uint64_t sessionsCompleted() const;

  /// Total bytes ingested across all sessions and lives, including
  /// recovery replay (drives literace-collectd --kill-after-bytes).
  uint64_t bytesIngested() const {
    return BytesIngestedTotal.load(std::memory_order_relaxed);
  }

  /// True while the daemon is shedding load (a session is spilling to
  /// its journal) or has lost durability (journal/checkpoint I/O error).
  bool degraded() const;

  /// Triage checkpoints committed to the spool directory.
  uint64_t checkpointsWritten() const {
    return CheckpointsWritten.load(std::memory_order_relaxed);
  }

  /// The triage pipeline (live race set, suppression/rate-limit state).
  ReportTriage &triage() { return Triage; }
  const ReportTriage &triage() const { return Triage; }

  /// Per-session detail in id order.
  std::vector<SessionStatus> sessionStatuses() const;

  /// The literace.status.v1 JSON document served at /status.
  std::string statusJson() const;

  /// The literace.races.v1 JSON document served at /races.
  std::string racesJson() const;

  /// The Prometheus text exposition served at /metrics.
  std::string metricsText() const;

  /// Routes one HTTP request path to its response body + content type;
  /// false for unknown paths. Exposed for direct testing.
  bool route(const std::string &Path, std::string &Body,
             std::string &ContentType) const;

private:
  /// One queued hand-off from a reader to the detection thread.
  struct IngestItem {
    enum class Kind : uint8_t { Chunk, End } K = Kind::Chunk;
    uint64_t SessionId = 0;
    ThreadId Tid = 0;
    std::vector<EventRecord> Records;
    unsigned NumCounters = 128;
    bool Clean = false;
    uint64_t SegmentsRecovered = 0;
    uint64_t SegmentsDropped = 0;
    /// End only: the session spilled chunks to its journal; re-read the
    /// journal and feed the tail beyond what was already queued.
    bool ReplayTail = false;
  };

  /// Shared live state of one session (readers and the detection thread
  /// update disjoint fields; /status reads them racily but torn-free).
  /// A resumable session outlives any single connection: reader threads
  /// attach to and detach from it as the client reconnects.
  struct SessionState {
    uint64_t Id = 0;
    uint64_t RunIdHi = 0, RunIdLo = 0; ///< const after creation
    bool ResumableSession = false;     ///< const after creation
    bool RecoveredSession = false;     ///< const after creation
    std::string JournalPath;           ///< const after creation; "" = none
    std::atomic<bool> Active{true};
    std::atomic<bool> Clean{false};
    std::atomic<uint64_t> Bytes{0};
    std::atomic<uint64_t> Events{0};
    std::atomic<uint64_t> SegmentsRecovered{0};
    std::atomic<uint64_t> SegmentsDropped{0};
    std::atomic<uint64_t> BytesDropped{0};
    std::atomic<uint64_t> TimestampGaps{0};
    std::atomic<uint64_t> Races{0};
    /// Client-stream offset acked as durable (journaled bytes plus
    /// declared resume gaps).
    std::atomic<uint64_t> LogicalPos{0};
    std::atomic<uint64_t> JournalBytes{0};
    /// LogicalPos − JournalBytes: the stream offset of journal byte 0
    /// plus every declared gap. Changes only when a resume gap is
    /// declared, so a checkpoint can read it torn-free and recovery can
    /// reconstruct the ack position as StreamBase + journal file size —
    /// immune to the reader racing LogicalPos/JournalBytes updates.
    std::atomic<uint64_t> StreamBase{0};
    std::atomic<bool> Spilling{false};
    std::atomic<uint64_t> SpilledEvents{0};
    std::atomic<bool> Detached{false};
    std::atomic<uint64_t> DetachedAtMs{0};

    /// Reader-side ingest state, surviving connection turnover.
    /// Guarded by IngestLock; never held while taking SessionsLock
    /// is fine (SessionsLock is never taken under IngestLock holders
    /// except finalizeIngest, which orders IngestLock → SessionsLock;
    /// no path orders them the other way).
    std::mutex IngestLock;
    std::unique_ptr<SegmentStreamDecoder> Decoder;
    int JournalFd = -1;
    /// False once a journal write failed: the session degrades to
    /// live-only (no spill, acks no longer durable).
    bool JournalOk = false;
    int AttachedFd = -1;
    uint64_t LastAckPos = 0;
    bool Ended = false;
  };

  /// Detection-thread-private state of one in-flight session.
  struct Detection;

  void acceptLoop();
  void readerLoop(int Fd);
  void detectLoop();
  void housekeepingLoop();
  void httpLoop(int ListenFd);
  void publish(Detection &D, uint64_t SessionId);
  void finishSession(Detection &D, const IngestItem &End);

  /// Creates and registers a session. \p ForcedId re-creates a recovered
  /// session under its old id (and opens its journal for append instead
  /// of truncating).
  std::shared_ptr<SessionState> createSession(uint64_t RunIdHi,
                                              uint64_t RunIdLo,
                                              bool Resumable, bool Recovered,
                                              uint64_t ForcedId = 0);
  /// Runs the resumable-protocol handshake on \p Fd (whose "LRH1" magic
  /// was already consumed): resolves or creates the session by run id,
  /// takes over any stale attached connection, acks the durable
  /// position, and records the client's declared resume gap. Null if the
  /// handshake fails or the session already ended.
  std::shared_ptr<SessionState> handshakeSession(int Fd);
  /// Journals then decodes \p N bytes and forwards decoded chunks
  /// (IngestLock held by the caller). False = the WAL broke on a
  /// resumable session; tear the connection so the client's spool keeps
  /// the bytes.
  bool ingestBytes(SessionState &State, const uint8_t *Data, size_t N,
                   bool &QueueClosed);
  void forwardDecoded(SessionState &State, bool &QueueClosed);
  /// Ends a session's ingest side: finishes the decoder, closes the
  /// journal fd, and enqueues the End item. Idempotent. With
  /// \p OnlyIfDetached, a session that re-attached meanwhile is left
  /// alone (housekeeping's idle timeout racing a reconnect).
  void finalizeIngest(const std::shared_ptr<SessionState> &State,
                      bool OnlyIfDetached = false);
  /// Startup recovery: loads the checkpoint, re-creates sessions from
  /// their journals, and replays journal bytes through normal ingestion
  /// with already-published counts subtracted.
  void recoverFromSpool();
  /// Re-reads a spilled session's journal and feeds each thread's tail
  /// beyond what detection already consumed.
  void replaySpilledTail(Detection &D, const IngestItem &End);
  /// Writes the triage checkpoint (detection thread only; \p Live is its
  /// in-flight table, whose Published maps make replay idempotent).
  void writeCheckpoint(const std::map<uint64_t, Detection> &Live);

  CollectorConfig Config;
  SuppressionSet EmptySuppressions;
  ReportTriage Triage;
  MpscChunkQueue<IngestItem> Queue;
  telemetry::MetricsRegistry *Metrics = nullptr;

  int ListenFd = -1;
  std::atomic<bool> Started{false};
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Crashed{false};

  mutable std::mutex SessionsLock;
  std::map<uint64_t, std::shared_ptr<SessionState>> Sessions;
  /// run id → session id, for reconnect routing. Guarded by
  /// SessionsLock; entries die when their session's ingest finalizes.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> RunIdIndex;
  /// Recovered sessions' already-published counts, handed to the
  /// detection thread when it first sees the session. Guarded by
  /// SessionsLock.
  std::map<uint64_t, std::map<StaticRaceKey, uint64_t>> RecoveredPublished;
  uint64_t NextSessionId = 1;
  uint64_t Accepted = 0;   // guarded by SessionsLock
  uint64_t Completed = 0;  // guarded by SessionsLock
  uint64_t CleanCount = 0; // guarded by SessionsLock
  std::condition_variable SessionsCv;

  std::mutex ReadersLock;
  std::vector<std::thread> Readers;
  std::vector<int> LiveFds; // guarded by ReadersLock

  std::thread Acceptor;
  std::thread Detector;
  std::thread Housekeeper;

  std::mutex HttpLock;
  std::vector<std::thread> HttpThreads;
  std::vector<int> HttpListenFds; // guarded by HttpLock
  std::atomic<uint64_t> HttpRequests{0};
  std::atomic<uint64_t> HttpTimeouts{0};

  std::atomic<uint64_t> BytesIngestedTotal{0};
  std::atomic<uint64_t> CheckpointsWritten{0};
  std::atomic<uint64_t> RecoveredCount{0};
  std::atomic<uint64_t> ResumedCount{0};
  std::atomic<uint64_t> GapBytesTotal{0};
  std::atomic<bool> DurabilityBroken{false};
  /// Set by resume gaps; the detection thread folds it into its next
  /// checkpoint decision.
  std::atomic<bool> CheckpointRequested{false};
  /// Emitted race updates since the last checkpoint (detection thread
  /// only).
  uint64_t PublishedSinceCkpt = 0;
};

} // namespace collector
} // namespace literace

#endif // LITERACE_COLLECTOR_COLLECTOR_H
