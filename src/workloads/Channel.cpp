//===-- workloads/Channel.cpp - Dryad-channel workload --------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Channel.h"

#include "support/SplitMix64.h"

#include <cassert>
#include <chrono>
#include <thread>

using namespace literace;

/// A fixed-size data record flowing through the channel.
struct ChannelWorkload::Record {
  uint8_t Payload[64] = {};
  uint64_t Checksum = 0;
  uint32_t Seq = 0;
  uint8_t Oversize = 0;
};

/// The bounded MPMC channel: ring of record pointers guarded by a mutex,
/// with counting semaphores for slots and items. All internal accesses are
/// properly synchronized (and logged), so the detector must stay silent
/// about them.
struct ChannelWorkload::QueueState {
  static constexpr uint32_t Capacity = 64;
  Record *Ring[Capacity] = {};
  uint32_t Head = 0;
  uint32_t Tail = 0;
  Mutex Lock;
  Semaphore Slots{Capacity};
  Semaphore Items{0};
};

struct ChannelWorkload::SharedState {
  QueueState Queue;
  MonitoredAllocator Allocator;

  // -- Properly synchronized validation state (guarded by StatsLock). --
  Mutex StatsLock;
  uint64_t ValidatedItems = 0;

  // -- Intentionally racy diagnostics (see the seeded-race manifest). --
  uint64_t TuningHint = 0;          // rare: channel-tuning-hint
  uint64_t FinalTotal = 0;          // rare: channel-final-total
  uint64_t ReporterHeartbeat = 0;   // rare: channel-drain-heartbeat
  uint64_t OversizeSeq = 0;         // rare: channel-oversize-once
  uint8_t StopRequested = 0;        // rare: channel-stop-flag
  uint64_t PushCountSlots[8] = {};  // frequent: channel-push-count
  uint64_t PopCountSlots[8] = {};   // frequent: channel-pop-count
  uint64_t LastPushSize = 0;        // frequent: channel-last-size
};

ChannelWorkload::ChannelWorkload(bool WithStdLib) : WithStdLib(WithStdLib) {}

std::string ChannelWorkload::name() const {
  return WithStdLib ? "Dryad Channel + stdlib" : "Dryad Channel";
}

void ChannelWorkload::bind(Runtime &RT) {
  assert(!Bound && "workload bound twice; create a fresh instance per run");
  FunctionRegistry &Reg = RT.registry();
  FnPush = Reg.registerFunction("chan.push");
  FnPop = Reg.registerFunction("chan.pop");
  FnSetup = Reg.registerFunction("pipeline.setup");
  FnTune = Reg.registerFunction("pipeline.tune");
  FnProduce = Reg.registerFunction("pipeline.produce");
  FnConsume = Reg.registerFunction("pipeline.consume");
  FnFinishProducer = Reg.registerFunction("pipeline.finishProducer");
  FnTeardown = Reg.registerFunction("pipeline.teardown");
  FnPoll = Reg.registerFunction("reporter.poll");
  FnDrain = Reg.registerFunction("pipeline.drain");
  if (WithStdLib)
    StdLib.bind(RT);
  declareModel(RT.accessModel());
  Bound = true;
}

void ChannelWorkload::declareModel(AccessModel &M) {
  auto P = [](FunctionId F, uint32_t Site) { return makePc(F, Site); };
  const RoleId Main = M.declareRole("main", 1);
  const RoleId Producer = M.declareRole("producer", 3);
  const RoleId Consumer = M.declareRole("consumer", 2);
  const RoleId Reporter = M.declareRole("reporter", 1);
  const RoleId Drainer = M.declareRole("drainer", 1);
  const LockId QueueLock = M.declareLock("chan.queue-lock");
  const LockId StatsLock = M.declareLock("chan.stats-lock");
  constexpr auto Rd = SiteAccess::Read;
  constexpr auto Wr = SiteAccess::Write;

  // Happens-before skeleton: the setup loop runs before any worker is
  // forked, and the final teardown block runs after every join. The
  // stop-flag store lives in FnTeardown but executes while the reporter
  // is still running, so it is tagged steady, NOT teardown — phases
  // describe the synchronization structure, not source layout.
  const PhaseId Init = M.declarePhase("init");
  const PhaseId Steady = M.declarePhase("steady");
  const PhaseId Teardown = M.declarePhase("teardown");
  M.orderPhases(Init, Steady, PhaseOrderKind::ForkJoin);
  M.orderPhases(Steady, Teardown, PhaseOrderKind::ForkJoin);

  // Queue cursors: every site runs inside the queue lock, so the lockset
  // analysis elides them. Push runs on producers plus the main thread
  // (sentinels); pop on consumers plus the drainer.
  const VarId Tail = M.declareVar("chan.tail");
  M.declareSite(P(FnPush, SiteTailRead), Rd, Tail, {Producer, Main},
                {QueueLock}, Steady);
  M.declareSite(P(FnPush, SiteTailWrite), Wr, Tail, {Producer, Main},
                {QueueLock}, Steady);
  const VarId Head = M.declareVar("chan.head");
  M.declareSite(P(FnPop, SiteHeadRead), Rd, Head, {Consumer, Drainer},
                {QueueLock}, Steady);
  M.declareSite(P(FnPop, SiteHeadWrite), Wr, Head, {Consumer, Drainer},
                {QueueLock}, Steady);

  // The ring: the setup loop clears the slots before the lock discipline
  // starts, so the lockset analysis alone cannot prove it. The MHP pass
  // can: the init-phase stores are fork-ordered before every steady
  // access, and the steady pairs share the queue lock.
  const VarId Ring = M.declareVar("chan.ring");
  M.declareSite(P(FnPush, SiteRingWrite), Wr, Ring, {Producer, Main},
                {QueueLock}, Steady);
  M.declareSite(P(FnPop, SiteRingRead), Rd, Ring, {Consumer, Drainer},
                {QueueLock}, Steady);
  M.declareSite(P(FnSetup, SiteSetupInit), Wr, Ring, {Main}, {}, Init);

  // Validated-item aggregate: consistently guarded inside consume, and
  // the bare teardown check is join-ordered after every consumer — a
  // fork/join fact the phase skeleton expresses, so the MHP pass elides
  // the consume sites (the teardown site still logs: it shares a Pc with
  // the racy final-total check).
  const VarId Validated = M.declareVar("chan.validated-items");
  M.declareSite(P(FnConsume, SiteValidRead), Rd, Validated, {Consumer},
                {StatsLock}, Steady);
  M.declareSite(P(FnConsume, SiteValidWrite), Wr, Validated, {Consumer},
                {StatsLock}, Steady);
  M.declareSite(P(FnTeardown, SiteFinalTotalCheck), Rd, Validated, {Main},
                {}, Teardown);

  // Record fields cross the producer/consumer boundary through the
  // channel; the handoff ordering is real but neither lock-shaped nor
  // phase-shaped (producers and consumers share the steady phase), so
  // they stay logged (conservative).
  const VarId RecFields = M.declareVar("chan.record-fields");
  M.declareSite(P(FnProduce, SiteRecSeqWrite), Wr, RecFields, {Producer},
                {}, Steady);
  M.declareSite(P(FnProduce, SiteRecChecksumWrite), Wr, RecFields,
                {Producer}, {}, Steady);
  M.declareSite(P(FnProduce, SiteRecOversizeWrite), Wr, RecFields,
                {Producer}, {}, Steady);
  M.declareSite(P(FnConsume, SiteRecSeqRead), Rd, RecFields, {Consumer}, {},
                Steady);
  M.declareSite(P(FnConsume, SiteRecChecksumRead), Rd, RecFields,
                {Consumer}, {}, Steady);
  M.declareSite(P(FnConsume, SiteRecOversizeRead), Rd, RecFields,
                {Consumer}, {}, Steady);

  // Payload folds: in the plain configuration no instrumented site ever
  // writes the payload bytes (the stdlib's fill runs uninstrumented), so
  // the read-only analysis elides the hot fold loops. With the stdlib
  // instrumented its fill sites DO write these addresses under the
  // stdlib's own caller-buffer variable, and declaring the folds
  // read-only here would alias that variable unsoundly — so they stay
  // undeclared (and logged) in that configuration.
  if (!WithStdLib) {
    const VarId Payload = M.declareVar("chan.record-payload");
    M.declareSite(P(FnProduce, SitePayloadFold), Rd, Payload, {Producer});
    M.declareSite(P(FnConsume, SiteConsumeFold), Rd, Payload, {Consumer});
  }

  // Seeded racy diagnostics: declared honestly so the analysis proves
  // nothing about them and every keeper site keeps logging. The steady
  // phase tags are honest too — the conflicting pairs all share the
  // steady phase, so the MHP pass cannot discharge them.
  const VarId Tuning = M.declareVar("chan.tuning-hint");
  M.declareSite(P(FnTune, SiteTuneWrite), Wr, Tuning, {Main}, {}, Steady);
  M.declareSite(P(FnProduce, SiteTuningRead), Rd, Tuning, {Producer}, {},
                Steady);

  const VarId FinalTotal = M.declareVar("chan.final-total");
  M.declareSite(P(FnFinishProducer, SiteFinalTotalWrite), Wr, FinalTotal,
                {Producer}, {}, Steady);
  M.declareSite(P(FnTeardown, SiteFinalTotalCheck), Rd, FinalTotal, {Main},
                {}, Teardown);

  const VarId Heartbeat = M.declareVar("chan.reporter-heartbeat");
  M.declareSite(P(FnPoll, SiteHeartbeatWrite), Wr, Heartbeat, {Reporter},
                {}, Steady);
  M.declareSite(P(FnDrain, SiteHeartbeatRead), Rd, Heartbeat, {Drainer}, {},
                Steady);

  const VarId Oversize = M.declareVar("chan.oversize-seq");
  M.declareSite(P(FnPush, SiteOversizeWrite), Wr, Oversize,
                {Producer, Main}, {}, Steady);
  M.declareSite(P(FnPoll, SiteOversizeRead), Rd, Oversize, {Reporter}, {},
                Steady);

  // The stop store runs in FnTeardown while the reporter still polls:
  // steady phase, hence the write/read pair stays undischarged (seeded
  // channel-stop-flag).
  const VarId Stop = M.declareVar("chan.stop-flag");
  M.declareSite(P(FnTeardown, SiteStopWrite), Wr, Stop, {Main}, {}, Steady);
  M.declareSite(P(FnPoll, SiteStopRead), Rd, Stop, {Reporter}, {}, Steady);
  M.declareSite(P(FnSetup, SiteSetupInit), Wr, Stop, {Main}, {}, Init);

  const VarId PushCounts = M.declareVar("chan.push-counts");
  M.declareSite(P(FnPush, SitePushCountRead), Rd, PushCounts,
                {Producer, Main}, {}, Steady);
  M.declareSite(P(FnPush, SitePushCountWrite), Wr, PushCounts,
                {Producer, Main}, {}, Steady);
  M.declareSite(P(FnPush, SitePushCountRecheck), Rd, PushCounts,
                {Producer, Main}, {}, Steady);
  M.declareSite(P(FnPoll, SitePollPushCount), Rd, PushCounts, {Reporter},
                {}, Steady);

  const VarId PopCounts = M.declareVar("chan.pop-counts");
  M.declareSite(P(FnPop, SitePopCountRead), Rd, PopCounts,
                {Consumer, Drainer}, {}, Steady);
  M.declareSite(P(FnPop, SitePopCountWrite), Wr, PopCounts,
                {Consumer, Drainer}, {}, Steady);
  M.declareSite(P(FnPop, SitePopCountRecheck), Rd, PopCounts,
                {Consumer, Drainer}, {}, Steady);
  M.declareSite(P(FnPoll, SitePollPopCount), Rd, PopCounts, {Reporter}, {},
                Steady);

  const VarId LastSize = M.declareVar("chan.last-push-size");
  M.declareSite(P(FnPush, SiteLastSizeWrite), Wr, LastSize,
                {Producer, Main}, {}, Steady);
  M.declareSite(P(FnPoll, SitePollLastSize), Rd, LastSize, {Reporter}, {},
                Steady);
  M.declareSite(P(FnSetup, SiteSetupInit), Wr, LastSize, {Main}, {}, Init);

  // Sync-free regions: the slot-counter blocks re-read the counter they
  // just wrote — same address, no synchronization in between — so the
  // redundancy pass elides the recheck even though the variables stay
  // racy (the first read and the write still log).
  M.declareRegion("chan.push-count-block",
                  {P(FnPush, SitePushCountRead),
                   P(FnPush, SitePushCountWrite),
                   P(FnPush, SitePushCountRecheck)});
  M.declareRegion("chan.pop-count-block",
                  {P(FnPop, SitePopCountRead), P(FnPop, SitePopCountWrite),
                   P(FnPop, SitePopCountRecheck)});
}

void ChannelWorkload::chanPush(ThreadContext &TC, SharedState &S,
                               Record *Rec, uint32_t Size, bool FromProducer,
                               bool *WroteOversize) {
  S.Queue.Slots.acquire(TC);
  // Once Rec is in the ring a consumer may pop and free it (another
  // producer's Items release can wake one), so snapshot what the
  // diagnostic below needs before publishing.
  const bool Oversize = Rec && Rec->Oversize;
  const uint64_t Seq = Rec ? static_cast<uint64_t>(Rec->Seq) : 0;
  TC.run(FnPush, [&](auto &T) {
    S.Queue.Lock.lock(TC);
    uint32_t Tail = T.load(&S.Queue.Tail, SiteTailRead);
    T.store(&S.Queue.Ring[Tail % QueueState::Capacity], Rec, SiteRingWrite);
    T.store(&S.Queue.Tail, Tail + 1, SiteTailWrite);
    S.Queue.Lock.unlock(TC);

    // RACE (frequent, channel-push-count): per-thread slot counters kept
    // outside the lock; the reporter reads them bare.
    unsigned Slot = TC.tid() & 7u;
    uint64_t Count = T.load(&S.PushCountSlots[Slot], SitePushCountRead);
    T.store(&S.PushCountSlots[Slot], Count + 1, SitePushCountWrite);
    // Redundant recheck in the same sync-free region: the read above
    // already logged this address, so the redundancy pass elides it.
    (void)T.load(&S.PushCountSlots[Slot], SitePushCountRecheck);
    // RACE (frequent, channel-last-size): last-writer diagnostic.
    T.store(&S.LastPushSize, static_cast<uint64_t>(Size), SiteLastSizeWrite);
    // RACE (rare, channel-oversize-once): one-shot diagnostic on a rarely
    // taken branch of a hot function — the population every sampler,
    // LiteRace included, usually misses (§5.3).
    if (FromProducer && Oversize && WroteOversize && !*WroteOversize) {
      T.store(&S.OversizeSeq, Seq, SiteOversizeWrite);
      *WroteOversize = true;
    }
  });
  S.Queue.Items.release(TC);
}

ChannelWorkload::Record *ChannelWorkload::chanPop(ThreadContext &TC,
                                                  SharedState &S) {
  S.Queue.Items.acquire(TC);
  Record *Rec = nullptr;
  TC.run(FnPop, [&](auto &T) {
    S.Queue.Lock.lock(TC);
    uint32_t Head = T.load(&S.Queue.Head, SiteHeadRead);
    Rec = T.load(&S.Queue.Ring[Head % QueueState::Capacity], SiteRingRead);
    T.store(&S.Queue.Head, Head + 1, SiteHeadWrite);
    S.Queue.Lock.unlock(TC);

    // RACE (frequent, channel-pop-count): mirror of the push counters.
    unsigned Slot = TC.tid() & 7u;
    uint64_t Count = T.load(&S.PopCountSlots[Slot], SitePopCountRead);
    T.store(&S.PopCountSlots[Slot], Count + 1, SitePopCountWrite);
    // Redundant recheck (see chanPush): elided by the redundancy pass.
    (void)T.load(&S.PopCountSlots[Slot], SitePopCountRecheck);
  });
  S.Queue.Slots.release(TC);
  return Rec;
}

void ChannelWorkload::producerMain(ThreadContext &TC, SharedState &S,
                                   unsigned Index, uint32_t Items,
                                   uint64_t Seed) {
  (void)Seed;
  StdLibSession Session;
  bool WroteOversize = false;
  uint64_t Total = 0;

  // Warm-up BEFORE the first synchronization operation of this thread
  // (including allocator page events): the stdlib lazy inits and the
  // tuning-hint read execute while the producers are still mutually
  // unordered, so those races manifest on every schedule.
  TC.run(FnProduce, [&](auto &T) {
    // RACE (rare, channel-tuning-hint): the parent publishes the hint
    // after spawning us; we read it once, unsynchronized.
    Total ^= T.load(&S.TuningHint, SiteTuningRead);
    uint8_t Warm[16];
    StdLib.fill(TC, Session, Warm, sizeof(Warm), 1);
    Total ^= StdLib.checksum(TC, Session, Warm, sizeof(Warm));
    char Buf[8];
    StdLib.formatUint(TC, Session, 7, Buf, sizeof(Buf));
  });

  for (uint32_t I = 0; I != Items; ++I) {
    Record *Rec = S.Allocator.create<Record>(TC);
    uint32_t Seq = Index * 1000000u + I;
    // Deterministic "oversize" items: rare at full scale, but at least one
    // exists at any scale the tests run at.
    bool Oversize = (I % 997) == 499 || I == 13;

    TC.run(FnProduce, [&](auto &T) {
      StdLib.fill(TC, Session, Rec->Payload, sizeof(Rec->Payload),
                  static_cast<uint8_t>(Seq * 131));
      uint64_t Sum =
          StdLib.checksum(TC, Session, Rec->Payload, sizeof(Rec->Payload));
      char Buf[24];
      StdLib.formatUint(TC, Session, Seq, Buf, sizeof(Buf));

      // Local fold over the payload: application-side memory traffic that
      // stays visible in the plain (stdlib-uninstrumented) configuration.
      uint64_t Fold = 0;
      for (size_t K = 0; K != sizeof(Rec->Payload); ++K)
        Fold += T.load(&Rec->Payload[K], SitePayloadFold);

      T.store(&Rec->Seq, Seq, SiteRecSeqWrite);
      T.store(&Rec->Checksum, Sum ^ Fold, SiteRecChecksumWrite);
      T.store(&Rec->Oversize, static_cast<uint8_t>(Oversize),
              SiteRecOversizeWrite);
      Total += Sum;
    });

    chanPush(TC, S, Rec, Oversize ? 4096u : 64u, /*FromProducer=*/true,
             &WroteOversize);
  }

  // RACE (rare, channel-final-total): each producer's last acts before
  // exiting are unsynchronized writes; nothing orders the producers'
  // writes with each other (only the eventual join orders them with the
  // parent). The stdlib session flush is racy the same way
  // (stdlib-flush-mark).
  TC.run(FnFinishProducer, [&](auto &T) {
    T.store(&S.FinalTotal, Total, SiteFinalTotalWrite);
  });
  StdLib.flushSession(TC, Session);
}

void ChannelWorkload::consumerMain(ThreadContext &TC, SharedState &S) {
  StdLibSession Session;
  for (;;) {
    Record *Rec = chanPop(TC, S);
    if (!Rec)
      break; // Sentinel: channel closed.
    TC.run(FnConsume, [&](auto &T) {
      uint32_t Seq = T.load(&Rec->Seq, SiteRecSeqRead);
      uint64_t Expect = T.load(&Rec->Checksum, SiteRecChecksumRead);
      (void)T.load(&Rec->Oversize, SiteRecOversizeRead);
      uint64_t Sum =
          StdLib.checksum(TC, Session, Rec->Payload, sizeof(Rec->Payload));
      uint64_t Fold = 0;
      for (size_t K = 0; K != sizeof(Rec->Payload); ++K)
        Fold += T.load(&Rec->Payload[K], SiteConsumeFold);
      bool Valid = Expect == (Sum ^ Fold);
      (void)Seq;

      // Properly synchronized aggregate: must never be reported.
      S.StatsLock.lock(TC);
      uint64_t N = T.load(&S.ValidatedItems, SiteValidRead);
      T.store(&S.ValidatedItems, N + (Valid ? 1 : 0), SiteValidWrite);
      S.StatsLock.unlock(TC);
    });
    S.Allocator.destroy(TC, Rec);
  }
}

void ChannelWorkload::reporterMain(ThreadContext &TC, SharedState &S) {
  uint32_t Poll = 0;
  bool ReadOversize = false;
  uint64_t Sink = 0;
  for (;;) {
    bool Stop = false;
    TC.run(FnPoll, [&](auto &T) {
      // RACE (frequent, channel-stop-flag): polled bare instead of using
      // an event.
      Stop = T.load(&S.StopRequested, SiteStopRead) != 0;
      for (unsigned Slot = 0; Slot != 8; ++Slot)
        Sink ^= T.load(&S.PushCountSlots[Slot], SitePollPushCount);
      for (unsigned Slot = 0; Slot != 8; ++Slot)
        Sink ^= T.load(&S.PopCountSlots[Slot], SitePollPopCount);
      Sink ^= T.load(&S.LastPushSize, SitePollLastSize);
      // RACE (rare, channel-drain-heartbeat): one-shot partner write for
      // the drainer's one-shot read. The drainer is forked before the
      // reporter is joined, so no fork/join chain ever orders the two.
      if (Poll == 0)
        T.store(&S.ReporterHeartbeat, uint64_t{1}, SiteHeartbeatWrite);
      // RACE (rare, channel-oversize-once): single diagnostic read. Also
      // fires on the stop poll so short (test-scale) runs still read it.
      if ((Poll == 137 || Stop) && !ReadOversize) {
        Sink ^= T.load(&S.OversizeSeq, SiteOversizeRead);
        ReadOversize = true;
      }
    });
    Sink ^= StdLib.pollStats(TC);
    ++Poll;
    if (Stop || Poll > 200000)
      break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void ChannelWorkload::drainerMain(ThreadContext &TC, SharedState &S) {
  TC.run(FnDrain, [&](auto &T) {
    // RACE (rare, channel-drain-heartbeat): late-entrant thread reads the
    // (long dead) reporter's heartbeat; nothing ever ordered the two.
    (void)T.load(&S.ReporterHeartbeat, SiteHeartbeatRead);
  });
  for (;;) {
    Record *Rec = chanPop(TC, S);
    if (!Rec)
      break;
    S.Allocator.destroy(TC, Rec);
  }
}

void ChannelWorkload::run(Runtime &RT, const WorkloadParams &Params) {
  assert(Bound && "bind() must run before run()");
  SharedState S;
  ThreadContext Main(RT);
  const uint32_t Items = Params.scaled(2500, 50);

  Main.run(FnSetup, [&](auto &T) {
    for (auto &SlotPtr : S.Queue.Ring)
      T.store(&SlotPtr, static_cast<Record *>(nullptr), SiteSetupInit);
    T.store(&S.StopRequested, uint8_t{0}, SiteSetupInit);
    T.store(&S.LastPushSize, uint64_t{0}, SiteSetupInit);
  });

  Thread Reporter(RT, Main,
                  [this, &S](ThreadContext &TC) { reporterMain(TC, S); });

  std::vector<std::unique_ptr<Thread>> Producers;
  for (unsigned I = 0; I != 3; ++I)
    Producers.push_back(std::make_unique<Thread>(
        RT, Main, [this, &S, I, Items, &Params](ThreadContext &TC) {
          // Staggered starts: by the time a later producer executes the
          // (globally hot) produce/stdlib functions for the FIRST time,
          // a global sampler has already backed off — only a
          // thread-local sampler still samples them (§3.4's rationale).
          // A sleep creates no happens-before edge, so the init races
          // stay unordered.
          std::this_thread::sleep_for(std::chrono::milliseconds(25 * I));
          producerMain(TC, S, I, Items, Params.Seed + I);
        }));

  std::vector<std::unique_ptr<Thread>> Consumers;
  for (unsigned I = 0; I != 2; ++I)
    Consumers.push_back(std::make_unique<Thread>(
        RT, Main, [this, &S](ThreadContext &TC) { consumerMain(TC, S); }));

  // RACE (rare, channel-tuning-hint): published after the producers
  // already started.
  Main.run(FnTune, [&](auto &T) {
    T.store(&S.TuningHint, uint64_t{42}, SiteTuneWrite);
  });

  for (auto &P : Producers)
    P->join(Main);

  // RACE (frequent, channel-stop-flag): stop the reporter with a bare
  // store instead of an event.
  Main.run(FnTeardown, [&](auto &T) {
    T.store(&S.StopRequested, uint8_t{1}, SiteStopWrite);
  });

  // Close the channel: one sentinel per consumer.
  bool Unused = false;
  chanPush(Main, S, nullptr, 0, /*FromProducer=*/false, &Unused);
  chanPush(Main, S, nullptr, 0, /*FromProducer=*/false, &Unused);
  for (auto &C : Consumers)
    C->join(Main);

  // Late drainer: one more sentinel, then drain. The drainer is forked
  // BEFORE the reporter is joined, so its heartbeat read stays unordered
  // with the reporter's heartbeat write (the channel-drain-heartbeat
  // race); joining the reporter first would order the pair through the
  // join→fork chain.
  chanPush(Main, S, nullptr, 0, /*FromProducer=*/false, &Unused);
  Thread Drainer(RT, Main,
                 [this, &S](ThreadContext &TC) { drainerMain(TC, S); });
  Drainer.join(Main);
  Reporter.join(Main);

  Main.run(FnTeardown, [&](auto &T) {
    // Ordered reads (after the joins); must not be reported.
    (void)T.load(&S.FinalTotal, SiteFinalTotalCheck);
    (void)T.load(&S.ValidatedItems, SiteFinalTotalCheck);
  });
}

std::vector<SeededRaceSpec> ChannelWorkload::seededRaces() const {
  assert(Bound && "manifest valid only after bind()");
  auto P = [&](FunctionId F, uint32_t Site) { return makePc(F, Site); };
  std::vector<SeededRaceSpec> Races;
  auto Add = [&](const char *Label, std::vector<Pc> Sites, bool Frequent) {
    Races.push_back(SeededRaceSpec{Label, std::move(Sites), Frequent});
  };

  Add("channel-tuning-hint",
      {P(FnTune, SiteTuneWrite), P(FnProduce, SiteTuningRead)}, false);
  Add("channel-final-total",
      {P(FnFinishProducer, SiteFinalTotalWrite)}, false);
  Add("channel-drain-heartbeat",
      {P(FnPoll, SiteHeartbeatWrite), P(FnDrain, SiteHeartbeatRead)}, false);
  Add("channel-oversize-once",
      {P(FnPush, SiteOversizeWrite), P(FnPoll, SiteOversizeRead)}, false);
  Add("channel-stop-flag",
      {P(FnTeardown, SiteStopWrite), P(FnPoll, SiteStopRead)}, false);
  Add("channel-push-count",
      {P(FnPush, SitePushCountRead), P(FnPush, SitePushCountWrite),
       P(FnPush, SitePushCountRecheck), P(FnPoll, SitePollPushCount)},
      true);
  Add("channel-pop-count",
      {P(FnPop, SitePopCountRead), P(FnPop, SitePopCountWrite),
       P(FnPop, SitePopCountRecheck), P(FnPoll, SitePollPopCount)},
      true);
  Add("channel-last-size",
      {P(FnPush, SiteLastSizeWrite), P(FnPoll, SitePollLastSize)}, true);

  for (SeededRaceSpec &Spec : StdLib.seededRaces())
    Races.push_back(std::move(Spec));
  return Races;
}
