//===-- examples/quickstart.cpp - LiteRace in 80 lines ----------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// The smallest end-to-end use of the library:
//   1. create a Runtime in LiteRace mode (sampled memory logging, every
//      synchronization operation logged),
//   2. run two threads through the instrumentation API — one shared
//      counter properly protected by a Mutex, one updated bare,
//   3. replay the log through the happens-before detector,
//   4. print the races: the bare counter is reported, the locked one not.
//
// Build & run:  ./examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "detector/HBDetector.h"
#include "runtime/Runtime.h"
#include "sync/Primitives.h"

#include <cstdio>

using namespace literace;

int main() {
  // A MemorySink collects the log in-process; use SegmentedFileSink to
  // write the on-disk format instead.
  MemorySink Sink;
  RuntimeConfig Config;
  Config.Mode = RunMode::LiteRace; // The paper's deployment configuration.
  Runtime RT(Config, &Sink);

  // Every instrumented code region registers once, like the Phoenix
  // rewriter enumerating functions in the binary.
  FunctionId Worker = RT.registry().registerFunction("worker.step");

  uint64_t BareCounter = 0;    // Updated without synchronization: a bug.
  uint64_t LockedCounter = 0;  // Properly protected.
  Mutex Lock;

  {
    ThreadContext Main(RT);
    auto WorkerBody = [&](ThreadContext &TC) {
      for (int I = 0; I != 50000; ++I) {
        // The body receives a tracer: LoggingTracer in sampled
        // activations, NullTracer otherwise — the two compiled copies of
        // Figure 3.
        TC.run(Worker, [&](auto &T) {
          // RACE: read-modify-write with no ordering.
          T.store(&BareCounter, T.load(&BareCounter, /*Site=*/1) + 1,
                  /*Site=*/2);
          // Fine: the same pattern under a lock.
          Lock.lock(TC);
          T.store(&LockedCounter, T.load(&LockedCounter, 3) + 1, 4);
          Lock.unlock(TC);
        });
      }
    };
    Thread A(RT, Main, WorkerBody);
    Thread B(RT, Main, WorkerBody);
    A.join(Main);
    B.join(Main);
  }

  // Offline analysis (§4.4): replay the log into the happens-before
  // detector.
  RaceReport Report;
  if (!detectRaces(Sink.takeTrace(), Report)) {
    std::fprintf(stderr, "error: log was inconsistent\n");
    return 1;
  }

  std::printf("%s", Report.describe(&RT.registry()).c_str());
  std::printf("\nLiteRace sampled %llu memory operations and logged %llu "
              "synchronization operations.\n",
              static_cast<unsigned long long>(RT.stats().MemOpsLogged),
              static_cast<unsigned long long>(RT.stats().SyncOps));
  bool FoundBare = Report.contains(makePc(Worker, 1), makePc(Worker, 2)) ||
                   Report.contains(makePc(Worker, 2), makePc(Worker, 2));
  std::printf("bare counter race %s; locked counter %s.\n",
              FoundBare ? "DETECTED" : "missed (increase the run length)",
              Report.contains(makePc(Worker, 3), makePc(Worker, 4))
                  ? "FALSELY reported!"
                  : "correctly silent");
  return FoundBare ? 0 : 1;
}
