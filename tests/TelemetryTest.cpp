//===-- tests/TelemetryTest.cpp - Metrics registry and timeline -------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Covers the telemetry subsystem (docs/TELEMETRY.md): exact aggregation
// under concurrent per-thread increments, torn-free snapshots taken while
// writers run, histogram bucket boundaries, the literace.metrics.v1 JSON
// round-trip, the LITERACE_TELEMETRY kill-switch parser, the Chrome
// trace-event validator, and the runtime plane's counter exactness
// (sampled + unsampled == dispatch checks once threads have detached).
//
// This suite is part of the "tsan" tier: it must stay clean under
// -fsanitize=thread, which mechanically checks the registry's lock-free
// slab design.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Metrics.h"

#include "harness/DetectionExperiment.h"
#include "runtime/ThreadContext.h"
#include "telemetry/Json.h"
#include "telemetry/Timeline.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace literace;
using namespace literace::telemetry;

namespace {

TEST(TelemetryTest, ConcurrentIncrementsAggregateExactly) {
  MetricsRegistry Registry;
  CounterId Ones = Registry.counter("test.ones");
  CounterId Bulk = Registry.counter("test.bulk");
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 200000;

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&] {
      ThreadSlab &Slab = Registry.threadSlab();
      for (uint64_t I = 0; I != PerThread; ++I) {
        Slab.add(Ones);
        Slab.add(Bulk, 3);
      }
    });
  for (std::thread &W : Workers)
    W.join();

  MetricsSnapshot Snap = Registry.snapshot();
  EXPECT_EQ(Snap.counter("test.ones"), Threads * PerThread);
  EXPECT_EQ(Snap.counter("test.bulk"), Threads * PerThread * 3);
  EXPECT_EQ(Registry.numSlabs(), Threads);
}

TEST(TelemetryTest, SnapshotDuringUpdatesIsTornFreeAndMonotonic) {
  MetricsRegistry Registry;
  CounterId C = Registry.counter("test.racing");
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Written{0};

  std::thread Writer([&] {
    ThreadSlab &Slab = Registry.threadSlab();
    while (!Stop.load(std::memory_order_relaxed)) {
      Slab.add(C);
      Written.fetch_add(1, std::memory_order_release);
    }
  });

  // Each observed value must be a real prefix of the writer's work: no
  // torn reads (64-bit atomic cells), never ahead of what was completed,
  // and monotone across successive snapshots.
  uint64_t Last = 0;
  for (int I = 0; I != 200; ++I) {
    uint64_t Value = Registry.snapshot().counter("test.racing");
    uint64_t UpperBound = Written.load(std::memory_order_acquire) + 1;
    EXPECT_LE(Value, UpperBound);
    EXPECT_GE(Value, Last);
    Last = Value;
  }
  Stop.store(true);
  Writer.join();
  EXPECT_EQ(Registry.snapshot().counter("test.racing"),
            Written.load(std::memory_order_relaxed));
}

TEST(TelemetryTest, HistogramBucketBoundaries) {
  // Bucket 0 holds the value 0; bucket b holds 2^(b-1) <= v < 2^b.
  EXPECT_EQ(histogramBucket(0), 0u);
  EXPECT_EQ(histogramBucket(1), 1u);
  EXPECT_EQ(histogramBucket(2), 2u);
  EXPECT_EQ(histogramBucket(3), 2u);
  EXPECT_EQ(histogramBucket(4), 3u);
  EXPECT_EQ(histogramBucket(1023), 10u);
  EXPECT_EQ(histogramBucket(1024), 11u);
  EXPECT_EQ(histogramBucket(UINT64_MAX), HistogramBuckets - 1);

  EXPECT_EQ(histogramBucketUpperBound(0), 0u);
  EXPECT_EQ(histogramBucketUpperBound(1), 1u);
  EXPECT_EQ(histogramBucketUpperBound(11), 2047u);
  EXPECT_EQ(histogramBucketUpperBound(HistogramBuckets - 1), UINT64_MAX);

  MetricsRegistry Registry;
  HistogramId H = Registry.histogram("test.hist");
  ThreadSlab &Slab = Registry.threadSlab();
  Slab.record(H, 0);
  Slab.record(H, 1);
  Slab.record(H, 2);
  Slab.record(H, 3);
  Slab.record(H, 1024);
  MetricsSnapshot Snap = Registry.snapshot();
  const HistogramValue *Value = Snap.histogram("test.hist");
  ASSERT_NE(Value, nullptr);
  EXPECT_EQ(Value->Count, 5u);
  EXPECT_EQ(Value->Sum, 1030u);
  EXPECT_EQ(Value->Buckets[0], 1u);
  EXPECT_EQ(Value->Buckets[1], 1u);
  EXPECT_EQ(Value->Buckets[2], 2u);
  EXPECT_EQ(Value->Buckets[11], 1u);
  EXPECT_DOUBLE_EQ(Value->mean(), 206.0);
  EXPECT_EQ(Value->quantileUpperBound(0.5), 3u);
  EXPECT_EQ(Value->quantileUpperBound(0.99), 2047u);
}

TEST(TelemetryTest, GaugeTakesMaxAcrossThreads) {
  MetricsRegistry Registry;
  GaugeId G = Registry.gaugeMax("test.highwater");
  std::vector<std::thread> Workers;
  for (uint64_t T = 1; T <= 4; ++T)
    Workers.emplace_back([&Registry, G, T] {
      ThreadSlab &Slab = Registry.threadSlab();
      Slab.gaugeMax(G, T * 10);
      Slab.gaugeMax(G, T); // Lower value must not regress the gauge.
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Registry.snapshot().gauge("test.highwater"), 40u);
}

TEST(TelemetryTest, JsonSchemaRoundTrip) {
  MetricsRegistry Registry;
  CounterId C = Registry.counter("plane.counter");
  GaugeId G = Registry.gaugeMax("plane.gauge");
  HistogramId H = Registry.histogram("plane.hist");
  ThreadSlab &Slab = Registry.threadSlab();
  Slab.add(C, 42);
  Slab.gaugeMax(G, 7);
  Slab.record(H, 100);
  Slab.record(H, 5000);

  MetricsSnapshot Snap = Registry.snapshot();
  std::optional<MetricsSnapshot> Parsed =
      MetricsSnapshot::fromJson(Snap.toJson());
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->counter("plane.counter"), 42u);
  EXPECT_EQ(Parsed->gauge("plane.gauge"), 7u);
  const HistogramValue *Hist = Parsed->histogram("plane.hist");
  ASSERT_NE(Hist, nullptr);
  EXPECT_EQ(Hist->Count, 2u);
  EXPECT_EQ(Hist->Sum, 5100u);
  EXPECT_EQ(Hist->Buckets, Snap.histogram("plane.hist")->Buckets);
  // Serialization is deterministic, so the round trip is a fixed point.
  EXPECT_EQ(Parsed->toJson(), Snap.toJson());
}

TEST(TelemetryTest, JsonRejectsMalformedAndForeignDocuments) {
  EXPECT_FALSE(MetricsSnapshot::fromJson("").has_value());
  EXPECT_FALSE(MetricsSnapshot::fromJson("{").has_value());
  EXPECT_FALSE(MetricsSnapshot::fromJson("[1,2]").has_value());
  EXPECT_FALSE(MetricsSnapshot::fromJson("{\"counters\": {}}").has_value());
  EXPECT_FALSE(
      MetricsSnapshot::fromJson("{\"schema\": \"somebody.else.v9\"}")
          .has_value());
  // Trailing garbage after a well-formed document is rejected too.
  MetricsSnapshot Empty;
  EXPECT_TRUE(MetricsSnapshot::fromJson(Empty.toJson()).has_value());
  EXPECT_FALSE(MetricsSnapshot::fromJson(Empty.toJson() + "x").has_value());
}

TEST(TelemetryTest, SnapshotMergeAddsCountersAndMaxesGauges) {
  MetricsSnapshot A;
  A.setCounter("c", 10);
  A.setGauge("g", 5);
  MetricsSnapshot B;
  B.setCounter("c", 32);
  B.setCounter("only.b", 1);
  B.setGauge("g", 3);
  A.merge(B);
  EXPECT_EQ(A.counter("c"), 42u);
  EXPECT_EQ(A.counter("only.b"), 1u);
  EXPECT_EQ(A.gauge("g"), 5u);
}

TEST(TelemetryTest, KillSwitchParser) {
  EXPECT_TRUE(parseTelemetryEnabled(nullptr));
  EXPECT_TRUE(parseTelemetryEnabled(""));
  EXPECT_TRUE(parseTelemetryEnabled("on"));
  EXPECT_TRUE(parseTelemetryEnabled("1"));
  EXPECT_FALSE(parseTelemetryEnabled("off"));
  EXPECT_FALSE(parseTelemetryEnabled("OFF"));
  EXPECT_FALSE(parseTelemetryEnabled("0"));
  EXPECT_FALSE(parseTelemetryEnabled("False"));
}

TEST(TelemetryTest, ResolveRegistryPrecedence) {
  MetricsRegistry Override;
  EXPECT_EQ(resolveRegistry(&Override), &Override);
  EXPECT_EQ(resolveRegistry(&Override, /*ForceOff=*/true), nullptr);
  EXPECT_EQ(resolveRegistry(nullptr, /*ForceOff=*/true), nullptr);
}

TEST(TelemetryTest, TraceJsonValidatorAcceptsOurOutputOnly) {
  TraceWriter Writer;
  Writer.nameProcess(1, "runtime \"quoted\"\nname"); // must escape cleanly
  Writer.nameThread(1, 3, "worker");
  TraceEvent Span;
  Span.Name = "burst";
  Span.Cat = "runtime.sampler";
  Span.Phase = 'X';
  Span.TsUs = 10;
  Span.DurUs = 4;
  Span.Pid = 1;
  Span.Tid = 3;
  Span.Args = {{"ops", 17}};
  Writer.add(Span);
  TraceEvent Counter;
  Counter.Name = "memops";
  Counter.Phase = 'C';
  Counter.Pid = 1;
  Counter.Args = {{"logged", 5}};
  Writer.add(Counter);

  std::string Error;
  EXPECT_TRUE(validateChromeTraceJson(Writer.toJson(), &Error)) << Error;

  EXPECT_FALSE(validateChromeTraceJson("not json", &Error));
  EXPECT_FALSE(validateChromeTraceJson("{}", &Error));
  EXPECT_FALSE(validateChromeTraceJson("{\"traceEvents\": 3}", &Error));
  // A complete slice without its duration must be rejected.
  EXPECT_FALSE(validateChromeTraceJson(
      "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"X\", \"ts\": 1, "
      "\"pid\": 1, \"tid\": 1}]}",
      &Error));
}

TEST(TelemetryTest, RuntimeCountersAreExactOnceThreadsDetach) {
  MetricsRegistry Registry;
  RuntimeConfig Config;
  Config.Mode = RunMode::DispatchOnly;
  Config.Metrics = &Registry;
  Runtime RT(Config, nullptr);
  FunctionId F = RT.registry().registerFunction("hot");
  FunctionId Cold = RT.registry().registerFunction("cold");

  constexpr uint64_t Threads = 4;
  constexpr uint64_t Calls = 50000;
  std::vector<std::thread> Workers;
  for (uint64_t T = 0; T != Threads; ++T)
    Workers.emplace_back([&] {
      ThreadContext TC(RT);
      for (uint64_t I = 0; I != Calls; ++I)
        TC.run(F, [](auto &) {});
      TC.run(Cold, [](auto &) {});
    });
  for (std::thread &W : Workers)
    W.join();

  // Unsampled activations are credited a gap at a time (bulk credit);
  // once every ThreadContext is destroyed the reconciliation makes the
  // split exact: each dispatch check was exactly one of sampled or
  // unsampled, and the total is derived from the two.
  MetricsSnapshot Snap = RT.metricsSnapshot();
  const uint64_t Total = Threads * (Calls + 1);
  EXPECT_EQ(Snap.counter("runtime.sampled_activations") +
                Snap.counter("runtime.unsampled_activations"),
            Total);
  EXPECT_EQ(Snap.counter("runtime.dispatch_checks"), Total);
  EXPECT_GT(Snap.counter("runtime.sampled_activations"), 0u);
  EXPECT_GT(Snap.counter("runtime.unsampled_activations"), 0u);
  EXPECT_EQ(Snap.gauge("runtime.threads"), Threads);
  // The adaptive schedule backed off at least once over 50k calls.
  EXPECT_GT(Snap.counter("runtime.sampler.backoffs"), 0u);
}

// runtime.memops_logged is folded once per buffer flush, not per access:
// while a thread runs it trails the thread's exact count by less than one
// buffer, and it is exact after a flush and after the thread exits.
TEST(TelemetryTest, MemOpsLoggedFoldsPerFlushAndIsExactAtExit) {
  MetricsRegistry Registry;
  NullSink Sink;
  RuntimeConfig Config;
  Config.Mode = RunMode::FullLogging;
  Config.ThreadBufferRecords = 100;
  Config.Metrics = &Registry;
  Runtime RT(Config, &Sink);
  FunctionId F = RT.registry().registerFunction("hot");
  auto Counter = [&] {
    return RT.metricsSnapshot().counter("runtime.memops_logged");
  };
  constexpr uint64_t Calls = 1000;
  {
    ThreadContext TC(RT);
    uint64_t Cell = 0;
    bool Lagged = false;
    for (uint64_t I = 0; I != Calls; ++I) {
      TC.run(F, [&](auto &T) { T.store(&Cell, I, 1); });
      if (I % 7)
        continue;
      const uint64_t Logged = TC.localStats().MemOpsLogged;
      const uint64_t Folded = Counter();
      ASSERT_LE(Folded, Logged) << "call " << I;
      ASSERT_LT(Logged - Folded, Config.ThreadBufferRecords) << "call " << I;
      Lagged |= Folded != Logged;
    }
    EXPECT_TRUE(Lagged) << "the counter never trailed: folded per access?";
    TC.flush();
    EXPECT_EQ(Counter(), TC.localStats().MemOpsLogged);
  }
  EXPECT_EQ(RT.stats().MemOpsLogged, Calls);
  EXPECT_EQ(Counter(), Calls);
}

TEST(TelemetryTest, DisabledTelemetryLeavesRegistryUntouched) {
  MetricsRegistry Registry;
  RuntimeConfig Config;
  Config.Mode = RunMode::DispatchOnly;
  Config.Metrics = &Registry;
  Config.DisableTelemetry = true;
  Runtime RT(Config, nullptr);
  EXPECT_EQ(RT.metrics(), nullptr);
  FunctionId F = RT.registry().registerFunction("hot");
  {
    ThreadContext TC(RT);
    for (int I = 0; I != 1000; ++I)
      TC.run(F, [](auto &) {});
  }
  EXPECT_TRUE(RT.metricsSnapshot().empty());
}

TEST(TelemetryTest, ExperimentRunCarriesAMetricsSnapshot) {
  MetricsRegistry Registry;
  auto W = makeWorkload(WorkloadKind::ConcRTMessaging);
  WorkloadParams Params;
  Params.Scale = 0.05;
  ExperimentRun Run = executeExperiment(*W, Params, &Registry);
  // The harness snapshot and the classic RuntimeStats must agree on the
  // logger plane.
  EXPECT_EQ(Run.Metrics.counter("runtime.memops_logged"),
            Run.Stats.MemOpsLogged);
  EXPECT_EQ(Run.Metrics.counter("runtime.syncops_logged"),
            Run.Stats.SyncOps);
  EXPECT_EQ(Run.Metrics.gauge("runtime.threads"), Run.NumThreads);
  EXPECT_GT(Run.Metrics.counter("runtime.log.flushes"), 0u);
}

TEST(TelemetryTest, TimelineFromTraceValidates) {
  MetricsRegistry Registry;
  auto W = makeWorkload(WorkloadKind::ConcRTMessaging);
  WorkloadParams Params;
  Params.Scale = 0.05;
  ExperimentRun Run = executeExperiment(*W, Params, &Registry);
  TraceWriter Timeline = buildTraceTimeline(Run.TraceData);
  EXPECT_GT(Timeline.size(), 0u);
  std::string Error;
  EXPECT_TRUE(validateChromeTraceJson(Timeline.toJson(), &Error)) << Error;
}

} // namespace
