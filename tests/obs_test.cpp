//===----------------------------------------------------------------------===//
// Tests for the observability layer (src/obs): the JSON writer, the
// metrics registry (including its concurrency guarantees — run under
// TSan in CI), the flight-recorder tracer, and the golden stage-span
// skeleton every paper benchmark must produce through the pipeline.
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "driver/Pipeline.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

using namespace spire;

namespace {

/// Counts non-overlapping occurrences of \p Needle in \p S.
size_t countOccurrences(const std::string &S, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = S.find(Needle); At != std::string::npos;
       At = S.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

/// Walks an event list asserting stack discipline per tid: every 'E'
/// closes the innermost open 'B' of the same name, timestamps never go
/// backwards, and nothing stays open at the end.
void expectBalanced(const std::vector<obs::TraceEvent> &Events) {
  std::map<uint32_t, std::vector<const char *>> Open;
  uint64_t LastTs = 0;
  for (const obs::TraceEvent &E : Events) {
    EXPECT_GE(E.TsNs, LastTs) << "timestamps must be monotonic";
    LastTs = E.TsNs;
    if (E.Phase == 'B') {
      Open[E.Tid].push_back(E.Name);
    } else {
      ASSERT_EQ(E.Phase, 'E');
      ASSERT_FALSE(Open[E.Tid].empty()) << "E '" << E.Name
                                        << "' with no open span";
      EXPECT_STREQ(Open[E.Tid].back(), E.Name);
      Open[E.Tid].pop_back();
    }
  }
  for (const auto &Entry : Open)
    EXPECT_TRUE(Entry.second.empty()) << "span left open: "
                                      << Entry.second.back();
}

} // namespace

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(JsonWriter, EscapesStrings) {
  obs::JsonWriter W(0);
  W.beginObject();
  W.kv("quote\"back\\slash", "tab\there\nnewline");
  W.kv("ctl", std::string_view("\x01", 1));
  W.endObject();
  EXPECT_TRUE(W.complete());
  EXPECT_EQ(W.take(),
            "{\"quote\\\"back\\\\slash\":\"tab\\there\\nnewline\","
            "\"ctl\":\"\\u0001\"}");
}

TEST(JsonWriter, NestingAndTypes) {
  obs::JsonWriter W(0);
  W.beginObject();
  W.key("arr");
  W.beginArray();
  W.value(int64_t(-3));
  W.value(uint64_t(7));
  W.value(true);
  W.value(1.5, 3);
  W.beginObject();
  W.kv("inner", "x");
  W.endObject();
  W.endArray();
  W.endObject();
  EXPECT_EQ(W.take(), "{\"arr\":[-3,7,true,1.5,{\"inner\":\"x\"}]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter W(0);
  W.beginObject();
  W.kv("nan", 0.0 / 0.0, 6);
  W.endObject();
  EXPECT_EQ(W.take(), "{\"nan\":null}");
}

TEST(JsonWriter, IndentedModePrettyPrints) {
  obs::JsonWriter W(2);
  W.beginObject();
  W.kv("a", int64_t(1));
  W.endObject();
  EXPECT_EQ(W.take(), "{\n  \"a\": 1\n}");
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(Registry, CounterGaugeHistogramBasics) {
  obs::Registry R;
  obs::Registry::Counter C = R.counter("test.counter");
  C += 5;
  ++C;
  EXPECT_EQ(C.value(), 6);

  obs::Registry::Gauge G = R.gauge("test.gauge");
  G.set(42);
  G.max(10); // below: no change
  EXPECT_EQ(G.value(), 42);
  G.max(99);
  EXPECT_EQ(G.value(), 99);

  obs::Registry::Histogram H = R.histogram("test.hist");
  H.observe(2.0);
  H.observe(8.0);
  EXPECT_EQ(H.count(), 2);
  EXPECT_DOUBLE_EQ(H.sum(), 10.0);

  std::vector<obs::MetricSample> Snap = R.snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  // Sorted by name: counter, gauge, hist.
  EXPECT_EQ(Snap[0].Name, "test.counter");
  EXPECT_EQ(Snap[0].Value, 6);
  EXPECT_EQ(Snap[1].Name, "test.gauge");
  EXPECT_EQ(Snap[1].Value, 99);
  EXPECT_EQ(Snap[2].Name, "test.hist");
  EXPECT_EQ(Snap[2].Count, 2);
  EXPECT_DOUBLE_EQ(Snap[2].Min, 2.0);
  EXPECT_DOUBLE_EQ(Snap[2].Max, 8.0);
}

TEST(Registry, SameNameReturnsSameCell) {
  obs::Registry R;
  obs::Registry::Counter A = R.counter("shared");
  obs::Registry::Counter B = R.counter("shared");
  A += 3;
  B += 4;
  EXPECT_EQ(A.value(), 7);
  EXPECT_EQ(B.value(), 7);
}

TEST(Registry, KindMismatchYieldsInertHandle) {
  obs::Registry R;
  obs::Registry::Counter C = R.counter("typed");
  C += 9;
  obs::Registry::Gauge G = R.gauge("typed"); // wrong kind: inert
  G.set(1000);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(C.value(), 9) << "mismatched re-request must not corrupt";
}

TEST(Registry, DefaultHandlesAreInert) {
  obs::Registry::Counter C;
  obs::Registry::Gauge G;
  obs::Registry::Histogram H;
  ++C;
  G.set(5);
  G.max(5);
  H.observe(1.0);
  EXPECT_EQ(C.value(), 0);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0);
}

TEST(Registry, ResetKeepsHandlesValid) {
  obs::Registry R;
  obs::Registry::Counter C = R.counter("resettable");
  C += 7;
  R.reset();
  EXPECT_EQ(C.value(), 0);
  ++C;
  EXPECT_EQ(C.value(), 1);
}

TEST(Registry, EmptyHistogramSnapshotsToZero) {
  obs::Registry R;
  (void)R.histogram("empty.hist");
  std::vector<obs::MetricSample> Snap = R.snapshot();
  ASSERT_EQ(Snap.size(), 1u);
  EXPECT_EQ(Snap[0].Count, 0);
  EXPECT_DOUBLE_EQ(Snap[0].Min, 0.0);
  EXPECT_DOUBLE_EQ(Snap[0].Max, 0.0);
}

/// The registry's concurrency contract: increments from many threads —
/// through shared and per-thread handles, with lookups racing updates —
/// lose nothing. TSan runs this in CI.
TEST(Registry, ConcurrentIncrementsAreExact) {
  obs::Registry R;
  constexpr int Threads = 8;
  constexpr int PerThread = 20000;
  obs::Registry::Counter Shared = R.counter("concurrent.counter");
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&R, Shared]() mutable {
      obs::Registry::Counter Mine = R.counter("concurrent.counter");
      obs::Registry::Histogram H = R.histogram("concurrent.hist");
      for (int I = 0; I != PerThread; ++I) {
        ++Shared;
        ++Mine;
        H.observe(1.0);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(R.counter("concurrent.counter").value(),
            int64_t(2) * Threads * PerThread);
  EXPECT_EQ(R.histogram("concurrent.hist").count(),
            int64_t(Threads) * PerThread);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(Tracer, DisabledRecordsNothing) {
  obs::Tracer T;
  EXPECT_FALSE(T.enabled());
  T.begin("never");
  T.end("never");
  {
    obs::Span Sp("never-span", T);
    Sp.arg("k", 1);
  }
  EXPECT_TRUE(T.events().empty());
  EXPECT_EQ(T.droppedEvents(), 0u);
}

TEST(Tracer, SpansNestAndCarryArgs) {
  obs::Tracer T;
  T.enable();
  {
    obs::Span Outer("outer", T);
    Outer.arg("gates", 128);
    {
      obs::Span Inner("inner", T);
      Inner.arg("visits", 7);
    }
  }
  T.disable();
  std::vector<obs::TraceEvent> Events = T.events();
  ASSERT_EQ(Events.size(), 4u);
  expectBalanced(Events);
  // B outer, B inner, E inner (args), E outer (args).
  EXPECT_STREQ(Events[0].Name, "outer");
  EXPECT_EQ(Events[0].Phase, 'B');
  EXPECT_EQ(Events[0].NumArgs, 0u) << "args attach to the end event";
  EXPECT_STREQ(Events[2].Name, "inner");
  EXPECT_EQ(Events[2].Phase, 'E');
  ASSERT_EQ(Events[2].NumArgs, 1u);
  EXPECT_STREQ(Events[2].Args[0].Key, "visits");
  EXPECT_EQ(Events[2].Args[0].Value, 7);
  ASSERT_EQ(Events[3].NumArgs, 1u);
  EXPECT_EQ(Events[3].Args[0].Value, 128);
}

TEST(Tracer, RingWraparoundStaysBalancedInJson) {
  obs::Tracer T;
  T.enable(/*Capacity=*/16);
  {
    obs::Span Outer("outer", T);
    for (int I = 0; I != 40; ++I)
      obs::Span Inner("inner", T);
  }
  T.disable();
  EXPECT_GT(T.droppedEvents(), 0u);
  EXPECT_EQ(T.events().size(), 16u);

  std::string Json = T.chromeTraceJson();
  EXPECT_EQ(countOccurrences(Json, "\"ph\":\"B\""),
            countOccurrences(Json, "\"ph\":\"E\""))
      << "the writer must repair balance at the wraparound cut:\n"
      << Json;
  EXPECT_NE(Json.find("\"dropped_events\":"), std::string::npos);
}

TEST(Tracer, OpenSpansGetSyntheticCloses) {
  obs::Tracer T;
  T.enable();
  T.begin("left-open");
  T.begin("also-open");
  std::string Json = T.chromeTraceJson();
  T.disable();
  EXPECT_EQ(countOccurrences(Json, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(countOccurrences(Json, "\"ph\":\"E\""), 2u);
}

TEST(Tracer, EnableClearsPreviousRun) {
  obs::Tracer T;
  T.enable();
  {
    obs::Span Sp("stale", T);
  }
  T.enable();
  EXPECT_TRUE(T.events().empty());
  EXPECT_EQ(T.droppedEvents(), 0u);
  T.disable();
}

//===----------------------------------------------------------------------===//
// Pipeline integration: the golden span skeleton and the metrics report
//===----------------------------------------------------------------------===//

namespace {

driver::PipelineOptions benchOptions(const benchmarks::BenchmarkProgram &B) {
  driver::PipelineOptions Opts =
      driver::PipelineOptions::forEntry(B.Entry, B.SizeIndexed ? 2 : 0);
  Opts.BuildCircuit = true;
  Opts.CircuitOpt = driver::CircuitOptimizerKind::CliffordTCancel;
  Opts.StopAfter = driver::Stage::Qopt;
  return Opts;
}

} // namespace

/// Every paper benchmark, compiled with a circuit optimizer under
/// tracing, must produce the same stage-span skeleton: the six pipeline
/// stages in order, each qopt pass nested inside the qopt stage, all
/// balanced and monotonic.
TEST(ObsPipeline, GoldenStageSpanSkeletonOnAllBenchmarks) {
  const char *ExpectedStages[] = {"parse",           "typecheck",
                                  "lower",           "spire-opt",
                                  "circuit-compile", "qopt"};
  const char *ExpectedPasses[] = {"qopt/decompose-clifford+t",
                                  "qopt/cancel-standard",
                                  "qopt/phase-fold"};
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    obs::Tracer &T = obs::Tracer::global();
    T.enable();
    driver::CompilationPipeline Pipeline(benchOptions(B));
    driver::CompilationResult R = Pipeline.run(B.Source);
    T.disable();
    ASSERT_TRUE(R.succeeded())
        << B.Name << ": " << R.Diags.str();

    std::vector<obs::TraceEvent> Events = T.events();
    expectBalanced(Events);

    // Stage spans appear in pipeline order.
    std::vector<std::string> StageOrder;
    std::set<std::string> Names;
    for (const obs::TraceEvent &E : Events) {
      if (E.Phase != 'B')
        continue;
      Names.insert(E.Name);
      // Stage spans are the only ones without a '/' qualifier.
      if (std::string(E.Name).find('/') == std::string::npos)
        StageOrder.push_back(E.Name);
    }
    EXPECT_EQ(StageOrder,
              std::vector<std::string>(std::begin(ExpectedStages),
                                       std::end(ExpectedStages)))
        << B.Name << ": stage spans out of order or missing";
    for (const char *P : ExpectedPasses)
      EXPECT_TRUE(Names.count(P))
          << B.Name << ": missing pass span " << P;

    // Each qopt pass span nests inside the qopt stage span.
    int Depth = 0;
    for (const obs::TraceEvent &E : Events) {
      std::string Name = E.Name;
      if (Name == "qopt") {
        Depth += E.Phase == 'B' ? 1 : -1;
      } else if (Name.rfind("qopt/", 0) == 0 && E.Phase == 'B') {
        EXPECT_EQ(Depth, 1) << B.Name << ": " << Name
                            << " outside the qopt stage span";
      }
    }

    // The qopt stage end-event carries the work counters.
    bool SawQoptArgs = false;
    for (const obs::TraceEvent &E : Events)
      if (E.Phase == 'E' && std::string(E.Name) == "qopt") {
        for (unsigned I = 0; I != E.NumArgs; ++I)
          if (std::string(E.Args[I].Key) == "gates_out")
            SawQoptArgs = true;
      }
    EXPECT_TRUE(SawQoptArgs)
        << B.Name << ": qopt end event lost its work-counter args";
  }
}

/// renderMetricsJson is the machine-readable superset of --timings:
/// every executed stage, the qopt counters, and the registry metrics
/// --timings summarizes must all appear.
TEST(ObsPipeline, MetricsJsonIsSupersetOfTimings) {
  const benchmarks::BenchmarkProgram &B = benchmarks::lengthSimplified();
  driver::PipelineOptions Opts = benchOptions(B);
  // Run through Estimate with verification on so the lazily registered
  // metrics (cost-model cache, verifier counters) exist in the snapshot.
  Opts.StopAfter = driver::Stage::Estimate;
  Opts.VerifyEach = true;
  driver::CompilationPipeline Pipeline(Opts);
  driver::CompilationResult R = Pipeline.run(B.Source);
  ASSERT_TRUE(R.succeeded()) << R.Diags.str();

  std::string Json = driver::renderMetricsJson(R);
  EXPECT_NE(Json.find("\"schema\": \"spire-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"succeeded\": true"), std::string::npos);
  EXPECT_NE(Json.find("\"total_seconds\":"), std::string::npos);
  // One stages[] entry per StageTiming --timings would print.
  for (const driver::StageTiming &St : R.Stages) {
    std::string Key = std::string("\"stage\": \"") +
                      driver::stageName(St.Which) + "\"";
    EXPECT_NE(Json.find(Key), std::string::npos)
        << "missing stage record: " << driver::stageName(St.Which);
  }
  // The qopt work counters --timings prints.
  ASSERT_TRUE(R.QoptStats.has_value());
  EXPECT_NE(Json.find("\"qopt_stats\":"), std::string::npos);
  EXPECT_NE(Json.find("\"cancelled_pairs\":"), std::string::npos);
  EXPECT_NE(Json.find("\"merged_rotations\":"), std::string::npos);
  // The registry lines --timings surfaces (cache counters, symbols).
  EXPECT_NE(Json.find("\"costmodel.profile_cache.hits\":"),
            std::string::npos);
  EXPECT_NE(Json.find("\"costmodel.profile_cache.misses\":"),
            std::string::npos);
  EXPECT_NE(Json.find("\"symbols.interned\":"), std::string::npos);
  EXPECT_NE(Json.find("\"process.allocations\":"), std::string::npos);
  // Per-stage registry metrics.
  EXPECT_NE(Json.find("\"stage.qopt.seconds\":"), std::string::npos);
  EXPECT_NE(Json.find("\"verify.checks\":"), std::string::npos);
}

/// A failed compile still renders a well-formed report naming the
/// failing stage.
TEST(ObsPipeline, MetricsJsonReportsFailures) {
  driver::CompilationPipeline Pipeline(
      driver::PipelineOptions::forEntry("nope"));
  driver::CompilationResult R = Pipeline.run("fun ] this is not tower");
  ASSERT_FALSE(R.succeeded());
  std::string Json = driver::renderMetricsJson(R);
  EXPECT_NE(Json.find("\"succeeded\": false"), std::string::npos);
  EXPECT_NE(Json.find("\"failed_stage\":"), std::string::npos);
  EXPECT_NE(Json.find("\"errors\":"), std::string::npos);
}
