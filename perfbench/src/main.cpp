//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark's runner. perfbench/run.py builds it and is
/// the command to use; see perfbench/README.md for the workloads, the
/// metrics and how the layers map onto them.
///
///   perfbench run --workload <cost-report|compile-emit|circuit-in>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 --work-dir <dir> --expected <file> [--trace-out <file>]
///   perfbench expect --work-dir <dir> --out <file>
///
/// `run` sets up at least three times and for at least a second (the
/// median is setup_s), then serves the
/// workload's request list in a closed loop, one pass after another,
/// until the next pass would overrun --seconds. An untraced run makes at
/// least three passes. With --trace 1 every untraced pass is followed by
/// a traced one that runs the same requests through the layers' public
/// calls, at least once. Each output is
/// checked against the expected-values file. The last stdout line is the
/// JSON result.
///
/// `expect` writes the expected-values file: cost-report figures from
/// gate counts of the compiled circuits, artifact scans of every output
/// and generated input.
///
//===----------------------------------------------------------------------===//

#include "check.h"
#include "layers.h"
#include "workloads.h"

#include "decompose/Decompose.h"
#include "driver/Pipeline.h"
#include "obs/Json.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

using namespace spire;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Set-up repeats: at least MinSetups, and more while the set-ups so far
/// took under MinSetupSeconds, so a set-up of milliseconds is a median of
/// many samples.
constexpr int MinSetups = 3;
constexpr int MaxSetups = 50;
constexpr double MinSetupSeconds = 1.0;
/// Untraced runs measure at least this many passes, so wall_s is a
/// median even when one pass takes most of --seconds.
constexpr size_t MinPasses = 3;
constexpr double MiB = 1024.0 * 1024.0;

struct Args {
  std::string Mode;
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  std::string WorkDir;
  std::string ExpectedPath;
  std::string TraceOut;
  std::string Out;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  if (Argc < 2)
    return false;
  A.Mode = Argv[1];
  if (Argc % 2 != 0)
    return false; // Every flag takes a value.
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Value.c_str());
    else if (Flag == "--trace")
      A.Trace = std::atoi(Value.c_str());
    else if (Flag == "--work-dir")
      A.WorkDir = Value;
    else if (Flag == "--expected")
      A.ExpectedPath = Value;
    else if (Flag == "--trace-out")
      A.TraceOut = Value;
    else if (Flag == "--out")
      A.Out = Value;
    else
      return false;
  }
  if (A.WorkDir.empty())
    return false;
  if (A.Mode == "expect")
    return !A.Out.empty();
  return A.Mode == "run" && isWorkload(A.Workload) &&
         !A.ExpectedPath.empty() && (A.Trace == 0 || A.Trace == 1) &&
         (A.Trace == 0 || !A.TraceOut.empty());
}

// -- One pass over the request list. ----------------------------------------

struct PassResult {
  double Wall = 0;
  std::vector<double> Latency;  ///< Seconds, per request in list order.
  std::vector<uint64_t> Digest; ///< Output hash (or cost digest) per request.
  int64_t Failed = 0;
  int64_t TCount = 0;
  int64_t ArtifactBytes = 0;
  int64_t PeakKb = 0; ///< VmHWM over the requests (untraced passes).
  LayerTotals Layers; ///< Traced passes only.
};

void recordFailure(PassResult &P, const Request &R, const std::string &Why) {
  ++P.Failed;
  std::string Line = Why.substr(0, Why.find('\n'));
  std::fprintf(stderr, "perfbench: FAILED %s: %s\n", R.Id.c_str(),
               Line.c_str());
}

/// Checks one request's output against the expected values, books its T
/// and bytes, and removes the artifact so every pass starts alike.
void checkOutput(const Request &R, const Outcome &O, const Expected &E,
                 PassResult &P) {
  uint64_t Digest = 0;
  if (!O.OK) {
    recordFailure(P, R, O.Error.empty() ? "request failed" : O.Error);
  } else if (R.K == Kind::Cost) {
    auto It = E.Costs.find(R.Id);
    ExpectedCost Got{O.Before.MCX, O.Before.T, O.After.MCX, O.After.T};
    if (It == E.Costs.end())
      recordFailure(P, R, "no expected value");
    else if (Got.BeforeMCX != It->second.BeforeMCX ||
             Got.BeforeT != It->second.BeforeT ||
             Got.AfterMCX != It->second.AfterMCX ||
             Got.AfterT != It->second.AfterT)
      recordFailure(P, R, "cost " + costLine(R.Id, Got) + " expected " +
                              costLine(R.Id, It->second));
    P.TCount += O.After.T;
    Digest = contentHash(costLine(R.Id, Got));
  } else {
    std::string Text;
    Scan S;
    if (!slurp(R.OutPath, Text)) {
      recordFailure(P, R, "artifact missing");
    } else {
      S = scanCircuitText(Text);
      auto It = E.Artifacts.find(R.Id);
      if (!S.OK)
        recordFailure(P, R, "scan: " + S.Error);
      else if (It == E.Artifacts.end())
        recordFailure(P, R, "no expected value");
      else if (S.Bytes != It->second.Bytes || S.Gates != It->second.Gates ||
               S.T != It->second.T || S.Hash != It->second.Hash)
        recordFailure(P, R, "artifact " + artifactLine(R.Id, S));
    }
    P.TCount += S.T;
    P.ArtifactBytes += S.Bytes;
    Digest = S.Hash;
    std::error_code Ignored;
    std::filesystem::remove(R.OutPath, Ignored);
  }
  P.Digest.push_back(Digest);
}

PassResult runPass(const std::vector<Request> &Reqs, driver::Service &Svc,
                   const Expected &E, obs::Tracer *T, int64_t &NextReqId) {
  PassResult P;
  std::vector<Outcome> Outs;
  size_t EventsBefore = T ? T->events().size() : 0;
  resetPeakRss();
  auto Start = Clock::now();
  for (const Request &R : Reqs) {
    auto ReqStart = Clock::now();
    Outs.push_back(T ? runTraced(R, *T, NextReqId++, P.Layers)
                     : runRequest(R, Svc));
    P.Latency.push_back(since(ReqStart));
  }
  P.Wall = since(Start);
  P.PeakKb = peakRssKb();
  if (T)
    addSpanTimes(T->events(), EventsBefore, P.Layers);
  for (size_t I = 0; I != Reqs.size(); ++I)
    checkOutput(Reqs[I], Outs[I], E, P);
  return P;
}

// -- Metrics. ----------------------------------------------------------------

struct Metric {
  std::string Name;
  std::string Unit;
  double Value;
};

/// Per-layer metrics of one traced pass; \p UntracedWall is the wall of
/// the untraced pass it follows.
std::vector<Metric> layerMetrics(const PassResult &P, double UntracedWall) {
  const LayerTotals &L = P.Layers;
  auto ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  auto mbps = [&](Layer X) { return ratio(L.Bytes[X] / MiB, L.Seconds[X]); };
  double Attributed = 0;
  for (double S : L.Seconds)
    Attributed += S;
  double Unattributed = L.RequestSeconds - Attributed;
  auto n = [](int64_t V) { return static_cast<double>(V); };
  return {
      {"frontend.s", "s", L.Seconds[Frontend]},
      {"sema.s", "s", L.Seconds[Sema]},
      {"lowering.s", "s", L.Seconds[Lowering]},
      {"lowering.allocs", "count", n(L.Allocs[Lowering])},
      {"lowering.inline_instances", "count", n(L.InlineInstances)},
      {"opt.s", "s", L.Seconds[Opt]},
      {"opt.allocs", "count", n(L.Allocs[Opt])},
      {"costmodel.s", "s", L.Seconds[Costmodel]},
      {"costmodel.allocs", "count", n(L.Allocs[Costmodel])},
      {"costmodel.cache_hits", "count", n(L.CacheHits)},
      {"costmodel.cache_misses", "count", n(L.CacheMisses)},
      {"costmodel.cache_hit_ratio", "ratio",
       ratio(n(L.CacheHits), n(L.CacheHits + L.CacheMisses))},
      {"circuit.compile_s", "s", L.Seconds[CircuitCompile]},
      {"circuit.compile_allocs", "count", n(L.Allocs[CircuitCompile])},
      {"circuit.compile_rss_mb", "MiB", L.PeakGrowthMb[CircuitCompile]},
      {"circuit.qc_write_s", "s", L.Seconds[QcWrite]},
      {"circuit.qc_write_allocs", "count", n(L.Allocs[QcWrite])},
      {"circuit.qc_write_mb_s", "MiB/s", mbps(QcWrite)},
      {"interchange.qasm_write_s", "s", L.Seconds[QasmWrite]},
      {"interchange.qasm_write_allocs", "count", n(L.Allocs[QasmWrite])},
      {"interchange.qasm_write_mb_s", "MiB/s", mbps(QasmWrite)},
      {"support.write_s", "s", L.Seconds[SupportWrite]},
      {"support.read_s", "s", L.Seconds[SupportRead]},
      {"circuit.qc_read_s", "s", L.Seconds[QcRead]},
      {"circuit.qc_read_allocs", "count", n(L.Allocs[QcRead])},
      {"circuit.qc_read_mb_s", "MiB/s", mbps(QcRead)},
      {"interchange.qasm_read_s", "s", L.Seconds[QasmRead]},
      {"interchange.qasm_read_allocs", "count", n(L.Allocs[QasmRead])},
      {"interchange.qasm_read_mb_s", "MiB/s", mbps(QasmRead)},
      {"decompose.s", "s", L.Seconds[Decompose]},
      {"decompose.gates_out", "gates", n(L.DecomposeGatesOut)},
      {"qopt.cancel_s", "s", L.Seconds[QoptCancel]},
      {"qopt.cancel_visits", "count", n(L.CancelVisits)},
      {"qopt.cancel_yield", "ratio",
       ratio(2.0 * n(L.CancelledPairs), n(L.CancelVisits))},
      {"qopt.phasefold_s", "s", L.Seconds[QoptPhasefold]},
      {"qopt.phasefold_rss_mb", "MiB", L.PeakGrowthMb[QoptPhasefold]},
      {"qopt.fold_ratio", "ratio",
       ratio(n(L.MergedRotations),
             n(L.MergedRotations + L.EmittedRotations))},
      {"driver.unattributed_s", "s", Unattributed},
      {"driver.unattributed_share", "fraction",
       ratio(Unattributed, L.RequestSeconds)},
      {"trace.overhead_s", "s", P.Wall - UntracedWall},
      {"artifact_mb", "MiB", P.ArtifactBytes / MiB},
  };
}

void printResult(bool Correct, int64_t Attempted, int64_t Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("  %-30s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  obs::JsonWriter W(/*Indent=*/0);
  W.beginObject();
  W.kv("correct", Correct);
  W.kv("attempted", Attempted);
  W.kv("failed", Failed);
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.kv("value", M.Value, 12);
    W.kv("unit", M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  std::fflush(stdout);
}

// -- run ---------------------------------------------------------------------

void flushToDisk(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return;
  ::fsync(Fd);
  ::close(Fd);
}

void removeInputs(std::vector<InputFile> &Inputs) {
  std::error_code Ignored;
  for (const InputFile &In : Inputs)
    std::filesystem::remove(In.Path, Ignored);
  Inputs.clear();
}

int runMode(const Args &A) {
  Expected E;
  std::string Error;
  if (!loadExpected(A.ExpectedPath, E, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 2;
  }
  std::filesystem::create_directories(A.WorkDir);
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace);

  // Set-up: request list, generated inputs, service, one warm-up request.
  std::vector<double> SetupSeconds;
  double SetupTotal = 0;
  std::vector<Request> Reqs;
  std::vector<InputFile> Inputs;
  driver::Service Svc(/*Cache=*/nullptr);
  while (SetupSeconds.size() < MinSetups ||
         (SetupTotal < MinSetupSeconds && SetupSeconds.size() < MaxSetups)) {
    // Delete, never overwrite: replace-by-rename makes ext4 write the new
    // file back at once, and freeing written blocks can stall for seconds.
    removeInputs(Inputs);
    auto Start = Clock::now();
    Reqs = buildRequests(A.Workload, A.Seed, A.WorkDir);
    if (!generateInputs(A.Workload, A.WorkDir, Inputs, Error)) {
      std::fprintf(stderr, "perfbench: set-up: %s\n", Error.c_str());
      return 2;
    }
    Svc = driver::Service(/*Cache=*/nullptr);
    Request Warm = warmupRequest(A.Workload, A.WorkDir);
    Outcome W = runRequest(Warm, Svc);
    if (!W.OK) {
      std::fprintf(stderr, "perfbench: warm-up failed: %s\n",
                   W.Error.c_str());
      return 2;
    }
    SetupSeconds.push_back(since(Start));
    SetupTotal += SetupSeconds.back();
    if (!Warm.OutPath.empty())
      std::filesystem::remove(Warm.OutPath);
  }

  std::printf("perfbench: %zu set-ups\n", SetupSeconds.size());

  // The generated inputs must be the committed ones, or the outputs'
  // expected values do not apply. They are flushed to disk now, so their
  // write-back cannot overlap a measured pass.
  int64_t InputMismatches = 0;
  for (const InputFile &In : Inputs) {
    flushToDisk(In.Path);
    std::string Text;
    auto It = E.Artifacts.find(In.Id);
    Scan S = slurp(In.Path, Text) ? scanCircuitText(Text) : Scan();
    if (It == E.Artifacts.end() || !S.OK || S.Hash != It->second.Hash ||
        S.Bytes != It->second.Bytes) {
      std::fprintf(stderr, "perfbench: generated input %s differs\n",
                   In.Id.c_str());
      ++InputMismatches;
    }
  }

  obs::Tracer Tracer;
  if (A.Trace)
    Tracer.enable(obs::Tracer::DefaultCapacity);
  int64_t NextReqId = 0;
  std::vector<PassResult> Plain, Traced;
  auto Begin = Clock::now();
  double Cycle = 0;
  do {
    auto CycleStart = Clock::now();
    Plain.push_back(runPass(Reqs, Svc, E, nullptr, NextReqId));
    if (A.Trace)
      Traced.push_back(runPass(Reqs, Svc, E, &Tracer, NextReqId));
    Cycle = since(CycleStart);
  } while ((!A.Trace && Plain.size() < MinPasses) ||
           since(Begin) + Cycle <= A.Seconds);

  int64_t Attempted = 0, Failed = InputMismatches;
  for (const std::vector<PassResult> *Passes : {&Plain, &Traced})
    for (const PassResult &P : *Passes) {
      Attempted += static_cast<int64_t>(P.Latency.size());
      Failed += P.Failed;
    }
  // The traced path must produce byte-identical outputs.
  for (size_t I = 0; I != Traced.size(); ++I)
    for (size_t J = 0; J != Reqs.size(); ++J)
      if (Traced[I].Digest[J] != Plain[I].Digest[J]) {
        std::fprintf(stderr, "perfbench: traced output of %s differs\n",
                     Reqs[J].Id.c_str());
        ++Failed;
      }
  bool Correct = Failed == 0;
  double ErrorRate =
      static_cast<double>(Failed) / std::max<int64_t>(1, Attempted);

  // Each request's median latency over the untraced passes.
  double LogSum = 0;
  for (size_t J = 0; J != Reqs.size(); ++J) {
    std::vector<double> L;
    for (const PassResult &P : Plain)
      L.push_back(P.Latency[J]);
    LogSum += std::log(median(L) * 1e3);
    std::printf("  request %-34s %12.3f ms\n", Reqs[J].Id.c_str(),
                median(L) * 1e3);
  }
  Metric Geomean{"req_geomean_ms", "ms", std::exp(LogSum / Reqs.size())};

  std::vector<Metric> Metrics;
  if (!A.Trace) {
    std::vector<double> Walls;
    int64_t PeakKb = 0;
    for (const PassResult &P : Plain) {
      Walls.push_back(P.Wall);
      PeakKb = std::max(PeakKb, P.PeakKb);
    }
    std::printf("perfbench: %zu passes of %zu requests, walls", Plain.size(),
                Reqs.size());
    for (double W : Walls)
      std::printf(" %.3f", W);
    std::printf(" s\n");
    Metrics = {
        {"setup_s", "s", median(SetupSeconds)},
        {"wall_s", "s", median(Walls)},
        {"peak_rss_mb", "MiB", PeakKb / 1024.0},
        {"t_count", "gates", static_cast<double>(Plain.front().TCount)},
    };
    // Printed, not in the JSON result: exact or zero on some workloads,
    // or (req_geomean_ms) too unsteady across runs for a bound; the
    // traced run reports all three.
    std::printf("  %-30s %16.6f %s\n", Geomean.Name.c_str(), Geomean.Value,
                Geomean.Unit.c_str());
    std::printf("  %-30s %16.6f %s\n", "artifact_mb",
                Plain.front().ArtifactBytes / MiB, "MiB");
    std::printf("  %-30s %16.6f %s\n", "error_rate", ErrorRate, "fraction");
  } else {
    if (Tracer.droppedEvents() != 0) {
      std::fprintf(stderr, "perfbench: tracer dropped %llu events\n",
                   static_cast<unsigned long long>(Tracer.droppedEvents()));
      Correct = false;
    }
    std::ofstream TraceFile(A.TraceOut);
    TraceFile << Tracer.chromeTraceJson() << '\n';
    if (!TraceFile) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   A.TraceOut.c_str());
      Correct = false;
    }
    std::map<std::string, std::vector<double>> Samples;
    std::vector<Metric> Order;
    for (size_t I = 0; I != Traced.size(); ++I)
      for (const Metric &M : layerMetrics(Traced[I], Plain[I].Wall)) {
        if (I == 0)
          Order.push_back(M);
        Samples[M.Name].push_back(M.Value);
      }
    std::printf("perfbench: %zu traced passes of %zu requests\n",
                Traced.size(), Reqs.size());
    for (Metric &M : Order) {
      M.Value = median(Samples[M.Name]);
      Metrics.push_back(M);
    }
    Metrics.push_back(Geomean);
    Metrics.push_back({"error_rate", "fraction", ErrorRate});
  }
  printResult(Correct, Attempted, Failed, Metrics);
  return 0;
}

// -- expect --------------------------------------------------------------------

/// (MCX, T) of a compiled circuit by the paper's per-gate constants.
std::pair<int64_t, int64_t> gateCounts(const circuit::Circuit &C) {
  int64_t T = 0;
  for (const circuit::Gate &G : C.Gates) {
    int64_t Controls = G.numControls();
    switch (G.Kind) {
    case circuit::GateKind::X:
      T += tOfMCX(Controls);
      break;
    case circuit::GateKind::H:
      T += tOfControlledH(Controls);
      break;
    case circuit::GateKind::T:
    case circuit::GateKind::Tdg:
      T += 1;
      break;
    default:
      break;
    }
  }
  return {static_cast<int64_t>(C.Gates.size()), T};
}

/// Circuits whose formula gives at most this T-complexity are also
/// decomposed to Clifford+T, and the T gates counted there must agree.
constexpr int64_t DecomposeCheckLimit = 2000000;

bool compiledCounts(const ir::CoreProgram &P, const circuit::TargetConfig &Target,
                    int64_t &MCX, int64_t &T) {
  circuit::CompileResult C = circuit::compileToCircuit(P, Target);
  std::tie(MCX, T) = gateCounts(C.Circ);
  if (T > DecomposeCheckLimit)
    return true;
  int64_t Counted = 0;
  for (const circuit::Gate &G : decompose::toCliffordT(C.Circ).Gates)
    Counted += G.isTLike();
  if (Counted != T)
    std::fprintf(stderr, "perfbench: %lld T gates after decomposition, "
                         "%lld by formula\n",
                 static_cast<long long>(Counted), static_cast<long long>(T));
  return Counted == T;
}

int expectMode(const Args &A) {
  std::filesystem::create_directories(A.WorkDir);
  std::vector<std::string> Lines;
  std::string Error;
  std::vector<InputFile> Inputs;
  if (!generateInputs("circuit-in", A.WorkDir, Inputs, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 1;
  }
  for (const InputFile &In : Inputs) {
    std::string Text;
    if (!slurp(In.Path, Text))
      return 1;
    Scan S = scanCircuitText(Text);
    Lines.push_back(artifactLine(In.Id, S));
    std::fprintf(stderr, "%s\n", Lines.back().c_str());
  }
  driver::Service Svc(nullptr);
  for (const Request &R : allCheckedRequests(A.WorkDir)) {
    if (R.K == Kind::Cost) {
      driver::PipelineOptions O = R.Pipe;
      O.AnalyzeCost = false;
      O.StopAfter = driver::Stage::SpireOpt;
      driver::CompilationResult Res =
          driver::CompilationPipeline(O).run(R.Source);
      ExpectedCost C;
      if (!Res.succeeded() ||
          !compiledCounts(*Res.Core, O.Target, C.BeforeMCX, C.BeforeT) ||
          !compiledCounts(*Res.Optimized, O.Target, C.AfterMCX, C.AfterT)) {
        std::fprintf(stderr, "perfbench: cannot derive costs of %s\n%s",
                     R.Id.c_str(), Res.Diags.str().c_str());
        return 1;
      }
      Lines.push_back(costLine(R.Id, C));
    } else {
      Outcome O = runRequest(R, Svc);
      std::string Text;
      if (!O.OK || !slurp(R.OutPath, Text)) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", R.Id.c_str(),
                     O.Error.c_str());
        return 1;
      }
      Scan S = scanCircuitText(Text);
      if (!S.OK) {
        std::fprintf(stderr, "perfbench: scan of %s: %s\n", R.Id.c_str(),
                     S.Error.c_str());
        return 1;
      }
      Lines.push_back(artifactLine(R.Id, S));
      std::filesystem::remove(R.OutPath);
    }
    std::fprintf(stderr, "%s\n", Lines.back().c_str());
  }
  for (const InputFile &In : Inputs)
    std::filesystem::remove(In.Path);

  std::ofstream Out(A.Out);
  Out << "# Expected outputs of the perfbench requests. Regenerate with\n"
         "#   python3 perfbench/gen_expected.py\n"
         "# cost <request> <before MCX> <before T> <after MCX> <after T>\n"
         "#   (gate counts of the compiled circuits, not the cost model)\n"
         "# artifact <file> <bytes> <gates> <T-complexity> <content hash>\n"
         "#   (perfbench's own line scan of the written file)\n";
  for (const std::string &L : Lines)
    Out << L << '\n';
  return Out ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench run --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> --expected "
                 "<file> [--trace-out <file>]\n"
                 "       perfbench expect --work-dir <dir> --out <file>\n");
    return 2;
  }
  return A.Mode == "expect" ? expectMode(A) : runMode(A);
}
