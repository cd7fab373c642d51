#include "workloads.h"

#include "benchmarks/Benchmarks.h"
#include "support/FileIO.h"
#include "support/Hash.h"

#include <algorithm>

using namespace spire;

namespace perfbench {

namespace {

/// The `f[n]` program of bench_pipeline_scale: linear recursion, one
/// adder and one directly bound call per level (flat IR).
const char FSource[] = "fun f[n](a: uint) -> uint {"
                       "  let a2 <- a + 1;"
                       "  let out <- f[n-1](a2);"
                       "  return out; }";

/// The `g[n]` program of bench_pipeline_scale: const-arg recursion, one
/// with-block per level and a near-empty circuit.
const char GSource[] = "fun g[n](a: uint) -> uint {"
                       "  let out <- g[n-1](0);"
                       "  return out; }";

struct Program {
  std::string Name;
  std::string Entry;
  const char *Source;
  unsigned WordBits;
  std::string Group;
};

const std::vector<Program> &tableOne() {
  static const std::vector<Program> Programs = [] {
    std::vector<Program> P;
    for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks())
      P.push_back({B.Name, B.Entry, B.Source, 8, B.Group});
    return P;
  }();
  return Programs;
}

const Program FProgram{"f", "f", FSource, 4, "Scale"};
const Program GProgram{"g", "g", GSource, 4, "Scale"};

/// Shallow and deep cost-report sizes.
std::vector<int64_t> costSizes(const Program &P) {
  if (P.Group == "Set")
    return {10, 20};
  if (P.Name == "push_back")
    return {100, 300};
  return {100, 600};
}
int64_t emitSize(const Program &P) { return P.Group == "Set" ? 10 : 100; }
int64_t optimizeSize(const Program &P) { return P.Group == "Set" ? 2 : 4; }

constexpr int64_t ScaleSize = 100000;
constexpr int64_t OptimizeScaleSize = 3000;

/// Fisher-Yates over SplitMix64, so a seed means the same order on every
/// platform (std::shuffle's algorithm is unspecified).
template <typename T> void shuffle(std::vector<T> &V, uint64_t &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[support::splitMix64(Rng) % I]);
}

driver::PipelineOptions pinned(const Program &P, int64_t Size) {
  driver::PipelineOptions O = driver::PipelineOptions::forEntry(P.Entry, Size);
  O.Target.WordBits = P.WordBits;
  // push_back and insert take a heap cell per level from the static
  // allocator, so the default 16 cells run out on deep instances.
  if (P.Name == "push_back" || P.Name == "insert")
    O.Target.HeapCells = std::max<unsigned>(O.Target.HeapCells,
                                            static_cast<unsigned>(Size) + 1);
  O.VerifyEach = false;
  O.Limits = support::GovernorLimits();
  O.MaxInlineInstances = 1000000;
  O.MaxInlineDepth = 1000000;
  O.AnalyzeCost = false;
  O.AnalyzeUnoptimized = false;
  O.BuildCircuit = false;
  O.EstimateResources = false;
  return O;
}

std::string key(const Program &P, int64_t Size) {
  return P.Name + "@" + std::to_string(Size);
}

const char *ext(interchange::Format F) {
  return F == interchange::Format::Qc ? "qc" : "qasm3";
}

interchange::Format other(interchange::Format F) {
  return F == interchange::Format::Qc ? interchange::Format::Qasm3
                                      : interchange::Format::Qc;
}

std::string fileFor(const std::string &Dir, const std::string &Id) {
  std::string Name;
  for (char C : Id) {
    if (C == ':')
      Name += '_';
    else if (C == '>')
      Name += "-to-";
    else
      Name += C;
  }
  return Dir + "/" + Name;
}

std::string inputId(const Program &P, int64_t Size, interchange::Format F) {
  return "in:" + key(P, Size) + "." + ext(F);
}

Request costRequest(const Program &P, int64_t Size) {
  Request R;
  R.Id = key(P, Size);
  R.K = Kind::Cost;
  R.Pipe = pinned(P, Size);
  R.Pipe.AnalyzeCost = true;
  R.Pipe.AnalyzeUnoptimized = true;
  R.Source = P.Source;
  return R;
}

Request emitRequest(const Program &P, int64_t Size, interchange::Format F,
                    const std::string &Dir) {
  Request R;
  R.Id = "emit:" + key(P, Size) + "." + ext(F);
  R.K = Kind::Emit;
  R.Pipe = pinned(P, Size);
  R.Pipe.BuildCircuit = true;
  R.Pipe.OutputFormat = F;
  R.Source = P.Source;
  R.OutPath = fileFor(Dir, R.Id);
  return R;
}

Request circuitRequest(Kind K, const Program &P, int64_t Size,
                       interchange::Format In, const std::string &Dir) {
  Request R;
  R.Id = std::string(K == Kind::Translate ? "xlate:" : "opt:") +
         key(P, Size) + "." + ext(In) + ">" + ext(other(In));
  R.K = K;
  R.Pipe = pinned(P, Size);
  R.Pipe.Input = driver::InputKind::Circuit;
  R.Pipe.InputFormat = In;
  R.Pipe.OutputFormat = other(In);
  R.Pipe.BuildCircuit = true;
  if (K == Kind::Optimize)
    R.Pipe.CircuitOpt = driver::CircuitOptimizerKind::CliffordTCancel;
  R.InPath = fileFor(Dir, inputId(P, Size, In));
  R.OutPath = fileFor(Dir, R.Id);
  return R;
}

/// The circuit-in optimize programs: Table 1 at small sizes plus f[3000].
std::vector<std::pair<const Program *, int64_t>> optimizePrograms() {
  std::vector<std::pair<const Program *, int64_t>> Out;
  for (const Program &P : tableOne())
    Out.push_back({&P, optimizeSize(P)});
  Out.push_back({&FProgram, OptimizeScaleSize});
  return Out;
}

} // namespace

bool isWorkload(const std::string &Name) {
  return Name == "cost-report" || Name == "compile-emit" ||
         Name == "circuit-in";
}

std::vector<Request> buildRequests(const std::string &Workload, uint64_t Seed,
                                   const std::string &WorkDir) {
  using interchange::Format;
  uint64_t R = Seed;
  std::vector<Request> Reqs;
  if (Workload == "cost-report") {
    for (const Program &P : tableOne())
      for (int64_t Size : costSizes(P))
        Reqs.push_back(costRequest(P, Size));
    Reqs.push_back(costRequest(FProgram, ScaleSize));
    shuffle(Reqs, R);
  } else if (Workload == "compile-emit") {
    // Table 1 output formats alternate along a seeded order; the f and g
    // requests keep theirs.
    std::vector<const Program *> Order;
    for (const Program &P : tableOne())
      Order.push_back(&P);
    shuffle(Order, R);
    bool Qc = support::splitMix64(R) & 1;
    for (const Program *P : Order) {
      Reqs.push_back(emitRequest(*P, emitSize(*P),
                                 Qc ? Format::Qc : Format::Qasm3, WorkDir));
      Qc = !Qc;
    }
    Reqs.push_back(emitRequest(FProgram, ScaleSize, Format::Qc, WorkDir));
    Reqs.push_back(emitRequest(FProgram, ScaleSize, Format::Qasm3, WorkDir));
    Reqs.push_back(emitRequest(GProgram, ScaleSize, Format::Qc, WorkDir));
    shuffle(Reqs, R);
  } else if (Workload == "circuit-in") {
    auto Programs = optimizePrograms();
    shuffle(Programs, R);
    bool Qc = support::splitMix64(R) & 1;
    for (auto &[P, Size] : Programs) {
      Reqs.push_back(circuitRequest(Kind::Optimize, *P, Size,
                                    Qc ? Format::Qc : Format::Qasm3, WorkDir));
      Qc = !Qc;
    }
    Reqs.push_back(circuitRequest(Kind::Translate, FProgram, ScaleSize,
                                  Format::Qc, WorkDir));
    Reqs.push_back(circuitRequest(Kind::Translate, FProgram, ScaleSize,
                                  Format::Qasm3, WorkDir));
    shuffle(Reqs, R);
  }
  return Reqs;
}

Request warmupRequest(const std::string &Workload,
                      const std::string &WorkDir) {
  const Program &Length = tableOne().front();
  if (Workload == "cost-report")
    return costRequest(Length, emitSize(Length));
  if (Workload == "compile-emit")
    return emitRequest(Length, emitSize(Length), interchange::Format::Qc,
                       WorkDir);
  const Program &PopFront = *std::find_if(
      tableOne().begin(), tableOne().end(),
      [](const Program &P) { return P.Name == "pop_front"; });
  return circuitRequest(Kind::Optimize, PopFront, optimizeSize(PopFront),
                        interchange::Format::Qc, WorkDir);
}

bool generateInputs(const std::string &Workload, const std::string &WorkDir,
                    std::vector<InputFile> &Written, std::string &Error) {
  if (Workload != "circuit-in")
    return true;
  auto Programs = optimizePrograms();
  Programs.push_back({&FProgram, ScaleSize});
  for (auto &[P, Size] : Programs) {
    driver::PipelineOptions O = pinned(*P, Size);
    O.BuildCircuit = true;
    driver::CompilationResult R = driver::CompilationPipeline(O).run(P->Source);
    if (!R.succeeded()) {
      Error = "input " + key(*P, Size) + ": " + R.Diags.str();
      return false;
    }
    for (interchange::Format F :
         {interchange::Format::Qc, interchange::Format::Qasm3}) {
      O.OutputFormat = F;
      std::string Text = driver::CompilationPipeline(O).renderFinalCircuit(R);
      InputFile In{inputId(*P, Size, F), ""};
      In.Path = fileFor(WorkDir, In.Id);
      if (!support::writeFileAtomic(In.Path, Text, Error))
        return false;
      Written.push_back(std::move(In));
    }
  }
  return true;
}

Outcome runRequest(const Request &R, driver::Service &Svc) {
  Outcome Out;
  if (R.K == Kind::Cost) {
    driver::CompilationResult Res =
        driver::CompilationPipeline(R.Pipe).run(R.Source);
    if (!Res.succeeded() || !Res.UnoptimizedCost || !Res.OptimizedCost) {
      Out.Error = Res.Diags.str();
      return Out;
    }
    Out.Before = *Res.UnoptimizedCost;
    Out.After = *Res.OptimizedCost;
    Out.OK = true;
    return Out;
  }
  driver::ServiceRequest Q{R.Pipe, {}};
  if (R.K == Kind::Emit)
    Q.Source = R.Source;
  else if (!support::readFile(R.InPath, Q.Source, Out.Error))
    return Out;
  driver::ServiceResponse Resp = Svc.handle(Q);
  if (!Resp.OK) {
    Out.Error = Resp.Error;
    return Out;
  }
  Out.OK = support::writeFileAtomic(R.OutPath, Resp.Artifact, Out.Error);
  return Out;
}

std::vector<Request> allCheckedRequests(const std::string &WorkDir) {
  using interchange::Format;
  std::vector<Request> Reqs;
  for (const Program &P : tableOne())
    for (int64_t Size : costSizes(P))
      Reqs.push_back(costRequest(P, Size));
  Reqs.push_back(costRequest(FProgram, ScaleSize));
  for (Format F : {Format::Qc, Format::Qasm3}) {
    for (const Program &P : tableOne())
      Reqs.push_back(emitRequest(P, emitSize(P), F, WorkDir));
    Reqs.push_back(emitRequest(FProgram, ScaleSize, F, WorkDir));
    for (auto &[P, Size] : optimizePrograms())
      Reqs.push_back(circuitRequest(Kind::Optimize, *P, Size, F, WorkDir));
    Reqs.push_back(
        circuitRequest(Kind::Translate, FProgram, ScaleSize, F, WorkDir));
  }
  Reqs.push_back(emitRequest(GProgram, ScaleSize, Format::Qc, WorkDir));
  return Reqs;
}

} // namespace perfbench
