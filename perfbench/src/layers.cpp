#include "layers.h"

#include "circuit/Compiler.h"
#include "decompose/Decompose.h"
#include "frontend/Parser.h"
#include "interchange/Interchange.h"
#include "lowering/Lower.h"
#include "obs/Metrics.h"
#include "opt/Spire.h"
#include "qopt/Passes.h"
#include "sema/TypeChecker.h"
#include "support/AllocStats.h"
#include "support/FileIO.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>

using namespace spire;

namespace perfbench {

namespace {

const char *const SpanNames[NumLayers] = {
    "frontend",        "sema",
    "lowering",        "opt",
    "costmodel",       "circuit.compile",
    "circuit.qc_write", "interchange.qasm_write",
    "support.write",   "support.read",
    "circuit.qc_read", "interchange.qasm_read",
    "decompose",       "qopt.cancel",
    "qopt.phasefold",
};

const char RequestSpan[] = "request";

/// Reads one `Field: <n> kB` line of /proc/self/status without touching
/// the heap (the allocation deltas around layer calls stay exact).
int64_t statusKb(const char *Field) {
  int Fd = ::open("/proc/self/status", O_RDONLY);
  if (Fd < 0)
    return 0;
  char Buf[8192];
  ssize_t N = ::read(Fd, Buf, sizeof(Buf) - 1);
  ::close(Fd);
  if (N <= 0)
    return 0;
  Buf[N] = '\0';
  const char *P = std::strstr(Buf, Field);
  return P ? std::strtoll(P + std::strlen(Field), nullptr, 10) : 0;
}

int64_t currentRssKb() { return statusKb("VmRSS:"); }

/// Times public calls of one request: each call runs inside a span named
/// after its layer, with the allocation and peak-RSS deltas booked to
/// the layer's totals.
class Calls {
public:
  Calls(obs::Tracer &T, int64_t ReqId, LayerTotals &Tot)
      : T(T), ReqId(ReqId), Tot(Tot) {}

  template <typename Fn> auto operator()(Layer L, Fn &&F) {
    Used[L] = true;
    resetPeakRss();
    int64_t RssBefore = currentRssKb();
    int64_t AllocsBefore = support::allocationCount();
    auto Result = [&] {
      obs::Span S(SpanNames[L], T);
      S.arg("req", ReqId);
      return F();
    }();
    Tot.Allocs[L] += support::allocationCount() - AllocsBefore;
    Tot.PeakGrowthMb[L] = std::max(Tot.PeakGrowthMb[L],
                                   (peakRssKb() - RssBefore) / 1024.0);
    return Result;
  }

  /// Destroys a layer's product inside that layer's span, so teardown
  /// is booked where the structure was built.
  template <typename Product>
  void release(Layer L, std::optional<Product> &X) {
    (*this)(L, [&] {
      X.reset();
      return 0;
    });
  }

  /// Gives every layer the request did not call an empty span, so an
  /// idle layer reads the cost of its boundary, not a constant zero.
  void markIdleLayers() {
    for (int L = 0; L != NumLayers; ++L)
      if (!Used[L]) {
        obs::Span S(SpanNames[L], T);
        S.arg("req", ReqId);
      }
  }

private:
  obs::Tracer &T;
  int64_t ReqId;
  LayerTotals &Tot;
  bool Used[NumLayers] = {};
};

Layer writerFor(interchange::Format F) {
  return F == interchange::Format::Qc ? QcWrite : QasmWrite;
}

Layer readerFor(interchange::Format F) {
  return F == interchange::Format::Qc ? QcRead : QasmRead;
}

/// Renders \p Circ and writes it to the request's output file.
bool emit(Calls &C, const Request &R, const circuit::Circuit &Circ,
          const circuit::CircuitLayout *Layout, LayerTotals &Tot,
          std::string &Error) {
  Layer W = writerFor(R.Pipe.OutputFormat);
  std::optional<std::string> Text = C(W, [&] {
    return std::optional<std::string>(
        interchange::writeCircuit(Circ, R.Pipe.OutputFormat, Layout));
  });
  Tot.Bytes[W] += static_cast<int64_t>(Text->size());
  bool OK = C(SupportWrite, [&] {
    return support::writeFileAtomic(R.OutPath, *Text, Error);
  });
  C.release(W, Text);
  return OK;
}

Outcome runSourceRequest(Calls &C, const Request &R, LayerTotals &Tot) {
  Outcome Out;
  const driver::PipelineOptions &O = R.Pipe;
  support::DiagnosticEngine Diags;
  auto fail = [&] {
    Out.Error = Diags.str();
    return Out;
  };
  std::optional<ast::Program> AST =
      C(Frontend, [&] { return frontend::parseProgram(R.Source, Diags); });
  if (!AST)
    return fail();
  bool Typed = C(Sema, [&] {
    return sema::typeCheck(*AST, Diags) &&
           AST->findFunction(O.Entry) != nullptr;
  });
  if (!Typed)
    return fail();

  lowering::LowerOptions LowerOpts;
  LowerOpts.HeapCells = O.Target.HeapCells;
  LowerOpts.MaxInlineInstances = O.MaxInlineInstances;
  LowerOpts.MaxInlineDepth = O.MaxInlineDepth;
  LowerOpts.AssumeTypeChecked = true;
  auto &Reg = obs::Registry::global();
  obs::Registry::Counter Instances = Reg.counter("lower.inline_instances");
  int64_t InstancesBefore = Instances.value();
  std::optional<ir::CoreProgram> Core = C(Lowering, [&] {
    return lowering::lowerProgram(*AST, O.Entry, O.Size, Diags, LowerOpts);
  });
  Tot.InlineInstances += Instances.value() - InstancesBefore;
  if (!Core)
    return fail();
  std::optional<ir::CoreProgram> Optimized = C(Opt, [&] {
    return std::optional<ir::CoreProgram>(
        opt::optimizeProgram(*Core, O.Spire));
  });

  if (R.K == Kind::Cost) {
    obs::Registry::Counter Hits =
        Reg.counter("costmodel.profile_cache.hits");
    obs::Registry::Counter Misses =
        Reg.counter("costmodel.profile_cache.misses");
    int64_t HitsBefore = Hits.value(), MissesBefore = Misses.value();
    Out.Before = C(Costmodel,
                   [&] { return costmodel::analyzeProgram(*Core, O.Target); });
    Out.After = C(Costmodel, [&] {
      return costmodel::analyzeProgram(*Optimized, O.Target);
    });
    Tot.CacheHits += Hits.value() - HitsBefore;
    Tot.CacheMisses += Misses.value() - MissesBefore;
    Out.OK = true;
  } else {
    std::optional<circuit::CompileResult> Compiled = C(CircuitCompile, [&] {
      return std::optional<circuit::CompileResult>(
          circuit::compileToCircuit(*Optimized, O.Target));
    });
    Out.OK = emit(C, R, Compiled->Circ, &Compiled->Layout, Tot, Out.Error);
    C.release(CircuitCompile, Compiled);
  }
  C.release(Opt, Optimized);
  C.release(Lowering, Core);
  C.release(Frontend, AST);
  return Out;
}

Outcome runCircuitRequest(Calls &C, const Request &R, LayerTotals &Tot) {
  Outcome Out;
  const driver::PipelineOptions &O = R.Pipe;
  std::optional<std::string> Text = std::string();
  if (!C(SupportRead,
         [&] { return support::readFile(R.InPath, *Text, Out.Error); }))
    return Out;
  Tot.Bytes[SupportRead] += static_cast<int64_t>(Text->size());
  Layer RL = readerFor(O.InputFormat);
  support::DiagnosticEngine Diags;
  std::optional<circuit::Circuit> In = C(RL, [&] {
    return interchange::readCircuit(*Text, O.InputFormat, Diags);
  });
  Tot.Bytes[RL] += static_cast<int64_t>(Text->size());
  if (!In) {
    Out.Error = Diags.str();
    return Out;
  }

  if (R.K == Kind::Translate) {
    Out.OK = emit(C, R, *In, nullptr, Tot, Out.Error);
  } else {
    // cliffordt-cancel: decompose, then standard cancellation, then
    // phase folding; intermediates live until the fold returns, as in
    // driver::applyCircuitOptimizer.
    qopt::OptStats Stats;
    std::optional<circuit::Circuit> CT = C(Decompose, [&] {
      return std::optional<circuit::Circuit>(decompose::toCliffordT(*In));
    });
    Tot.DecomposeGatesOut += static_cast<int64_t>(CT->Gates.size());
    std::optional<circuit::Circuit> Cancelled = C(QoptCancel, [&] {
      return std::optional<circuit::Circuit>(qopt::cancelAdjacentGates(
          *CT, qopt::CancelOptions::standard(), &Stats));
    });
    std::optional<circuit::Circuit> Folded = C(QoptPhasefold, [&] {
      return std::optional<circuit::Circuit>(
          qopt::phaseFold(*Cancelled, &Stats));
    });
    C.release(QoptCancel, Cancelled);
    C.release(Decompose, CT);
    Tot.CancelVisits += Stats.WorklistVisits;
    Tot.CancelledPairs += Stats.CancelledPairs;
    Tot.MergedRotations += Stats.MergedRotations;
    Tot.EmittedRotations += Stats.EmittedRotations;
    Out.OK = emit(C, R, *Folded, nullptr, Tot, Out.Error);
    C.release(QoptPhasefold, Folded);
  }
  C.release(RL, In);
  C.release(SupportRead, Text);
  return Out;
}

} // namespace

Outcome runTraced(const Request &R, obs::Tracer &T, int64_t ReqId,
                  LayerTotals &Tot) {
  obs::Span Root(RequestSpan, T);
  Root.arg("req", ReqId);
  Calls C(T, ReqId, Tot);
  Outcome Out = R.K == Kind::Cost || R.K == Kind::Emit
                    ? runSourceRequest(C, R, Tot)
                    : runCircuitRequest(C, R, Tot);
  C.markIdleLayers();
  return Out;
}

void addSpanTimes(const std::vector<obs::TraceEvent> &Events, size_t From,
                  LayerTotals &Tot) {
  struct Open {
    const char *Name;
    uint64_t StartNs;
    uint64_t ChildNs;
  };
  std::vector<Open> Stack;
  for (size_t I = From; I < Events.size(); ++I) {
    const obs::TraceEvent &E = Events[I];
    if (E.Phase == 'B') {
      Stack.push_back({E.Name, E.TsNs, 0});
      continue;
    }
    if (Stack.empty())
      continue;
    Open Top = Stack.back();
    Stack.pop_back();
    uint64_t Duration = E.TsNs - Top.StartNs;
    if (!Stack.empty())
      Stack.back().ChildNs += Duration;
    if (std::strcmp(Top.Name, RequestSpan) == 0) {
      Tot.RequestSeconds += Duration * 1e-9;
      continue;
    }
    for (int L = 0; L != NumLayers; ++L)
      if (std::strcmp(Top.Name, SpanNames[L]) == 0)
        Tot.Seconds[L] += (Duration - Top.ChildNs) * 1e-9;
  }
}

void resetPeakRss() {
  int Fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (Fd < 0)
    return;
  ssize_t Ignored = ::write(Fd, "5", 1);
  (void)Ignored;
  ::close(Fd);
}

int64_t peakRssKb() { return statusKb("VmHWM:"); }

} // namespace perfbench
