//===----------------------------------------------------------------------===//
///
/// \file
/// The traced request path: the same requests as workloads.h, run by
/// calling each module's public function in the order the pipeline uses,
/// with the same options, each call inside a span of a benchmark-owned
/// obs::Tracer tagged with the request id. Around every call the runner
/// also takes the heap-allocation delta and a resettable peak RSS
/// (/proc/self/clear_refs, then VmHWM). Library-internal spans go to
/// Tracer::global(), which stays off, so they cannot eat into layer self
/// time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "obs/Trace.h"
#include "workloads.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// One span per public call; the names are the modules in src/.
enum Layer {
  Frontend,       ///< frontend::parseProgram
  Sema,           ///< sema::typeCheck (+ the entry lookup)
  Lowering,       ///< lowering::lowerProgram
  Opt,            ///< opt::optimizeProgram
  Costmodel,      ///< costmodel::analyzeProgram (unoptimized, optimized)
  CircuitCompile, ///< circuit::compileToCircuit
  QcWrite,        ///< interchange::writeCircuit, .qc
  QasmWrite,      ///< interchange::writeCircuit, OpenQASM 3
  SupportWrite,   ///< support::writeFileAtomic
  SupportRead,    ///< support::readFile
  QcRead,         ///< interchange::readCircuit, .qc
  QasmRead,       ///< interchange::readCircuit, OpenQASM 3
  Decompose,      ///< decompose::toCliffordT
  QoptCancel,     ///< qopt::cancelAdjacentGates (standard)
  QoptPhasefold,  ///< qopt::phaseFold
  NumLayers
};

/// Per-pass totals of the traced path.
struct LayerTotals {
  double Seconds[NumLayers] = {};      ///< Span self time.
  int64_t Allocs[NumLayers] = {};      ///< allocationCount() deltas.
  int64_t Bytes[NumLayers] = {};       ///< Text bytes read or rendered.
  double PeakGrowthMb[NumLayers] = {}; ///< Largest VmHWM - VmRSS(before).
  double RequestSeconds = 0;           ///< Request spans, summed.
  int64_t InlineInstances = 0;         ///< lower.inline_instances delta.
  int64_t CacheHits = 0, CacheMisses = 0;
  int64_t DecomposeGatesOut = 0;
  int64_t CancelVisits = 0, CancelledPairs = 0;
  int64_t MergedRotations = 0, EmittedRotations = 0;
};

/// Runs \p R on the traced path under span "request" (arg req = ReqId).
Outcome runTraced(const Request &R, spire::obs::Tracer &T, int64_t ReqId,
                  LayerTotals &Tot);

/// Adds the self time of every span in Events[From, end) to \p Tot.
void addSpanTimes(const std::vector<spire::obs::TraceEvent> &Events,
                  size_t From, LayerTotals &Tot);

/// Resets the process peak RSS to the current RSS (clear_refs "5").
void resetPeakRss();
/// VmHWM of this process in KiB (0 when unreadable).
int64_t peakRssKb();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
