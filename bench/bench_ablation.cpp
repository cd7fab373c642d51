//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation studies for three design choices:
///
///  1. Word width: the paper argues (Appendix A) that bit width
///     contributes an orthogonal multiplicative factor; sweeping the
///     target word width must leave the asymptotic degrees unchanged.
///  2. Heap size: memory operations cost O(HeapCells) gates but the
///     cell count is depth-independent, so degrees are again unchanged
///     while constants scale.
///  3. Cancellation lookahead: the Toffoli-cancel optimizer needs enough
///     commutation lookahead to find the flattening-induced adjacent
///     pairs; too small a window loses the asymptotic improvement.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Harness.h"
#include "decompose/Decompose.h"
#include "qopt/Passes.h"

#include <cstdio>

using namespace spire;
using namespace spire::benchmarks;

namespace {

int degreeAt(const BenchmarkProgram &B, circuit::TargetConfig Config,
             lowering::LowerOptions LowerOpts, bool Optimize) {
  Series S;
  for (int64_t N = 2; N <= 6; ++N) {
    ir::CoreProgram P = lowerBenchmark(B, N, LowerOpts);
    ir::CoreProgram O = Optimize
                            ? opt::optimizeProgram(P, opt::SpireOptions::all())
                            : P.clone();
    S.Depths.push_back(N);
    S.Values.push_back(costmodel::analyzeProgram(O, Config).T);
  }
  return S.degree();
}

} // namespace

int main() {
  std::printf("== Ablation 1: word width sweep (length) ==\n");
  std::printf("%6s %18s %18s\n", "bits", "T degree (orig)", "T degree "
                                                            "(Spire)");
  bool OK = true;
  for (unsigned Bits : {4u, 8u, 12u}) {
    circuit::TargetConfig Config;
    Config.WordBits = Bits;
    lowering::LowerOptions LowerOpts;
    int D0 = degreeAt(lengthBenchmark(), Config, LowerOpts, false);
    int D1 = degreeAt(lengthBenchmark(), Config, LowerOpts, true);
    std::printf("%6u %18d %18d\n", Bits, D0, D1);
    OK = OK && D0 == 2 && D1 == 1;
  }

  std::printf("\n== Ablation 2: heap size sweep (length) ==\n");
  std::printf("%6s %18s %18s %16s\n", "cells", "T degree (orig)",
              "T degree (Spire)", "T at n=4 (orig)");
  for (unsigned Cells : {8u, 16u, 32u}) {
    circuit::TargetConfig Config;
    Config.HeapCells = Cells;
    lowering::LowerOptions LowerOpts;
    LowerOpts.HeapCells = Cells;
    int D0 = degreeAt(lengthBenchmark(), Config, LowerOpts, false);
    int D1 = degreeAt(lengthBenchmark(), Config, LowerOpts, true);
    ir::CoreProgram P = lowerBenchmark(lengthBenchmark(), 4, LowerOpts);
    int64_t T4 = costmodel::analyzeProgram(P, Config).T;
    std::printf("%6u %18d %18d %16lld\n", Cells, D0, D1,
                static_cast<long long>(T4));
    OK = OK && D0 == 2 && D1 == 1;
  }

  std::printf("\n== Ablation 3: cancellation lookahead "
              "(length-simplified, Toffoli-cancel) ==\n");
  std::printf("%10s %14s %8s\n", "lookahead", "T at n=8", "degree");
  circuit::TargetConfig Config;
  for (unsigned Lookahead : {2u, 8u, 32u, 128u}) {
    Series S;
    for (int64_t N = 2; N <= 8; ++N) {
      ir::CoreProgram P = lowerBenchmark(lengthSimplified(), N);
      circuit::CompileResult R = circuit::compileToCircuit(P, Config);
      circuit::Circuit Toff = decompose::toToffoli(R.Circ);
      qopt::CancelOptions CancelOpts;
      CancelOpts.MaxLookahead = Lookahead;
      CancelOpts.MaxRounds = 64;
      circuit::Circuit Out = qopt::cancelAdjacentGates(Toff, CancelOpts);
      S.Depths.push_back(N);
      S.Values.push_back(
          circuit::countGates(decompose::toCliffordT(Out)).TComplexity);
    }
    std::printf("%10u %14lld %8d\n", Lookahead,
                static_cast<long long>(S.Values.back()), S.stableDegree());
  }

  std::printf("\nwidth/heap ablations preserve degrees: %s\n",
              OK ? "yes" : "NO");
  return OK ? 0 : 1;
}
