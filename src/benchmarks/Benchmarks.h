//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's benchmark suite (Table 1): data-structure operations used
/// by quantum algorithms for search [Ambainis 2004], optimization
/// [Bernstein et al. 2013], and geometry [Aaronson et al. 2020], written
/// in Tower, plus `length-simplified` (Section 8.2/8.3).
///
///   List:   length, sum, find_pos, remove
///   Queue:  push_back, pop_front
///   String: is_prefix, num_matching, compare   (strings = char lists)
///   Set:    insert, contains                   (radix tree over strings)
///
/// Differences from the (unpublished) originals are documented here and
/// beside each program's source: memory allocation uses lowering's
/// static reversible allocator, and a few branch-local temporaries are
/// deliberately leaked (left live) instead of branch-locally uncomputed;
/// neither changes the MCX- or T-complexity orders that Table 1 reports.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_BENCHMARKS_BENCHMARKS_H
#define SPIRE_BENCHMARKS_BENCHMARKS_H

#include "ir/Core.h"
#include "lowering/Lower.h"

#include <string>
#include <vector>

namespace spire::benchmarks {

struct BenchmarkProgram {
  std::string Name;     ///< Display name, e.g. "length".
  std::string Group;    ///< "List", "Queue", "String", "Set".
  std::string Entry;    ///< Entry function in the source.
  const char *Source;   ///< Tower source text.
  bool SizeIndexed;     ///< Whether the entry takes a [n]/[d] parameter.
  const char *SizeVar;  ///< "n" or "d" for display.
};

/// The 11 benchmarks of Table 1, in the paper's order.
const std::vector<BenchmarkProgram> &allBenchmarks();

/// `length-simplified` (same asymptotics as `length`, two orders smaller;
/// Section 8's comparison workload).
const BenchmarkProgram &lengthSimplified();

/// The paper's running example `length` (Fig. 1).
const BenchmarkProgram &lengthBenchmark();

/// The toy nested-conditional program of Fig. 3.
const BenchmarkProgram &figure3Program();

/// Parses, checks, and lowers a benchmark at the given recursion depth.
/// Aborts on error (benchmark sources are known-good).
ir::CoreProgram lowerBenchmark(const BenchmarkProgram &B, int64_t Size,
                               const lowering::LowerOptions &Opts = {});

} // namespace spire::benchmarks

#endif // SPIRE_BENCHMARKS_BENCHMARKS_H
