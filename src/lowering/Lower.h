//===----------------------------------------------------------------------===//
///
/// \file
/// Lowering from the Tower surface AST to the core IR of Fig. 13.
///
/// This stage implements Section 4's "Derived Forms" and the compiler
/// behavior of Section 7 ("This lowering involves inlining all function
/// calls and translating memory allocation and derived forms to core
/// syntax"):
///
///  * Function inlining. Recursive calls carry static size arguments
///    (`length[n-1](...)`); each call is inlined with the size evaluated,
///    bottoming out at size <= 0 where the call produces the all-zero
///    value of its return type (Section 3.1: "returns the length of the
///    list xs if it is less than n, or 0 otherwise").
///  * if-else desugaring (Yuan & Carbin [2022, Appendix B]):
///      if e { s1 } else { s2 }
///        ~> with { c <- e; nc <- not c } do { if c {s1}; if nc {s2} }
///  * Nested-expression flattening: compound operands are computed into
///    temporaries inside a with-block so they are automatically
///    uncomputed, preserving reversibility.
///  * Memory allocation: `alloc<T>` sites are assigned distinct static
///    heap cells from the top of the heap downward. This substitutes
///    Tower's dynamic Boson allocator with a reversible static allocator
///    (see `alloc<T>` in docs/language.md); allocation costs O(1) MCX
///    gates, preserving the asymptotics the paper studies.
///
/// Inlining runs on an explicit worklist of heap-allocated frames rather
/// than C++ recursion, so recursion depth is limited only by
/// LowerOptions::MaxInlineDepth / MaxInlineInstances (each produces a
/// diagnostic, never a stack overflow); `--size 100000` programs lower in
/// one pass. See docs/architecture.md for the machine's design.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_LOWERING_LOWER_H
#define SPIRE_LOWERING_LOWER_H

#include "ast/AST.h"
#include "ir/Core.h"
#include "support/Diagnostics.h"

#include <optional>
#include <string>

namespace spire::lowering {

struct LowerOptions {
  /// Number of qRAM cells the backend will instantiate; static `alloc<T>`
  /// cells are assigned from the top of this range.
  unsigned HeapCells = 16;
  /// Safety bound on the number of inlined function instances.
  unsigned MaxInlineInstances = 100000;
  /// Safety bound on the depth of the call-inlining stack. The lowerer is
  /// iterative (an explicit worklist of heap-allocated frames), so deep
  /// recursion is bounded by this option with a diagnostic — not by the
  /// C++ call stack with a segfault. Depth never exceeds the instance
  /// count, so with the defaults the instance bound trips first; lower
  /// this to cap nesting (and the IR depth it implies) specifically.
  unsigned MaxInlineDepth = 100000;
  /// Skip the internal type-check pass when the caller (the driver
  /// pipeline) has already checked and annotated the program.
  bool AssumeTypeChecked = false;
};

/// Type-checks `Program` (annotating expressions in place) and lowers the
/// entry function instantiated at the given size value to core IR.
/// `SizeValue` is ignored for functions without a size parameter.
/// Returns std::nullopt and reports diagnostics on failure.
std::optional<ir::CoreProgram>
lowerProgram(ast::Program &Program, const std::string &Entry,
             int64_t SizeValue, support::DiagnosticEngine &Diags,
             const LowerOptions &Opts = {});

/// Convenience wrapper asserting success; used by tests and benchmarks.
ir::CoreProgram lowerProgramOrDie(ast::Program &Program,
                                  const std::string &Entry, int64_t SizeValue,
                                  const LowerOptions &Opts = {});

} // namespace spire::lowering

#endif // SPIRE_LOWERING_LOWER_H
