//===----------------------------------------------------------------------===//
///
/// \file
/// Output checks that do not trust the code under test: a line scanner
/// that counts gates and T-complexity in `.qc` and OpenQASM 3 text, a
/// content hash, and the committed expected-values file they are compared
/// against (perfbench/expected.txt, written by perfbench/gen_expected.py).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace perfbench {

/// T-complexity of an X gate with \p Controls controls and of an H gate
/// with \p Controls controls, by the paper's constants (Toffoli = 7 T,
/// every further control two more Toffolis; controlled-H = 8 T).
int64_t tOfMCX(int64_t Controls);
int64_t tOfControlledH(int64_t Controls);

/// What the line scan finds in one circuit text.
struct Scan {
  bool OK = false;   ///< False when a line is not a gate the scanner knows.
  int64_t Bytes = 0;
  int64_t Gates = 0;
  int64_t T = 0;     ///< T-complexity (T/Tdg gates count 1 each).
  uint64_t Hash = 0;
  std::string Error;
};

/// Scans `.qc` text, or OpenQASM 3 text when it starts with `OPENQASM`.
Scan scanCircuitText(std::string_view Text);

/// 64-bit content hash (word-at-a-time multiply-xorshift; unrelated to
/// the library's own hash so a change there cannot hide a change here).
uint64_t contentHash(std::string_view Bytes);

/// Expected values of a cost-report request: (MCX, T) before and after
/// Spire's rewrites, from gate counts of the compiled circuits.
struct ExpectedCost {
  int64_t BeforeMCX = 0, BeforeT = 0, AfterMCX = 0, AfterT = 0;
};

/// Expected scan of one artifact or generated input.
struct ExpectedArtifact {
  int64_t Bytes = 0, Gates = 0, T = 0;
  uint64_t Hash = 0;
};

struct Expected {
  std::map<std::string, ExpectedCost> Costs;
  std::map<std::string, ExpectedArtifact> Artifacts;
};

/// Parses the expected-values file. Returns false with \p Error set on a
/// missing file or a malformed line.
bool loadExpected(const std::string &Path, Expected &Out, std::string &Error);

/// Renders one line of the expected-values file.
std::string costLine(const std::string &Id, const ExpectedCost &C);
std::string artifactLine(const std::string &Id, const Scan &S);

/// Whole-file read (no library code on the checking path).
bool slurp(const std::string &Path, std::string &Out);

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
