//===----------------------------------------------------------------------===//
///
/// \file
/// Workload generators: encode linked lists, strings, and radix-tree sets
/// into the qRAM machine state used by the interpreter, the circuit
/// simulator, and the benchmark harness.
///
/// Heap convention: input data structures occupy cells
/// from address 1 upward; the static allocator hands out cells from the
/// top of the heap downward, so tests must keep the two regions disjoint.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_BENCHMARKS_WORKLOADS_H
#define SPIRE_BENCHMARKS_WORKLOADS_H

#include "sim/Interpreter.h"

#include <cstdint>
#include <vector>

namespace spire::benchmarks {

/// Encodes a linked list `(uint, ptr<list>)` with the given values into
/// consecutive heap cells starting at `FirstCell`. Returns the head
/// pointer value (0 for the empty list) and advances FirstCell past the
/// allocated cells.
uint64_t encodeListAt(sim::MachineState &State,
                      const std::vector<uint64_t> &Values,
                      unsigned &FirstCell, unsigned WordBits = 8);

/// Convenience overload starting at cell 1.
uint64_t encodeList(sim::MachineState &State,
                    const std::vector<uint64_t> &Values,
                    unsigned WordBits = 8);

/// Decodes a linked list from a machine state.
std::vector<uint64_t> decodeList(const sim::MachineState &State,
                                 uint64_t Head, unsigned WordBits = 8);

/// A key for the radix-tree set benchmarks: a string as a char vector.
using Key = std::vector<uint64_t>;

/// Encodes a binary search tree over string keys matching the layout of
/// the `tnode = (ptr<list>, (ptr<tnode>, ptr<tnode>))` benchmarks: keys
/// are inserted in order using lexicographic comparison (the semantics of
/// the benchmark's str_less). Returns the root pointer.
uint64_t encodeTree(sim::MachineState &State, const std::vector<Key> &Keys,
                    unsigned &FirstCell, unsigned WordBits = 8);

/// Reference lexicographic order matching the str_less benchmark.
bool keyLess(const Key &A, const Key &B);

/// True when the encoded tree rooted at `Root` contains `K` (reference
/// implementation used to validate the `contains` benchmark).
bool treeContains(const sim::MachineState &State, uint64_t Root,
                  const Key &K, unsigned WordBits = 8);

} // namespace spire::benchmarks

#endif // SPIRE_BENCHMARKS_WORKLOADS_H
