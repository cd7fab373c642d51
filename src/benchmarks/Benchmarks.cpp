#include "benchmarks/Benchmarks.h"

#include "benchmarks/Harness.h"
#include "driver/Pipeline.h"

#include <utility>

namespace spire::benchmarks {

namespace {

//===----------------------------------------------------------------------===//
// List benchmarks
//===----------------------------------------------------------------------===//

/// Fig. 1 of the paper, verbatim.
const char *LengthSource = R"(
type list = (uint, ptr<list>);
fun length[n](xs: ptr<list>, acc: uint) {
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- acc;
  } else with {
    let temp <- default<list>;
    *xs <-> temp;
    let next <- temp.2;
    let r <- acc + 1;
  } do {
    let out <- length[n-1](next, r);
  }
  return out;
}
)";

/// Section 8's simplified variant: same control structure, but the memory
/// dereference and the addition (Fig. 1 lines 9 and 11) are omitted.
const char *LengthSimplifiedSource = R"(
type list = (uint, ptr<list>);
fun length_simplified[n](xs: ptr<list>, acc: uint) {
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- acc;
  } else with {
    let next <- default<ptr<list>>;
    let r <- default<uint>;
  } do {
    let out <- length_simplified[n-1](next, r);
  }
  return out;
}
)";

const char *SumSource = R"(
type list = (uint, ptr<list>);
fun sum[n](xs: ptr<list>, acc: uint) {
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- acc;
  } else with {
    let temp <- default<list>;
    *xs <-> temp;
    let head <- temp.1;
    let next <- temp.2;
    let r <- acc + head;
  } do {
    let out <- sum[n-1](next, r);
  }
  return out;
}
)";

/// 1-based position of the first occurrence of v, or 0 when absent.
const char *FindPosSource = R"(
type list = (uint, ptr<list>);
fun find_pos[n](xs: ptr<list>, v: uint, idx: uint) {
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- 0;
  } else with {
    let temp <- default<list>;
    *xs <-> temp;
    let head <- temp.1;
    let next <- temp.2;
    let found <- head == v;
    let idx2 <- idx + 1;
  } do if found {
    let out <- idx2;
  } else {
    let out <- find_pos[n-1](next, v, idx2);
  }
  return out;
}
)";

/// Removes the first node whose value equals v, returning the new head.
/// The unlinked cell is left zeroed; the traversal temporaries (head,
/// next, matches, rest) are leaked rather than branch-locally uncomputed
/// (Tower's allocator would reclaim the cell; see Benchmarks.h).
const char *RemoveSource = R"(
type list = (uint, ptr<list>);
fun remove[n](xs: ptr<list>, v: uint) -> ptr<list> {
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- xs;
  } else {
    let temp <- default<list>;
    *xs <-> temp;
    let head <- temp.1;
    let next <- temp.2;
    let temp -> (head, next);
    let matches <- head == v;
    if matches {
      let out <- next;
    } else {
      let rest <- remove[n-1](next, v);
      let node <- (head, rest);
      *xs <-> node;
      let node -> default<list>;
      let out <- xs;
    }
  }
  return out;
}
)";

//===----------------------------------------------------------------------===//
// Queue benchmarks (a queue as a singly linked list)
//===----------------------------------------------------------------------===//

const char *PushBackSource = R"(
type list = (uint, ptr<list>);
fun push_back[n](xs: ptr<list>, v: uint) -> ptr<list> {
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let cell <- alloc<list>;
    let node <- (v, default<ptr<list>>);
    *cell <-> node;
    let node -> default<list>;
    let out <- cell;
  } else {
    let temp <- default<list>;
    *xs <-> temp;
    let head <- temp.1;
    let next <- temp.2;
    let temp -> (head, next);
    let rest <- push_back[n-1](next, v);
    let node2 <- (head, rest);
    *xs <-> node2;
    let node2 -> default<list>;
    let out <- xs;
  }
  return out;
}
)";

/// O(1): detach the head node and return the rest of the queue.
const char *PopFrontSource = R"(
type list = (uint, ptr<list>);
fun pop_front(xs: ptr<list>) {
  let temp <- default<list>;
  *xs <-> temp;
  let head <- temp.1;
  let next <- temp.2;
  let temp -> (head, next);
  let out <- next;
  return out;
}
)";

//===----------------------------------------------------------------------===//
// String benchmarks (strings are linked lists of characters)
//===----------------------------------------------------------------------===//

const char *IsPrefixSource = R"(
type list = (uint, ptr<list>);
fun is_prefix[n](ps: ptr<list>, ss: ptr<list>) {
  with {
    let p_empty <- ps == null;
  } do if p_empty {
    let out <- true;
  } else with {
    let s_empty <- ss == null;
  } do if s_empty {
    let out <- false;
  } else with {
    let ptemp <- default<list>;
    *ps <-> ptemp;
    let ph <- ptemp.1;
    let pn <- ptemp.2;
    let stemp <- default<list>;
    *ss <-> stemp;
    let sh <- stemp.1;
    let sn <- stemp.2;
    let heads_eq <- ph == sh;
  } do if heads_eq {
    let out <- is_prefix[n-1](pn, sn);
  } else {
    let out <- false;
  }
  return out;
}
)";

/// Number of positions at which the two strings hold equal characters
/// (the recursion result `rest` is leaked at each level).
const char *NumMatchingSource = R"(
type list = (uint, ptr<list>);
fun num_matching[n](as: ptr<list>, bs: ptr<list>) -> uint {
  with {
    let a_empty <- as == null;
    let b_empty <- bs == null;
    let either <- a_empty || b_empty;
  } do if either {
    let out <- 0;
  } else with {
    let atemp <- default<list>;
    *as <-> atemp;
    let ah <- atemp.1;
    let an <- atemp.2;
    let btemp <- default<list>;
    *bs <-> btemp;
    let bh <- btemp.1;
    let bn <- btemp.2;
    let heads_eq <- ah == bh;
  } do {
    let rest <- num_matching[n-1](an, bn);
    if heads_eq {
      let out <- rest + 1;
    } else {
      let out <- rest;
    }
  }
  return out;
}
)";

const char *CompareSource = R"(
type list = (uint, ptr<list>);
fun compare[n](as: ptr<list>, bs: ptr<list>) {
  with {
    let a_empty <- as == null;
    let b_empty <- bs == null;
    let both_empty <- a_empty && b_empty;
    let either_empty <- a_empty || b_empty;
  } do if both_empty {
    let out <- true;
  } else if either_empty {
    let out <- false;
  } else with {
    let atemp <- default<list>;
    *as <-> atemp;
    let ah <- atemp.1;
    let an <- atemp.2;
    let btemp <- default<list>;
    *bs <-> btemp;
    let bh <- btemp.1;
    let bn <- btemp.2;
    let heads_eq <- ah == bh;
  } do if heads_eq {
    let out <- compare[n-1](an, bn);
  } else {
    let out <- false;
  }
  return out;
}
)";

//===----------------------------------------------------------------------===//
// Set benchmarks (binary radix tree keyed by strings)
//===----------------------------------------------------------------------===//

/// Shared preamble: the tree node type plus the string helpers the set
/// operations invoke at every level (the O(d) compare inside each level
/// is what drives the O(d^2) MCX / O(d^3) unoptimized T complexity).
#define SET_PREAMBLE                                                         \
  "type list = (uint, ptr<list>);\n"                                         \
  "type tnode = (ptr<list>, (ptr<tnode>, ptr<tnode>));\n"                    \
  "fun compare[n](as: ptr<list>, bs: ptr<list>) {\n"                         \
  "  with {\n"                                                               \
  "    let a_empty <- as == null;\n"                                         \
  "    let b_empty <- bs == null;\n"                                         \
  "    let both_empty <- a_empty && b_empty;\n"                              \
  "    let either_empty <- a_empty || b_empty;\n"                            \
  "  } do if both_empty {\n"                                                 \
  "    let out <- true;\n"                                                   \
  "  } else if either_empty {\n"                                             \
  "    let out <- false;\n"                                                  \
  "  } else with {\n"                                                        \
  "    let atemp <- default<list>;\n"                                        \
  "    *as <-> atemp;\n"                                                     \
  "    let ah <- atemp.1;\n"                                                 \
  "    let an <- atemp.2;\n"                                                 \
  "    let btemp <- default<list>;\n"                                        \
  "    *bs <-> btemp;\n"                                                     \
  "    let bh <- btemp.1;\n"                                                 \
  "    let bn <- btemp.2;\n"                                                 \
  "    let heads_eq <- ah == bh;\n"                                          \
  "  } do if heads_eq {\n"                                                   \
  "    let out <- compare[n-1](an, bn);\n"                                   \
  "  } else {\n"                                                             \
  "    let out <- false;\n"                                                  \
  "  }\n"                                                                    \
  "  return out;\n"                                                          \
  "}\n"                                                                      \
  "fun str_less[n](as: ptr<list>, bs: ptr<list>) {\n"                        \
  "  with {\n"                                                               \
  "    let a_empty <- as == null;\n"                                         \
  "    let b_empty <- bs == null;\n"                                         \
  "  } do if a_empty {\n"                                                    \
  "    let out <- not b_empty;\n"                                            \
  "  } else if b_empty {\n"                                                  \
  "    let out <- false;\n"                                                  \
  "  } else with {\n"                                                        \
  "    let atemp <- default<list>;\n"                                        \
  "    *as <-> atemp;\n"                                                     \
  "    let ah <- atemp.1;\n"                                                 \
  "    let an <- atemp.2;\n"                                                 \
  "    let btemp <- default<list>;\n"                                        \
  "    *bs <-> btemp;\n"                                                     \
  "    let bh <- btemp.1;\n"                                                 \
  "    let bn <- btemp.2;\n"                                                 \
  "    let h_less <- ah < bh;\n"                                             \
  "    let h_eq <- ah == bh;\n"                                              \
  "  } do if h_less {\n"                                                     \
  "    let out <- true;\n"                                                   \
  "  } else if h_eq {\n"                                                     \
  "    let out <- str_less[n-1](an, bn);\n"                                  \
  "  } else {\n"                                                             \
  "    let out <- false;\n"                                                  \
  "  }\n"                                                                    \
  "  return out;\n"                                                          \
  "}\n"

const char *ContainsSource = SET_PREAMBLE R"(
fun contains[d](t: ptr<tnode>, key: ptr<list>) -> bool {
  with {
    let t_empty <- t == null;
  } do if t_empty {
    let out <- false;
  } else with {
    let node <- default<tnode>;
    *t <-> node;
    let nkey <- node.1;
    let kids <- node.2;
    let left <- kids.1;
    let right <- kids.2;
    let eq <- compare[d](nkey, key);
    let goleft <- str_less[d](key, nkey);
    let ne <- not eq;
    let goleft2 <- ne && goleft;
    let goright <- ne && not goleft;
    let child <- default<ptr<tnode>>;
    if goleft2 { let child <- left; }
    if goright { let child <- right; }
  } do {
    let sub <- contains[d-1](child, key);
    if eq { let out <- true; }
    if ne { let out <- sub; }
  }
  return out;
}
)";

const char *InsertSource = SET_PREAMBLE R"(
fun insert[d](t: ptr<tnode>, key: ptr<list>) -> ptr<tnode> {
  with {
    let t_empty <- t == null;
  } do if t_empty {
    let cell <- alloc<tnode>;
    let node <- (key, (default<ptr<tnode>>, default<ptr<tnode>>));
    *cell <-> node;
    let node -> default<tnode>;
    let out <- cell;
  } else {
    let node <- default<tnode>;
    *t <-> node;
    let nkey <- node.1;
    let kids <- node.2;
    let node -> (nkey, kids);
    let left <- kids.1;
    let right <- kids.2;
    let kids -> (left, right);
    let eq <- compare[d](nkey, key);
    let goleft <- str_less[d](key, nkey);
    let ne <- not eq;
    let goleft2 <- ne && goleft;
    let goright <- ne && not goleft;
    let child <- default<ptr<tnode>>;
    if goleft2 { let child <- left; }
    if goright { let child <- right; }
    let sub <- insert[d-1](child, key);
    let newleft <- default<ptr<tnode>>;
    let newright <- default<ptr<tnode>>;
    if goleft2 {
      let newleft <- sub;
      let newright <- right;
    }
    if goright {
      let newleft <- left;
      let newright <- sub;
    }
    if eq {
      let newleft <- left;
      let newright <- right;
    }
    let newnode <- (nkey, (newleft, newright));
    *t <-> newnode;
    let newnode -> default<tnode>;
    let out <- t;
  }
  return out;
}
)";

//===----------------------------------------------------------------------===//
// The Fig. 3 toy program
//===----------------------------------------------------------------------===//

const char *Figure3Source = R"(
fun fig3(x: bool, y: bool, z: bool) {
  let a <- false;
  let b <- false;
  if x {
    if y {
      with {
        let t <- z;
      } do {
        if z {
          let a <- not t;
          let b <- true;
        }
      }
    }
  }
  let r <- (a, b);
  return r;
}
)";

} // namespace

const std::vector<BenchmarkProgram> &allBenchmarks() {
  static const std::vector<BenchmarkProgram> Benchmarks = {
      {"length", "List", "length", LengthSource, true, "n"},
      {"sum", "List", "sum", SumSource, true, "n"},
      {"find_pos", "List", "find_pos", FindPosSource, true, "n"},
      {"remove", "List", "remove", RemoveSource, true, "n"},
      {"push_back", "Queue", "push_back", PushBackSource, true, "n"},
      {"pop_front", "Queue", "pop_front", PopFrontSource, false, "n"},
      {"is_prefix", "String", "is_prefix", IsPrefixSource, true, "n"},
      {"num_matching", "String", "num_matching", NumMatchingSource, true,
       "n"},
      {"compare", "String", "compare", CompareSource, true, "n"},
      {"insert", "Set", "insert", InsertSource, true, "d"},
      {"contains", "Set", "contains", ContainsSource, true, "d"},
  };
  return Benchmarks;
}

const BenchmarkProgram &lengthSimplified() {
  static const BenchmarkProgram B = {"length-simplified", "List",
                                     "length_simplified",
                                     LengthSimplifiedSource, true, "n"};
  return B;
}

const BenchmarkProgram &lengthBenchmark() { return allBenchmarks()[0]; }

const BenchmarkProgram &figure3Program() {
  static const BenchmarkProgram B = {"fig3", "Toy", "fig3", Figure3Source,
                                     false, "n"};
  return B;
}

ir::CoreProgram lowerBenchmark(const BenchmarkProgram &B, int64_t Size,
                               const lowering::LowerOptions &Opts) {
  // Route through the unified driver pipeline, stopping after lowering
  // (no Spire rewrites, no cost analysis).
  driver::PipelineOptions PipeOpts;
  PipeOpts.Target.HeapCells = Opts.HeapCells;
  PipeOpts.MaxInlineInstances = Opts.MaxInlineInstances;
  PipeOpts.MaxInlineDepth = Opts.MaxInlineDepth;
  PipeOpts.StopAfter = driver::Stage::Lower;
  driver::CompilationResult R =
      runPipelineOrDie(B, Size, std::move(PipeOpts));
  return std::move(*R.Core);
}

} // namespace spire::benchmarks
