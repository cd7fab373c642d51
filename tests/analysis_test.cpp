//===----------------------------------------------------------------------===//
// Tests for the pipeline-wide static verifier (src/analysis): IR
// invariant checking, circuit/netlist well-formedness, and the GF(2)
// affine-parity ancilla-cleanness analysis. Includes the mutation
// self-test: each injected bug class must be caught by exactly the
// intended checker — "ir", "circuit", or "parity" — and by no other.
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "benchmarks/Harness.h"
#include "circuit/Netlist.h"
#include "decompose/Decompose.h"
#include "driver/Pipeline.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

using namespace spire;
using namespace spire::analysis;
using namespace spire::circuit;
using namespace spire::ir;

namespace {

/// Expects the report to contain at least one violation, all of them
/// from `Checker` (the exactly-one-checker property the mutation tests
/// pin), with `Needle` somewhere in a message.
void expectOnly(const VerifyReport &R, const char *Checker,
                const std::string &Needle) {
  ASSERT_FALSE(R.ok()) << "expected a violation mentioning '" << Needle
                       << "'";
  for (const Violation &V : R.Violations)
    EXPECT_STREQ(V.Checker, Checker) << V.str();
  EXPECT_NE(R.str().find(Needle), std::string::npos) << R.str();
}

struct IrFixture : ::testing::Test {
  IrFixture() {
    Types = std::make_shared<TypeContext>();
    UInt = Types->uintType();
    Bool = Types->boolType();
  }

  CoreProgram makeProgram(CoreStmtList Body,
                          std::vector<std::pair<Symbol, const Type *>>
                              Inputs,
                          Symbol Output = Symbol()) {
    CoreProgram P;
    P.Types = Types;
    P.Inputs = std::move(Inputs);
    P.Body = std::move(Body);
    P.OutputVar = Output.empty()
                      ? (P.Inputs.empty() ? Symbol() : P.Inputs.front().first)
                      : Output;
    P.OutputTy = UInt;
    return P;
  }

  static CoreExpr constant(uint64_t V, const Type *Ty) {
    return CoreExpr::atom(Atom::constant(V, Ty));
  }
  static CoreExpr var(Symbol Name, const Type *Ty) {
    return CoreExpr::atom(Atom::var(Name, Ty));
  }

  std::shared_ptr<TypeContext> Types;
  const Type *UInt, *Bool;
};

} // namespace

//===----------------------------------------------------------------------===//
// IR verification
//===----------------------------------------------------------------------===//

TEST_F(IrFixture, CleanProgramVerifies) {
  CoreStmtList Body;
  Body.push_back(CoreStmt::assign("t", UInt, var("a", UInt)));
  Body.push_back(CoreStmt::assign("out", UInt, var("t", UInt)));
  Body.push_back(CoreStmt::unassign("t", UInt, var("a", UInt)));
  CoreProgram P = makeProgram(std::move(Body), {{"a", UInt}}, "out");
  EXPECT_TRUE(verifyProgram(P).ok()) << verifyProgram(P).str();
}

TEST_F(IrFixture, ReadBeforeDefinitionIsCaught) {
  CoreStmtList Body;
  Body.push_back(CoreStmt::assign("out", UInt, var("ghost", UInt)));
  CoreProgram P = makeProgram(std::move(Body), {{"a", UInt}}, "out");
  expectOnly(verifyProgram(P), "ir", "read before definition");
}

TEST_F(IrFixture, SelfReferentialDefinitionIsCaught) {
  // x <- e with x free in e has no reversible gate realization: the
  // emitter would place x as both target and control.
  CoreStmtList Body;
  Body.push_back(CoreStmt::assign("a", UInt, var("a", UInt)));
  CoreProgram P = makeProgram(std::move(Body), {{"a", UInt}});
  expectOnly(verifyProgram(P), "ir", "appears free in its own");
}

TEST_F(IrFixture, UnAssignOfDeadVariableIsCaught) {
  CoreStmtList Body;
  Body.push_back(CoreStmt::unassign("t", UInt, constant(1, UInt)));
  CoreProgram P = makeProgram(std::move(Body), {{"a", UInt}});
  expectOnly(verifyProgram(P), "ir", "un-definition of dead variable");
}

TEST_F(IrFixture, IfConditionModifiedInBodyIsCaught) {
  CoreStmtList IfBody;
  IfBody.push_back(CoreStmt::assign("c", Bool, constant(1, Bool)));
  CoreStmtList Body;
  Body.push_back(CoreStmt::ifStmt("c", std::move(IfBody)));
  CoreProgram P = makeProgram(std::move(Body), {{"c", Bool}});
  expectOnly(verifyProgram(P), "ir", "enclosing if-condition");
}

TEST_F(IrFixture, RedefinitionWidthChangeIsCaught) {
  // Re-definition XORs into the existing register; a different width
  // has no consistent embedding.
  CoreStmtList Body;
  Body.push_back(CoreStmt::assign("t", Bool, constant(1, Bool)));
  Body.push_back(CoreStmt::assign("t", UInt, constant(1, UInt)));
  CoreProgram P = makeProgram(std::move(Body), {{"a", UInt}});
  expectOnly(verifyProgram(P), "ir", "changes its register width");
}

TEST_F(IrFixture, NonBooleanIfConditionIsCaught) {
  CoreStmtList IfBody;
  IfBody.push_back(CoreStmt::skip());
  CoreStmtList Body;
  Body.push_back(CoreStmt::ifStmt("a", std::move(IfBody)));
  CoreProgram P = makeProgram(std::move(Body), {{"a", UInt}});
  expectOnly(verifyProgram(P), "ir", "not a single bit");
}

TEST_F(IrFixture, OutputNotLiveIsCaught) {
  CoreStmtList Body;
  Body.push_back(CoreStmt::skip());
  CoreProgram P = makeProgram(std::move(Body), {{"a", UInt}}, "out");
  expectOnly(verifyProgram(P), "ir", "not live at program end");
}

TEST_F(IrFixture, AsymmetricWithBlockIsCaught) {
  // The do-body consumes the with-temporary without re-creating it, so
  // the with-block's reverse leg un-defines a dead variable.
  CoreStmtList WithBody;
  WithBody.push_back(CoreStmt::assign("t", UInt, constant(1, UInt)));
  CoreStmtList DoBody;
  DoBody.push_back(CoreStmt::unassign("t", UInt, constant(1, UInt)));
  CoreStmtList Body;
  Body.push_back(CoreStmt::with(std::move(WithBody), std::move(DoBody)));
  CoreProgram P = makeProgram(std::move(Body), {{"a", UInt}});
  expectOnly(verifyProgram(P), "ir", "un-definition of dead variable");
}

TEST_F(IrFixture, SwapOfDifferentWidthsIsCaught) {
  CoreStmtList Body;
  Body.push_back(CoreStmt::assign("b", Bool, constant(1, Bool)));
  Body.push_back(CoreStmt::swap("a", UInt, "b", Bool));
  Body.push_back(CoreStmt::unassign("b", Bool, constant(1, Bool)));
  CoreProgram P = makeProgram(std::move(Body), {{"a", UInt}});
  expectOnly(verifyProgram(P), "ir", "different widths");
}

TEST_F(IrFixture, WithNestingAtDepth100kVerifiesInConstantStack) {
  // The verifier shares the repo's explicit-worklist discipline: 100k
  // levels of with-nesting must verify without C++ recursion.
  constexpr unsigned Depth = 100000;
  CoreStmtList Inner;
  Inner.push_back(CoreStmt::assign("out", UInt, constant(1, UInt)));
  for (unsigned I = 0; I != Depth; ++I) {
    CoreStmtList WithBody;
    WithBody.push_back(CoreStmt::assign(Symbol("t" + std::to_string(I)),
                                        UInt, constant(1, UInt)));
    CoreStmtList DoBody = std::move(Inner);
    Inner = CoreStmtList();
    Inner.push_back(CoreStmt::with(std::move(WithBody), std::move(DoBody)));
  }
  CoreProgram P = makeProgram(std::move(Inner), {{"a", UInt}}, "out");
  VerifyReport R = verifyProgram(P);
  EXPECT_TRUE(R.ok()) << R.str();
}

//===----------------------------------------------------------------------===//
// Circuit verification
//===----------------------------------------------------------------------===//

TEST(CircuitVerify, WellFormedCircuitPasses) {
  Circuit C;
  C.NumQubits = 3;
  C.addX(2, {0, 1});
  C.add(Gate(GateKind::H, 0, {}));
  C.add(Gate(GateKind::T, 1, {}));
  VerifyReport R = verifyCircuit(C);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(CircuitVerify, TargetRepeatingControlIsCaught) {
  Circuit C;
  C.NumQubits = 3;
  C.addX(2, {0, 1});
  // Mutate the public field directly: Gate's constructor would assert.
  C.Gates[0].Target = 1;
  expectOnly(verifyCircuit(C), "circuit", "repeats a control");
}

TEST(CircuitVerify, OutOfRangeOperandIsCaught) {
  Circuit C;
  C.NumQubits = 2;
  C.addX(1, {0});
  C.Gates[0].Target = 7;
  expectOnly(verifyCircuit(C), "circuit", "out of range");
}

TEST(CircuitVerify, UnsortedControlListIsCaught) {
  Circuit C;
  C.NumQubits = 4;
  C.addX(3, {0, 1});
  C.Gates[0].Controls[0] = 2; // {2, 1}: breaks the sorted invariant.
  expectOnly(verifyCircuit(C), "circuit", "not sorted");
}

TEST(CircuitVerify, DuplicateControlIsCaught) {
  Circuit C;
  C.NumQubits = 4;
  C.addX(3, {0, 1});
  C.Gates[0].Controls[0] = 1;
  expectOnly(verifyCircuit(C), "circuit", "duplicate control");
}

TEST(CircuitVerify, NetlistLegAcceptsLiveNetlist) {
  Circuit C;
  C.NumQubits = 3;
  C.addX(1, {0});
  C.addX(2, {1});
  Netlist N(C);
  EXPECT_TRUE(verifyNetlist(N).ok());
}

//===----------------------------------------------------------------------===//
// Affine-parity ancilla-cleanness analysis
//===----------------------------------------------------------------------===//

namespace {

/// Wire 0: input; wire 1: ancilla (must return clean); wire 2: output
/// (starts |0>, allowed to exit dirty).
CleanSpec inputAncillaOutputSpec() {
  CleanSpec Spec;
  Spec.NumQubits = 3;
  Spec.StartsZero = {false, true, true};
  Spec.RequireClean = {false, true, false};
  return Spec;
}

} // namespace

TEST(ParityAnalysis, ComputeUncomputeProvesAncillaClean) {
  Circuit C;
  C.NumQubits = 3;
  C.addX(1, {0}); // a ^= x   (compute)
  C.addX(2, {1}); // y ^= a
  C.addX(1, {0}); // a ^= x   (uncompute)
  ParityResult R = analyzeParity(C, inputAncillaOutputSpec());
  EXPECT_TRUE(R.Report.ok()) << R.Report.str();
  EXPECT_TRUE(R.fullyAffine());
  EXPECT_EQ(R.WireExit[1], Cleanness::Clean);
  EXPECT_EQ(R.WireParity[1], "0");
  EXPECT_EQ(R.WireParity[2], "q0"); // the output carries the input parity
  EXPECT_EQ(R.WireParity[0], "q0"); // the input is preserved
}

TEST(ParityAnalysis, DroppedUncomputeIsCaughtByParityOnly) {
  // The PR's flagship mutation: delete the final uncompute CNOT. The
  // circuit is still structurally perfect — only the parity checker can
  // see the ancilla leak, and it must prove it for ALL inputs.
  Circuit C;
  C.NumQubits = 3;
  C.addX(1, {0});
  C.addX(2, {1});
  ParityResult R = analyzeParity(C, inputAncillaOutputSpec());
  expectOnly(R.Report, "parity", "exits dirty with parity q0");
  EXPECT_EQ(R.WireExit[1], Cleanness::Dirty);
  // The other two checkers see nothing wrong — exactly-one-checker.
  EXPECT_TRUE(verifyCircuit(C).ok());
}

TEST(ParityAnalysis, UncomputedConstantFlipIsClean) {
  CleanSpec Spec = CleanSpec::allUnknown(2);
  Spec.StartsZero = {true, true};
  Spec.RequireClean = {true, true};
  Circuit C;
  C.NumQubits = 2;
  C.addX(0, {}); // flip to |1>
  C.addX(0, {}); // and back
  C.addX(1, {}); // left at |1>: dirty on every input
  ParityResult R = analyzeParity(C, Spec);
  EXPECT_EQ(R.WireExit[0], Cleanness::Clean);
  EXPECT_EQ(R.WireExit[1], Cleanness::Dirty);
  EXPECT_EQ(R.WireParity[1], "1");
  expectOnly(R.Report, "parity", "wire 1");
}

TEST(ParityAnalysis, KnownOneControlIsElidedFromTheTransfer) {
  // X prepares wire 1 to a known |1>; the CCX on {0,1}->2 is then
  // effectively a CNOT from wire 0 — still affine, still exact.
  CleanSpec Spec;
  Spec.NumQubits = 3;
  Spec.StartsZero = {false, true, true};
  Spec.RequireClean = {false, false, false};
  Circuit C;
  C.NumQubits = 3;
  C.addX(1, {});     // wire 1 := 1
  C.addX(2, {0, 1}); // effectively CNOT(0 -> 2)
  ParityResult R = analyzeParity(C, Spec);
  EXPECT_TRUE(R.fullyAffine());
  EXPECT_EQ(R.WireParity[2], "q0");
}

TEST(ParityAnalysis, ZeroControlledGateIsStaticallyDead) {
  CleanSpec Spec;
  Spec.NumQubits = 3;
  Spec.StartsZero = {false, true, true};
  Spec.RequireClean = {false, true, true};
  Circuit C;
  C.NumQubits = 3;
  C.addX(2, {1}); // wire 1 is provably |0>: the gate never fires
  ParityResult R = analyzeParity(C, Spec);
  // Dead gates are lint information, never violations (ZeroBit-controlled
  // alloc writes are intentionally dead).
  EXPECT_TRUE(R.Report.ok()) << R.Report.str();
  ASSERT_EQ(R.DeadGates.size(), 1u);
  EXPECT_EQ(R.DeadGates[0], 0u);
  EXPECT_EQ(R.WireExit[2], Cleanness::Clean);
}

TEST(ParityAnalysis, HadamardLeavesTheFragmentSoundly) {
  // H breaks the affine model: the target must become Unknown (never
  // Clean — the sound direction), and no violation may be claimed.
  CleanSpec Spec;
  Spec.NumQubits = 2;
  Spec.StartsZero = {true, true};
  Spec.RequireClean = {true, true};
  Circuit C;
  C.NumQubits = 2;
  C.add(Gate(GateKind::H, 0, {}));
  ParityResult R = analyzeParity(C, Spec);
  EXPECT_TRUE(R.Report.ok()) << R.Report.str();
  EXPECT_EQ(R.WireExit[0], Cleanness::Unknown);
  EXPECT_EQ(R.WireParity[0], "?");
  EXPECT_EQ(R.NonAffineGates, 1u);
  EXPECT_EQ(R.WireExit[1], Cleanness::Clean);
}

TEST(ParityAnalysis, TrueToffoliIsTopButTaintsOnlyItsTarget) {
  CleanSpec Spec;
  Spec.NumQubits = 4;
  Spec.StartsZero = {false, false, true, true};
  Spec.RequireClean = {false, false, true, true};
  Circuit C;
  C.NumQubits = 4;
  C.addX(2, {0, 1}); // two statically-unresolved controls: an AND
  ParityResult R = analyzeParity(C, Spec);
  EXPECT_TRUE(R.Report.ok()) << R.Report.str();
  EXPECT_EQ(R.NonAffineGates, 1u);
  EXPECT_EQ(R.WireExit[2], Cleanness::Unknown);
  EXPECT_EQ(R.WireExit[3], Cleanness::Clean); // untouched ancilla
}

TEST(ParityAnalysis, PhaseGatesAreDiagonalNoOps) {
  CleanSpec Spec;
  Spec.NumQubits = 2;
  Spec.StartsZero = {false, true};
  Spec.RequireClean = {false, true};
  Circuit C;
  C.NumQubits = 2;
  C.add(Gate(GateKind::T, 0, {}));
  C.add(Gate(GateKind::Z, 0, {}));
  C.addX(1, {0});
  C.add(Gate(GateKind::S, 1, {}));
  C.addX(1, {0});
  ParityResult R = analyzeParity(C, Spec);
  EXPECT_TRUE(R.Report.ok()) << R.Report.str();
  EXPECT_TRUE(R.fullyAffine());
  EXPECT_EQ(R.WireExit[1], Cleanness::Clean);
}

//===----------------------------------------------------------------------===//
// Pipeline integration: the paper benchmarks under full verification,
// and the exactly-one-checker mutation matrix on a compiled circuit.
//===----------------------------------------------------------------------===//

TEST(VerifyPipeline, AllPaperBenchmarksPassVerifyEach) {
  // The PR-6 acceptance bar: every stage artifact of all 11 paper
  // benchmarks upholds every invariant — IR scoping after lower and
  // spire-opt, circuit/netlist well-formedness and ancilla cleanness
  // after circuit-compile — with zero violations.
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    driver::PipelineOptions Opts;
    Opts.BuildCircuit = true;
    Opts.AnalyzeCost = false;
    Opts.VerifyEach = true;
    driver::CompilationResult R = benchmarks::runPipeline(B, 2, Opts);
    EXPECT_TRUE(R.succeeded())
        << B.Name << " failed at "
        << (R.Failed ? driver::stageName(*R.Failed) : "?") << ":\n"
        << R.Diags.str();
  }
}

TEST(VerifyPipeline, BenchmarkAncillaObligationsAreProvedOrUnknown) {
  // On every benchmark's compiled circuit, each ancilla obligation is
  // either proved clean or soundly Unknown (past the affine fragment) —
  // never Dirty. Fully affine circuits must prove every obligation.
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    driver::PipelineOptions Opts;
    Opts.BuildCircuit = true;
    Opts.AnalyzeCost = false;
    driver::CompilationResult R = benchmarks::runPipelineOrDie(B, 2, Opts);
    const Circuit &C = R.Compiled->Circ;
    CleanSpec Spec = CleanSpec::forLayout(R.Compiled->Layout, C.NumQubits);
    ParityResult PR = analyzeParity(C, Spec);
    EXPECT_TRUE(PR.Report.ok()) << B.Name << ":\n" << PR.Report.str();
    ObligationSummary O = summarizeObligations(Spec, PR);
    if (PR.fullyAffine()) {
      EXPECT_EQ(O.ProvedClean, O.Obligated) << B.Name;
    }
  }
}

TEST(VerifyPipeline, ProvedCleanMetricCountsOnlyCleanWires) {
  // Fig. 1 `length` leaves most ancilla obligations Unknown (past the
  // affine fragment). The --verify-each metric must count the wires
  // proved Clean, not every obligation without a Dirty violation.
  driver::PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.AnalyzeCost = false;
  Opts.VerifyEach = true;
  obs::Registry &Reg = obs::Registry::global();
  int64_t ObligatedBefore = Reg.counter("analysis.parity.obligations").value();
  int64_t ProvedBefore = Reg.counter("analysis.parity.proved_clean").value();
  driver::CompilationResult R =
      benchmarks::runPipelineOrDie(benchmarks::lengthBenchmark(), 3, Opts);

  const Circuit &C = R.Compiled->Circ;
  CleanSpec Spec = CleanSpec::forLayout(R.Compiled->Layout, C.NumQubits);
  ParityResult PR = analyzeParity(C, Spec);
  int64_t Obligated = 0, Clean = 0, Unknown = 0;
  for (unsigned Q = 0; Q != C.NumQubits; ++Q) {
    if (!Spec.RequireClean[Q])
      continue;
    ++Obligated;
    Clean += PR.WireExit[Q] == Cleanness::Clean;
    Unknown += PR.WireExit[Q] == Cleanness::Unknown;
  }
  ASSERT_GT(Unknown, 0) << "the program must leave obligations Unknown";
  EXPECT_EQ(Reg.counter("analysis.parity.obligations").value() -
                ObligatedBefore,
            Obligated);
  EXPECT_EQ(Reg.counter("analysis.parity.proved_clean").value() -
                ProvedBefore,
            Clean);
}

TEST(VerifyPipeline, MutationMatrixEachBugCaughtByExactlyOneChecker) {
  // Compile one real benchmark, then inject one bug per checker and
  // assert the blame lands exactly where it should.
  const benchmarks::BenchmarkProgram &B = benchmarks::lengthSimplified();
  driver::PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.AnalyzeCost = false;
  driver::CompilationResult R = benchmarks::runPipelineOrDie(B, 2, Opts);

  // Baseline: the artifacts are clean.
  ASSERT_TRUE(verifyProgram(*R.Optimized, Opts.Target).ok());
  ASSERT_TRUE(verifyCircuit(R.Compiled->Circ).ok());

  // "ir": make a variable appear free in its own re-definition — the
  // one shape of XOR-assignment that has no reversible realization.
  {
    CoreProgram Mutant = R.Optimized->clone();
    ASSERT_FALSE(Mutant.Inputs.empty());
    auto [Victim, VictimTy] = Mutant.Inputs.front();
    Mutant.Body.insert(
        Mutant.Body.begin(),
        CoreStmt::assign(Victim, VictimTy,
                         CoreExpr::atom(Atom::var(Victim, VictimTy))));
    VerifyReport V = verifyProgram(Mutant, Opts.Target);
    ASSERT_FALSE(V.ok());
    EXPECT_TRUE(V.has("ir"));
    EXPECT_FALSE(V.has("circuit"));
    EXPECT_FALSE(V.has("parity"));
  }

  // "circuit": make one gate target collide with its control.
  {
    Circuit Mutant = R.Compiled->Circ;
    for (Gate &G : Mutant.Gates)
      if (!G.Controls.empty()) {
        G.Target = G.Controls[0];
        break;
      }
    VerifyReport V = verifyCircuit(Mutant);
    ASSERT_FALSE(V.ok());
    EXPECT_TRUE(V.has("circuit"));
    EXPECT_FALSE(V.has("ir"));
    EXPECT_FALSE(V.has("parity"));
    // The parity checker is not fooled into blaming itself: structural
    // breakage is pre-filtered at the pipeline boundary.
  }

  // "parity": leak an ancilla by appending one X onto a wire the
  // baseline analysis proves clean — structurally flawless, but now
  // dirty (|1>) on EVERY input.
  {
    Circuit Mutant = R.Compiled->Circ;
    CleanSpec Spec =
        CleanSpec::forLayout(R.Compiled->Layout, Mutant.NumQubits);
    ParityResult Baseline = analyzeParity(Mutant, Spec);
    ASSERT_TRUE(Baseline.Report.ok()) << Baseline.Report.str();
    Qubit Ancilla = Mutant.NumQubits;
    for (Qubit Q = 0; Q != Mutant.NumQubits; ++Q)
      if (Spec.RequireClean[Q] &&
          Baseline.WireExit[Q] == Cleanness::Clean) {
        Ancilla = Q;
        break;
      }
    ASSERT_NE(Ancilla, Mutant.NumQubits) << "no provably-clean ancilla";
    Mutant.addX(Ancilla, {});
    EXPECT_TRUE(verifyCircuit(Mutant).ok()) << "mutation must stay "
                                               "structurally well-formed";
    ParityResult PR = analyzeParity(Mutant, Spec);
    expectOnly(PR.Report, "parity", "exits dirty");
  }
}
