//===- solver_tests.cpp - Tests for both solver backends ----------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "EnumerateSolver.h"
#include "TestUtil.h"

#include "ast/Printer.h"
#include "solver/BoundedSolver.h"
#include "solver/CachingSolver.h"
#include "solver/FormulaEval.h"
#include "solver/FormulaProgram.h"
#include "server/VerifyServer.h"
#include "solver/Z3Solver.h"
#include "support/PersistentCache.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#if RELAXC_HAVE_Z3
#include <z3++.h>
#endif

#include <chrono>
#include <iterator>
#include <limits>

using namespace relax;

//===----------------------------------------------------------------------===//
// Euclidean arithmetic
//===----------------------------------------------------------------------===//

TEST(Euclidean, DivModIdentityAndRange) {
  for (int64_t L = -20; L <= 20; ++L) {
    for (int64_t R = -5; R <= 5; ++R) {
      if (R == 0)
        continue;
      int64_t Q = euclideanDiv(L, R);
      int64_t M = euclideanMod(L, R);
      EXPECT_EQ(L, Q * R + M) << L << " / " << R;
      EXPECT_GE(M, 0) << L << " % " << R;
      EXPECT_LT(M, std::abs(R)) << L << " % " << R;
    }
  }
}

TEST(Euclidean, DivisionByZeroIsZeroInTheLogic) {
  EXPECT_EQ(euclideanDiv(5, 0), 0);
  EXPECT_EQ(euclideanMod(5, 0), 0);
}

TEST(Euclidean, Int64EdgesAreDefined) {
  // The wrapping evaluators can feed INT64 edge values into div/mod, and
  // the sanitizer CI job aborts on any signed overflow — these must all
  // be defined and keep 0 <= r < |R| where the quotient is representable.
  int64_t Min = std::numeric_limits<int64_t>::min();
  int64_t Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(euclideanDiv(Min, -1), Min) << "2^63 wraps, like wrapMul";
  EXPECT_EQ(euclideanMod(Min, -1), 0);
  EXPECT_EQ(euclideanDiv(Min, 3), -3074457345618258603LL);
  EXPECT_EQ(euclideanMod(Min, 3), 1);
  EXPECT_EQ(euclideanDiv(Min, -3), 3074457345618258603LL);
  EXPECT_EQ(euclideanMod(Min, -3), 1);
  EXPECT_EQ(euclideanDiv(Min, Min), 1);
  EXPECT_EQ(euclideanMod(Min, Min), 0);
  EXPECT_EQ(euclideanDiv(-5, Min), 1);
  EXPECT_EQ(euclideanMod(-5, Min), Max - 4);
  EXPECT_EQ(euclideanDiv(Max, Min), 0);
  EXPECT_EQ(euclideanMod(Max, Min), Max);
  for (int64_t L : {Min, Min + 1, int64_t(-7), int64_t(0), int64_t(7), Max}) {
    for (int64_t R :
         {Min, int64_t(-3), int64_t(-1), int64_t(1), int64_t(3), Max}) {
      int64_t Q = euclideanDiv(L, R);
      int64_t M = euclideanMod(L, R);
      EXPECT_EQ(wrapAdd(wrapMul(Q, R), M), L) << L << " / " << R;
      EXPECT_GE(M, 0) << L << " % " << R;
    }
  }
}

//===----------------------------------------------------------------------===//
// FormulaEval
//===----------------------------------------------------------------------===//

namespace {

class FormulaEvalTest : public ::testing::Test {
protected:
  AstContext Ctx;

  Model modelWith(int64_t X) {
    Model M;
    M.Ints[VarRef{Ctx.sym("x"), VarTag::Plain, VarKind::Int}] = X;
    return M;
  }
};

} // namespace

TEST_F(FormulaEvalTest, EvaluatesArithmeticAndComparison) {
  Model M = modelWith(3);
  const BoolExpr *F =
      Ctx.lt(Ctx.mul(Ctx.var("x"), Ctx.var("x")), Ctx.intLit(10));
  EXPECT_TRUE(evalFormula(F, M));
  EXPECT_FALSE(evalFormula(F, modelWith(4)));
}

TEST_F(FormulaEvalTest, UnmappedVariablesDefaultToZero) {
  Model M;
  EXPECT_TRUE(evalFormula(Ctx.eq(Ctx.var("ghost"), Ctx.intLit(0)), M));
}

TEST_F(FormulaEvalTest, ArrayReadAndStoreSemantics) {
  Model M;
  ArrayModelValue A;
  A.Length = 3;
  A.Elems = {10, 20, 30};
  M.Arrays[VarRef{Ctx.sym("A"), VarTag::Plain, VarKind::Array}] = A;
  const ArrayExpr *Ref = Ctx.arrayRef("A");
  EXPECT_EQ(evalExpr(Ctx.arrayRead(Ref, Ctx.intLit(1)), M), 20);
  EXPECT_EQ(evalExpr(Ctx.arrayLen(Ref), M), 3);
  // Out of range reads are 0 in the (total) logic semantics.
  EXPECT_EQ(evalExpr(Ctx.arrayRead(Ref, Ctx.intLit(7)), M), 0);
  const ArrayExpr *St = Ctx.arrayStore(Ref, Ctx.intLit(1), Ctx.intLit(99));
  EXPECT_EQ(evalExpr(Ctx.arrayRead(St, Ctx.intLit(1)), M), 99);
  EXPECT_EQ(evalExpr(Ctx.arrayRead(St, Ctx.intLit(0)), M), 10);
}

TEST_F(FormulaEvalTest, ArrayEqualityComparesLengthAndContents) {
  Model M;
  ArrayModelValue A{2, {1, 2}}, B{2, {1, 2}}, C{3, {1, 2, 0}};
  M.Arrays[VarRef{Ctx.sym("A"), VarTag::Plain, VarKind::Array}] = A;
  M.Arrays[VarRef{Ctx.sym("B"), VarTag::Plain, VarKind::Array}] = B;
  M.Arrays[VarRef{Ctx.sym("C"), VarTag::Plain, VarKind::Array}] = C;
  EXPECT_TRUE(
      evalFormula(Ctx.arrayEq(Ctx.arrayRef("A"), Ctx.arrayRef("B")), M));
  EXPECT_FALSE(
      evalFormula(Ctx.arrayEq(Ctx.arrayRef("A"), Ctx.arrayRef("C")), M));
}

TEST_F(FormulaEvalTest, ExistsFindsWitnessInBoundedDomain) {
  Model M = modelWith(3);
  Symbol Y = Ctx.sym("y");
  // exists y . y + y == x  (x = 3 -> no integer witness; x = 4 -> y = 2).
  const BoolExpr *F = Ctx.exists(
      Y, VarTag::Plain, VarKind::Int,
      Ctx.eq(Ctx.add(Ctx.var(Y), Ctx.var(Y)), Ctx.var("x")));
  EXPECT_FALSE(evalFormula(F, M));
  EXPECT_TRUE(evalFormula(F, modelWith(4)));
}

TEST_F(FormulaEvalTest, ExistsOverArrays) {
  Model M = modelWith(2);
  Symbol B = Ctx.sym("B");
  // exists array B . len(B) == x.
  const BoolExpr *F =
      Ctx.exists(B, VarTag::Plain, VarKind::Array,
                 Ctx.eq(Ctx.arrayLen(Ctx.arrayRef(B)), Ctx.var("x")));
  EXPECT_TRUE(evalFormula(F, M));
  EXPECT_FALSE(evalFormula(F, modelWith(50))) << "outside bounded domain";
}

//===----------------------------------------------------------------------===//
// Backends
//===----------------------------------------------------------------------===//

namespace {

enum class BackendKind { Z3, Bounded };

class SolverBackendTest : public ::testing::TestWithParam<BackendKind> {
protected:
  AstContext Ctx;

  void SetUp() override {
    if (GetParam() == BackendKind::Z3 && !relax::test::haveZ3())
      GTEST_SKIP() << "Z3 backend not built (RELAXC_ENABLE_Z3=OFF)";
  }

  std::unique_ptr<Solver> makeSolver() {
    if (GetParam() == BackendKind::Z3)
      return std::make_unique<Z3Solver>(Ctx.symbols());
    return std::make_unique<BoundedSolver>();
  }
};

} // namespace

TEST_P(SolverBackendTest, SatAndUnsat) {
  auto S = makeSolver();
  const BoolExpr *Sat = Ctx.lt(Ctx.var("x"), Ctx.intLit(3));
  const BoolExpr *Unsat = Ctx.andExpr(Ctx.lt(Ctx.var("x"), Ctx.intLit(0)),
                                      Ctx.gt(Ctx.var("x"), Ctx.intLit(0)));
  auto R1 = S->checkSat({Sat});
  ASSERT_TRUE(R1.ok()) << R1.message();
  EXPECT_EQ(*R1, SatResult::Sat);
  auto R2 = S->checkSat({Unsat});
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(*R2, SatResult::Unsat);
}

TEST_P(SolverBackendTest, ConjunctionOfFormulas) {
  auto S = makeSolver();
  auto R = S->checkSat({Ctx.gt(Ctx.var("x"), Ctx.intLit(1)),
                        Ctx.lt(Ctx.var("x"), Ctx.intLit(1))});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unsat);
}

TEST_P(SolverBackendTest, ModelSatisfiesFormula) {
  auto S = makeSolver();
  const BoolExpr *F = Ctx.andExpr(Ctx.gt(Ctx.var("x"), Ctx.intLit(2)),
                                  Ctx.lt(Ctx.var("x"), Ctx.intLit(5)));
  VarRefSet Vars;
  Vars.insert(VarRef{Ctx.sym("x"), VarTag::Plain, VarKind::Int});
  Model M;
  auto R = S->checkSatWithModel({F}, Vars, M);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(*R, SatResult::Sat);
  int64_t X = M.Ints.at(VarRef{Ctx.sym("x"), VarTag::Plain, VarKind::Int});
  EXPECT_GT(X, 2);
  EXPECT_LT(X, 5);
}

TEST_P(SolverBackendTest, ArrayModelExtraction) {
  auto S = makeSolver();
  const ArrayExpr *A = Ctx.arrayRef("A");
  const BoolExpr *F = Ctx.conj(
      {Ctx.eq(Ctx.arrayLen(A), Ctx.intLit(2)),
       Ctx.eq(Ctx.arrayRead(A, Ctx.intLit(0)), Ctx.intLit(1)),
       Ctx.eq(Ctx.arrayRead(A, Ctx.intLit(1)), Ctx.intLit(2))});
  VarRefSet Vars;
  Vars.insert(VarRef{Ctx.sym("A"), VarTag::Plain, VarKind::Array});
  Model M;
  auto R = S->checkSatWithModel({F}, Vars, M);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(*R, SatResult::Sat);
  const ArrayModelValue &AV =
      M.Arrays.at(VarRef{Ctx.sym("A"), VarTag::Plain, VarKind::Array});
  ASSERT_EQ(AV.Length, 2);
  EXPECT_EQ(AV.Elems[0], 1);
  EXPECT_EQ(AV.Elems[1], 2);
}

TEST_P(SolverBackendTest, RelationalTagsAreDistinctVariables) {
  auto S = makeSolver();
  const BoolExpr *F = Ctx.andExpr(Ctx.eq(Ctx.varO("x"), Ctx.intLit(1)),
                                  Ctx.eq(Ctx.varR("x"), Ctx.intLit(2)));
  auto R = S->checkSat({F});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Sat) << "x<o> and x<r> must not alias";
}

TEST_P(SolverBackendTest, ValidityHelper) {
  auto S = makeSolver();
  const BoolExpr *Valid = Ctx.implies(Ctx.gt(Ctx.var("x"), Ctx.intLit(2)),
                                      Ctx.gt(Ctx.var("x"), Ctx.intLit(1)));
  auto R1 = S->isValid(Ctx, Valid);
  ASSERT_TRUE(R1.ok()) << R1.message();
  EXPECT_TRUE(*R1);
  const BoolExpr *Invalid = Ctx.implies(Ctx.gt(Ctx.var("x"), Ctx.intLit(1)),
                                        Ctx.gt(Ctx.var("x"), Ctx.intLit(2)));
  auto R2 = S->isValid(Ctx, Invalid);
  ASSERT_TRUE(R2.ok());
  EXPECT_FALSE(*R2);
}

TEST_P(SolverBackendTest, EntailmentHelper) {
  auto S = makeSolver();
  auto R = S->entails(Ctx, Ctx.eq(Ctx.var("x"), Ctx.intLit(4)),
                      Ctx.ge(Ctx.var("x"), Ctx.intLit(0)));
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(*R);
}

TEST_P(SolverBackendTest, ExistentialHypothesis) {
  auto S = makeSolver();
  Symbol Y = Ctx.sym("y");
  // (exists y . x == y + y) => x == 2 is not valid (x could be 4 or odd...).
  // (exists y . x == y + y) && x == 3 is unsat over the integers.
  const BoolExpr *EvenX = Ctx.exists(
      Y, VarTag::Plain, VarKind::Int,
      Ctx.eq(Ctx.var("x"), Ctx.add(Ctx.var(Y), Ctx.var(Y))));
  auto R = S->checkSat({EvenX, Ctx.eq(Ctx.var("x"), Ctx.intLit(3))});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unsat);
}

TEST_P(SolverBackendTest, ReusedModelIsClearedBeforeWitnessWrite) {
  // Regression: checkSatWithModel on a reused Model must not leak stale
  // entries into the reported witness — neither on Sat (entries for
  // variables outside the query) nor on Unsat (the whole previous
  // witness).
  auto S = makeSolver();
  VarRef Stale{Ctx.sym("stale"), VarTag::Plain, VarKind::Int};
  VarRef StaleArr{Ctx.sym("staleArr"), VarTag::Plain, VarKind::Array};
  VarRef X{Ctx.sym("x"), VarTag::Plain, VarKind::Int};

  Model M;
  M.Ints[Stale] = 99;
  M.Arrays[StaleArr] = ArrayModelValue{1, {7}};
  auto Sat = S->checkSatWithModel({Ctx.eq(Ctx.var("x"), Ctx.intLit(2))},
                                  VarRefSet{X}, M);
  ASSERT_TRUE(Sat.ok()) << Sat.message();
  ASSERT_EQ(*Sat, SatResult::Sat);
  EXPECT_EQ(M.Ints.count(Stale), 0u) << "stale scalar survived into witness";
  EXPECT_EQ(M.Arrays.count(StaleArr), 0u) << "stale array survived";
  EXPECT_EQ(M.Ints.at(X), 2);

  Model M2;
  M2.Ints[Stale] = 99;
  auto Unsat = S->checkSatWithModel(
      {Ctx.andExpr(Ctx.lt(Ctx.var("x"), Ctx.intLit(0)),
                   Ctx.gt(Ctx.var("x"), Ctx.intLit(0)))},
      VarRefSet{X}, M2);
  ASSERT_TRUE(Unsat.ok());
  ASSERT_EQ(*Unsat, SatResult::Unsat);
  EXPECT_TRUE(M2.empty()) << "an unsat query must leave the model empty, "
                             "not holding a previous witness";
}

INSTANTIATE_TEST_SUITE_P(Backends, SolverBackendTest,
                         ::testing::Values(BackendKind::Z3,
                                           BackendKind::Bounded),
                         [](const auto &Info) {
                           return Info.param == BackendKind::Z3 ? "Z3"
                                                                : "Bounded";
                         });

//===----------------------------------------------------------------------===//
// Solver name registry (the driver validates --solver= against it)
//===----------------------------------------------------------------------===//

TEST(SolverNames, RegistryAcceptsBackendsAndRejectsTypos) {
  EXPECT_TRUE(isKnownSolverName("z3"));
  EXPECT_TRUE(isKnownSolverName("bounded"));
  EXPECT_FALSE(isKnownSolverName("bouned"));
  EXPECT_FALSE(isKnownSolverName("Z3"));
  EXPECT_FALSE(isKnownSolverName(""));
  EXPECT_EQ(knownSolverNamesForDiagnostics(), "z3, bounded");
}

//===----------------------------------------------------------------------===//
// Z3-specific
//===----------------------------------------------------------------------===//

TEST(Z3Solver, EuclideanDivisionAgreesWithEvaluator) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver S(Ctx.symbols());
  // For a sample of constants, z3's div must equal euclideanDiv.
  for (int64_t L : {-7, -3, 0, 5, 9}) {
    for (int64_t R : {-4, -2, 3, 5}) {
      const BoolExpr *F =
          Ctx.eq(Ctx.binary(BinaryOp::Div, Ctx.intLit(L), Ctx.intLit(R)),
                 Ctx.intLit(euclideanDiv(L, R)));
      auto Res = S.isValid(Ctx, F);
      ASSERT_TRUE(Res.ok()) << Res.message();
      EXPECT_TRUE(*Res) << L << " div " << R;
      const BoolExpr *G =
          Ctx.eq(Ctx.binary(BinaryOp::Mod, Ctx.intLit(L), Ctx.intLit(R)),
                 Ctx.intLit(euclideanMod(L, R)));
      auto ResM = S.isValid(Ctx, G);
      ASSERT_TRUE(ResM.ok());
      EXPECT_TRUE(*ResM) << L << " mod " << R;
    }
  }
}

TEST(Z3Solver, ArrayEqualityIncludesLength) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver S(Ctx.symbols());
  // A == B && len(A) != len(B) must be unsat.
  const BoolExpr *F = Ctx.andExpr(
      Ctx.arrayEq(Ctx.arrayRef("A"), Ctx.arrayRef("B")),
      Ctx.ne(Ctx.arrayLen(Ctx.arrayRef("A")),
             Ctx.arrayLen(Ctx.arrayRef("B"))));
  auto R = S.checkSat({F});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unsat);
}

TEST(Z3Solver, StorePreservesLength) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver S(Ctx.symbols());
  const ArrayExpr *A = Ctx.arrayRef("A");
  const ArrayExpr *St = Ctx.arrayStore(A, Ctx.var("i"), Ctx.var("v"));
  const BoolExpr *F = Ctx.eq(Ctx.arrayLen(St), Ctx.arrayLen(A));
  auto R = S.isValid(Ctx, F);
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(*R);
}

TEST(Z3Solver, NegativeLengthsAreImpossible) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver S(Ctx.symbols());
  const BoolExpr *F =
      Ctx.lt(Ctx.arrayLen(Ctx.arrayRef("A")), Ctx.intLit(0));
  auto R = S.checkSat({F});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unsat);
}

TEST(Z3Solver, ExistsOverArrayBindsLength) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver S(Ctx.symbols());
  Symbol B = Ctx.sym("B");
  // exists array B . len(B) == 3 && B[0] == 7 — satisfiable.
  const BoolExpr *F = Ctx.exists(
      B, VarTag::Plain, VarKind::Array,
      Ctx.andExpr(Ctx.eq(Ctx.arrayLen(Ctx.arrayRef(B)), Ctx.intLit(3)),
                  Ctx.eq(Ctx.arrayRead(Ctx.arrayRef(B), Ctx.intLit(0)),
                         Ctx.intLit(7))));
  auto R = S.checkSat({F});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Sat);
}

TEST(Z3Solver, SmtLibExportRoundTripsThroughZ3Syntax) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver S(Ctx.symbols());
  const BoolExpr *F = Ctx.andExpr(
      Ctx.lt(Ctx.varO("x"), Ctx.varR("x")),
      Ctx.eq(Ctx.arrayRead(Ctx.arrayRef("A"), Ctx.intLit(0)), Ctx.intLit(7)));
  Result<std::string> Script = S.toSmtLib({F});
  ASSERT_TRUE(Script.ok()) << Script.message();
  EXPECT_NE(Script->find("(check-sat)"), std::string::npos);
  EXPECT_NE(Script->find("x!o"), std::string::npos);
  EXPECT_NE(Script->find("x!r"), std::string::npos);
  EXPECT_NE(Script->find("A!arr"), std::string::npos);
  EXPECT_NE(Script->find("A!len"), std::string::npos) << "length axiom";
}

#if RELAXC_HAVE_Z3
namespace {

/// Parses \p Script back through Z3's own SMT-LIB front end and checks it.
SatResult checkSmtLibScript(const std::string &Script) {
  try {
    z3::context C;
    z3::solver S(C);
    S.from_string(Script.c_str());
    switch (S.check()) {
    case z3::sat:
      return SatResult::Sat;
    case z3::unsat:
      return SatResult::Unsat;
    default:
      return SatResult::Unknown;
    }
  } catch (const z3::exception &E) {
    ADD_FAILURE() << "z3 rejected the script: " << E.msg();
    return SatResult::Unknown;
  }
}

} // namespace
#endif

// Freshened names (`x'1`, loop-variant snapshots and bound variables)
// hold a character no simple SMT-LIB symbol may contain; the dump
// quotes them so Z3's own parser reads the script back.
TEST(Z3Solver, SmtLibQuotesPrimedNames) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver S(Ctx.symbols());
  Symbol I = Ctx.sym("i'3");
  const BoolExpr *F = Ctx.andExpr(
      Ctx.lt(Ctx.varO("variant'1"), Ctx.intLit(0)),
      Ctx.exists(I, VarTag::Plain, VarKind::Int,
                 Ctx.eq(Ctx.var(I), Ctx.varO("variant'1"))));
  Result<std::string> Script = S.toSmtLib({F});
  ASSERT_TRUE(Script.ok()) << Script.message();
  EXPECT_NE(Script->find("|variant'1!o|"), std::string::npos) << *Script;
  EXPECT_NE(Script->find("|i'3|"), std::string::npos) << *Script;
#if RELAXC_HAVE_Z3
  EXPECT_EQ(checkSmtLibScript(*Script), SatResult::Sat) << *Script;
#endif
}

// Every `dump-vcs --smtlib` script of the mixed corpus parses back
// through Z3 and gives the verdict `verify` reported for its obligation,
// so any verdict can be re-checked offline without trusting relaxc's
// own query translation. The replay runs on Z3's default solver, which
// also retries a quantifier-free Unknown with a tactic: an independent
// reference for the incremental core that `verify` runs on. The mutants
// add refuted obligations, and the generated programs nonlinear products.
TEST(Z3Solver, CorpusSmtLibScriptsReplayTheReportedVerdicts) {
  RELAXC_SKIP_WITHOUT_Z3();
#if RELAXC_HAVE_Z3
  auto Corpus = relax::test::mixedCorpus();
  if (!Corpus)
    GTEST_SKIP() << "case studies not found";
  size_t Scripts = 0, Quoted = 0, Refuted = 0, Products = 0;
  for (const auto &[Name, Source] : *Corpus) {
    VerifyWireRequest Req;
    Req.FileName = Name;
    Req.Source = Source;
    VerifyJobResult Job = runVerifyJob(Req, nullptr);
    ASSERT_TRUE(Job.Ctx) << Name << ": " << Job.Error << Job.Diagnostics;
    AstContext &Ctx = *Job.Ctx;
    Z3Solver Dumper(Ctx.symbols());
    for (const JudgmentReport *Pass :
         {&Job.Verdicts.Original, &Job.Verdicts.Relaxed})
      for (const VCOutcome &O : Pass->Outcomes) {
        ASSERT_TRUE(O.Status == VCStatus::Proved ||
                    O.Status == VCStatus::Failed)
            << Name << " " << O.Condition.Rule;
        bool Validity = O.Condition.Kind == VCKind::Validity;
        // Validity obligations are dumped negated: unsat means proved.
        Result<std::string> Script = Dumper.toSmtLib(
            {Validity ? Ctx.notExpr(O.Condition.Formula)
                      : O.Condition.Formula});
        ASSERT_TRUE(Script.ok()) << Script.message();
        bool Holds = O.Status == VCStatus::Proved;
        SatResult Expected =
            Holds == Validity ? SatResult::Unsat : SatResult::Sat;
        EXPECT_EQ(checkSmtLibScript(*Script), Expected)
            << Name << " obligation " << O.Condition.Id << " ("
            << O.Condition.Rule << "):\n"
            << *Script;
        ++Scripts;
        Quoted += Script->find('|') != std::string::npos;
        Refuted += !Holds;
        Products += Script->find("(* ") != std::string::npos;
      }
  }
  EXPECT_GT(Scripts, 0u);
  EXPECT_GT(Quoted, 0u) << "no script exercised the quoting";
  EXPECT_GT(Refuted, 0u) << "no refuted obligation was replayed";
  EXPECT_GT(Products, 0u) << "no nonlinear product was replayed";
#endif
}

TEST(Z3Solver, BuildsItsContextOnFirstUse) {
  AstContext Ctx;
  uint64_t Before = Z3Solver::contextsBuilt();
  { Z3Solver Unused(Ctx.symbols()); }
  EXPECT_EQ(Z3Solver::contextsBuilt(), Before)
      << "a solver that was never queried built a z3::context";

  RELAXC_SKIP_WITHOUT_Z3();
  Z3Solver S(Ctx.symbols());
  EXPECT_EQ(Z3Solver::contextsBuilt(), Before);
  const BoolExpr *F = Ctx.eq(Ctx.var("x"), Ctx.intLit(1));
  auto R = S.checkSat({F});
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(*R, SatResult::Sat);
  EXPECT_EQ(Z3Solver::contextsBuilt(), Before + 1);
  // Later queries and SMT-LIB dumps share that one context.
  ASSERT_TRUE(S.checkSat({Ctx.notExpr(F)}).ok());
  ASSERT_TRUE(S.toSmtLib({F}).ok());
  EXPECT_EQ(Z3Solver::contextsBuilt(), Before + 1);

  // A dump is a first use too.
  Z3Solver Dumper(Ctx.symbols());
  Result<std::string> Script = Dumper.toSmtLib({F});
  ASSERT_TRUE(Script.ok()) << Script.message();
  EXPECT_NE(Script->find("(check-sat)"), std::string::npos);
  EXPECT_EQ(Z3Solver::contextsBuilt(), Before + 2);
}

// A deadline caps the Z3 timeout of the query it is installed for, and
// no later one: the timeout lives on the solver's context, which every
// query re-writes.
TEST(Z3Solver, DeadlineCapsOnlyItsOwnQuery) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3SolverOptions Opts;
  Opts.TimeoutMs = 400;
  Z3Solver S(Ctx.symbols(), Opts);
  // x^3 + y^3 == z^3 over x, y, z > 1: Z3 neither refutes nor satisfies
  // it before any timeout.
  auto Cube = [&](const char *Name) {
    const Expr *V = Ctx.var(Name);
    return Ctx.mul(Ctx.mul(V, V), V);
  };
  const BoolExpr *F = Ctx.conj(
      {Ctx.gt(Ctx.var("x"), Ctx.intLit(1)),
       Ctx.gt(Ctx.var("y"), Ctx.intLit(1)),
       Ctx.gt(Ctx.var("z"), Ctx.intLit(1)),
       Ctx.eq(Ctx.add(Cube("x"), Cube("y")), Cube("z"))});
  auto TimedUnknown = [&](Deadline D) {
    S.setDeadline(D);
    auto Start = std::chrono::steady_clock::now();
    Result<SatResult> R = S.checkSat({F});
    auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    EXPECT_TRUE(R.ok() && *R == SatResult::Unknown);
    return Ms;
  };

  auto Capped = TimedUnknown(Deadline::inMs(50));
  EXPECT_TRUE(S.lastQueryDeadlined());
  EXPECT_LT(Capped, 300) << "the 50 ms deadline did not cap the timeout";

  auto Full = TimedUnknown(Deadline::never());
  EXPECT_FALSE(S.lastQueryDeadlined());
  EXPECT_GE(Full, 300) << "the earlier cap outlived its query";

  auto CappedAgain = TimedUnknown(Deadline::inMs(50));
  EXPECT_TRUE(S.lastQueryDeadlined());
  EXPECT_LT(CappedAgain, 300) << "the configured timeout outlived its query";
}

TEST(ModelFormatting, RendersScalarsAndArraysWithTags) {
  AstContext Ctx;
  Model M;
  M.Ints[VarRef{Ctx.sym("x"), VarTag::Orig, VarKind::Int}] = 3;
  ArrayModelValue A;
  A.Length = 2;
  A.Elems = {1, 2};
  M.Arrays[VarRef{Ctx.sym("B"), VarTag::Rel, VarKind::Array}] = A;
  EXPECT_EQ(formatModel(Ctx.symbols(), M), "x<o> = 3, B<r> = [1, 2]");
  EXPECT_EQ(formatModel(Ctx.symbols(), Model()), "(empty model)");
}

//===----------------------------------------------------------------------===//
// CachingSolver
//===----------------------------------------------------------------------===//

TEST(CachingSolver, SecondIdenticalQueryHitsCache) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver Backend(Ctx.symbols());
  CachingSolver S(Backend);
  const BoolExpr *F = Ctx.lt(Ctx.var("x"), Ctx.intLit(3));
  // Structurally equal but distinct nodes must also hit.
  const BoolExpr *G = Ctx.lt(Ctx.var("x"), Ctx.intLit(3));
  ASSERT_TRUE(S.checkSat({F}).ok());
  ASSERT_TRUE(S.checkSat({G}).ok());
  EXPECT_EQ(S.hitCount(), 1u);
  EXPECT_EQ(Backend.queryCount(), 1u);
}

TEST(CachingSolver, DifferentQueriesMiss) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver Backend(Ctx.symbols());
  CachingSolver S(Backend);
  ASSERT_TRUE(S.checkSat({Ctx.lt(Ctx.var("x"), Ctx.intLit(3))}).ok());
  ASSERT_TRUE(S.checkSat({Ctx.lt(Ctx.var("x"), Ctx.intLit(4))}).ok());
  EXPECT_EQ(S.hitCount(), 0u);
  EXPECT_EQ(Backend.queryCount(), 2u);
}

TEST(CachingSolver, PermutedObligationSetHitsCache) {
  // The key is canonicalized by structural hash, so a permuted-but-
  // identical obligation set must hit. Runs on the bounded backend so the
  // pin holds in Z3-off builds too.
  AstContext Ctx;
  BoundedSolver Backend(BoundedSolverOptions(), &Ctx);
  CachingSolver S(Backend);
  const BoolExpr *F = Ctx.gt(Ctx.var("x"), Ctx.intLit(1));
  const BoolExpr *G = Ctx.lt(Ctx.var("x"), Ctx.intLit(5));
  const BoolExpr *H = Ctx.ge(Ctx.var("y"), Ctx.intLit(0));
  ASSERT_TRUE(S.checkSat({F, G, H}).ok());
  ASSERT_TRUE(S.checkSat({H, F, G}).ok());
  ASSERT_TRUE(S.checkSat({G, H, F}).ok());
  EXPECT_EQ(S.hitCount(), 2u) << "permuted queries must share one entry";
  EXPECT_EQ(Backend.queryCount(), 1u);
  // A genuinely different set still misses.
  ASSERT_TRUE(S.checkSat({F, G}).ok());
  EXPECT_EQ(Backend.queryCount(), 2u);
}

TEST(CachingSolver, CaseStudyCacheEffectivenessDoesNotRegress) {
  RELAXC_SKIP_WITHOUT_Z3();
  // Regression pin for the cache on real workloads, at one job. Under
  // the default configuration (the caller's Z3 behind the scheduler's
  // shared cache) every obligation issues exactly one query through the
  // cache: hits + backend queries == VCs. swish's diverge rule re-proves
  // the presentation loop under |-o and |-i, and with no iinvariant both
  // sub-proofs generate several formula-identical obligations (entry,
  // variant-bound, consequence), so it must see repeated hits. Recorded
  // bounds from BM_Solver_Z3_CacheOnSwish (BENCH_solver_ablation.json):
  // 26 VCs, 5 hits, 21 backend queries.
  //
  // The simplify,bounded,z3 pipeline looks each obligation up once too,
  // in the prepare stage or, for a repeat of a pending query, in its
  // slot: it reads the default configuration's hits and misses, its
  // persistent tier sees no more lookups than there are obligations, and
  // its queries and per-tier settled counts stay at the recorded values.
  struct Pinned {
    uint64_t Queries, SimplifySettled, Z3Settled;
  };
  const Pinned Pins[] = {{23, 1, 20}, {23, 1, 22}, {15, 1, 14}, {22, 1, 21},
                         {8, 1, 7},   {6, 1, 5},   {27, 1, 26}, {23, 1, 20}};
  static_assert(std::size(Pins) == std::size(relax::test::CaseStudies));
  for (size_t K = 0; K != std::size(Pins); ++K) {
    const char *Name = relax::test::CaseStudies[K];
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();
    DiagnosticEngine Diags;

    Z3Solver Backend(P.Ctx->symbols());
    Verifier V(*P.Ctx, *P.Prog, Backend, Diags);
    DischargeStats Default;
    Verifier::Options VO;
    VO.StatsOut = &Default;
    VerifyReport R = V.run(VO);
    ASSERT_TRUE(R.verified()) << renderReport(R, P.Ctx->symbols());
    uint64_t Obligations = R.totalVCs();
    EXPECT_EQ(Default.SharedCacheHits + Backend.queryCount(), Obligations)
        << Name << ": every obligation issues exactly one query through "
        << "the cache";
    EXPECT_EQ(Default.SharedCacheHits + Default.SharedCacheMisses,
              Obligations)
        << Name;
    if (std::string(Name) == "swish.rlx") {
      EXPECT_GE(Default.SharedCacheHits, 3u)
          << "the repeated sub-proof obligations must hit";
      EXPECT_LE(Backend.queryCount(), Obligations - 3)
          << "cache effectiveness regressed below the recorded bound";
    }

    // Never loaded or flushed: a cold persistent tier that touches no
    // disk.
    PersistentCache Disk(::testing::TempDir() + "relaxc_unflushed", "cfg");
    BoundedSolver Unused;
    Verifier PV(*P.Ctx, *P.Prog, Unused, Diags);
    DischargeStats Pipe;
    Verifier::Options PO;
    PO.Portfolio = PortfolioOptions(); // simplify,bounded,z3
    PO.SmtFactory = [&P] {
      return std::make_unique<Z3Solver>(P.Ctx->symbols());
    };
    PO.PCache = &Disk;
    PO.StatsOut = &Pipe;
    ASSERT_TRUE(PV.run(PO).verified()) << Name;
    EXPECT_EQ(Pipe.SharedCacheHits, Default.SharedCacheHits) << Name;
    EXPECT_EQ(Pipe.SharedCacheMisses, Default.SharedCacheMisses) << Name;
    EXPECT_LE(Disk.stats().Hits + Disk.stats().Misses, Obligations) << Name;
    const PortfolioStats &PS = Pipe.Portfolio;
    ASSERT_EQ(PS.Tiers.size(), 3u);
    EXPECT_EQ(PS.Queries, Pins[K].Queries) << Name;
    EXPECT_EQ(PS.Tiers[0].Settled, Pins[K].SimplifySettled) << Name;
    EXPECT_EQ(PS.Tiers[1].Settled, 0u) << Name;
    EXPECT_EQ(PS.Tiers[2].Settled, Pins[K].Z3Settled) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Differential: Z3 vs bounded backend on random small formulas
//===----------------------------------------------------------------------===//

namespace {

class BackendAgreement : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(BackendAgreement, RandomQuantifierFreeFormulas) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver Z3(Ctx.symbols());
  BoundedSolver Bounded;
  SplitMix64 Rng(GetParam());
  Printer P(Ctx.symbols());

  // Small formulas whose models (if any) must lie within the bounded
  // domain: every atom constrains variables to [-4, 4].
  for (int Iter = 0; Iter < 25; ++Iter) {
    const char *Names[] = {"x", "y"};
    std::vector<const BoolExpr *> Atoms;
    for (int I = 0; I < 3; ++I) {
      const Expr *V = Ctx.var(Names[Rng.nextInRange(0, 1)]);
      int64_t C = Rng.nextInRange(-4, 4);
      CmpOp Ops[] = {CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt};
      Atoms.push_back(Ctx.cmp(Ops[Rng.nextInRange(0, 4)], V, Ctx.intLit(C)));
    }
    // Keep all variables range-bounded so bounded-exhaustion is complete.
    for (const char *N : Names) {
      Atoms.push_back(Ctx.ge(Ctx.var(N), Ctx.intLit(-4)));
      Atoms.push_back(Ctx.le(Ctx.var(N), Ctx.intLit(4)));
    }
    const BoolExpr *F = Ctx.conj(Atoms);
    auto RZ = Z3.checkSat({F});
    auto RB = Bounded.checkSat({F});
    ASSERT_TRUE(RZ.ok() && RB.ok());
    EXPECT_EQ(*RZ, *RB) << P.print(F);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendAgreement,
                         ::testing::Values(11, 12, 13, 14));

//===----------------------------------------------------------------------===//
// FormulaProgram: compiled evaluation agrees with the tree walker
//===----------------------------------------------------------------------===//

namespace {

/// Builds a random model over x, y (ints) and A (array) within the default
/// bounded domains.
Model randomModel(AstContext &Ctx, SplitMix64 &Rng) {
  Model M;
  M.Ints[VarRef{Ctx.sym("x"), VarTag::Plain, VarKind::Int}] =
      Rng.nextInRange(-6, 6);
  M.Ints[VarRef{Ctx.sym("y"), VarTag::Plain, VarKind::Int}] =
      Rng.nextInRange(-6, 6);
  ArrayModelValue A;
  A.Length = Rng.nextInRange(0, 3);
  for (int64_t I = 0; I != A.Length; ++I)
    A.Elems.push_back(Rng.nextInRange(-2, 2));
  M.Arrays[VarRef{Ctx.sym("A"), VarTag::Plain, VarKind::Array}] = A;
  return M;
}

/// Random quantifier-free formulas over x, y, A covering every opcode the
/// compiler emits (arithmetic incl. div/mod, array read/len/store/compare,
/// every connective).
const BoolExpr *randomFormula(AstContext &Ctx, SplitMix64 &Rng,
                              unsigned Depth) {
  auto IntTerm = [&](auto &&Self, unsigned D) -> const Expr * {
    if (D == 0 || Rng.nextBool(1, 3)) {
      switch (Rng.nextInRange(0, 3)) {
      case 0:
        return Ctx.intLit(Rng.nextInRange(-4, 4));
      case 1:
        return Ctx.var("x");
      case 2:
        return Ctx.var("y");
      default:
        return Ctx.arrayRead(Ctx.arrayRef("A"),
                             Ctx.intLit(Rng.nextInRange(-1, 3)));
      }
    }
    if (Rng.nextBool(1, 5))
      return Ctx.arrayLen(Ctx.arrayStore(Ctx.arrayRef("A"),
                                         Self(Self, D - 1),
                                         Self(Self, D - 1)));
    BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul,
                      BinaryOp::Div, BinaryOp::Mod};
    return Ctx.binary(Ops[Rng.nextInRange(0, 4)], Self(Self, D - 1),
                      Self(Self, D - 1));
  };
  if (Depth == 0 || Rng.nextBool(1, 3)) {
    if (Rng.nextBool(1, 6))
      return Ctx.arrayCmp(Rng.nextBool(), Ctx.arrayRef("A"),
                          Ctx.arrayStore(Ctx.arrayRef("A"),
                                         IntTerm(IntTerm, 1),
                                         IntTerm(IntTerm, 1)));
    CmpOp Ops[] = {CmpOp::Lt, CmpOp::Le, CmpOp::Gt,
                   CmpOp::Ge, CmpOp::Eq, CmpOp::Ne};
    return Ctx.cmp(Ops[Rng.nextInRange(0, 5)], IntTerm(IntTerm, 2),
                   IntTerm(IntTerm, 2));
  }
  if (Rng.nextBool(1, 5))
    return Ctx.notExpr(randomFormula(Ctx, Rng, Depth - 1));
  LogicalOp Ops[] = {LogicalOp::And, LogicalOp::Or, LogicalOp::Implies,
                     LogicalOp::Iff};
  return Ctx.logical(Ops[Rng.nextInRange(0, 3)],
                     randomFormula(Ctx, Rng, Depth - 1),
                     randomFormula(Ctx, Rng, Depth - 1));
}

} // namespace

TEST(FormulaProgram, AgreesWithTreeWalkerOnRandomFormulas) {
  AstContext Ctx;
  SplitMix64 Rng(2026);
  Printer P(Ctx.symbols());
  FormulaEvalOptions Opts;
  for (int Iter = 0; Iter < 500; ++Iter) {
    const BoolExpr *F = randomFormula(Ctx, Rng, 3);
    Model M = randomModel(Ctx, Rng);
    EXPECT_EQ(FormulaProgram::evaluateOnce(F, M, Opts),
              evalFormula(F, M, Opts))
        << P.print(F);
  }
}

TEST(FormulaProgram, AgreesWithTreeWalkerOnQuantifiers) {
  AstContext Ctx;
  SplitMix64 Rng(7);
  FormulaEvalOptions Opts;
  Symbol YSym = Ctx.sym("y"), BSym = Ctx.sym("B");
  for (int Iter = 0; Iter < 50; ++Iter) {
    // exists y . (y * y cmp x + c), exercising an outer input feeding the
    // subprogram next to the enumerated bound variable.
    const BoolExpr *Body =
        Ctx.cmp(Iter % 2 ? CmpOp::Eq : CmpOp::Le,
                Ctx.mul(Ctx.var(YSym), Ctx.var(YSym)),
                Ctx.add(Ctx.var("x"), Ctx.intLit(Rng.nextInRange(-3, 3))));
    const BoolExpr *F = Ctx.exists(YSym, VarTag::Plain, VarKind::Int, Body);
    // exists array B . len(B) == x && B[0] == A[0].
    const BoolExpr *G = Ctx.exists(
        BSym, VarTag::Plain, VarKind::Array,
        Ctx.andExpr(Ctx.eq(Ctx.arrayLen(Ctx.arrayRef(BSym)), Ctx.var("x")),
                    Ctx.eq(Ctx.arrayRead(Ctx.arrayRef(BSym), Ctx.intLit(0)),
                           Ctx.arrayRead(Ctx.arrayRef("A"), Ctx.intLit(0)))));
    Model M = randomModel(Ctx, Rng);
    EXPECT_EQ(FormulaProgram::evaluateOnce(F, M, Opts),
              evalFormula(F, M, Opts));
    EXPECT_EQ(FormulaProgram::evaluateOnce(G, M, Opts),
              evalFormula(G, M, Opts));
    // Nested quantifiers, shadowing x in the inner binder.
    const BoolExpr *Nested = Ctx.exists(
        Ctx.sym("x"), VarTag::Plain, VarKind::Int,
        Ctx.andExpr(Body, Ctx.ge(Ctx.var("x"), Ctx.intLit(0))));
    EXPECT_EQ(FormulaProgram::evaluateOnce(Nested, M, Opts),
              evalFormula(Nested, M, Opts));
  }
}

TEST(FormulaProgram, PointerSharedSubtermsCompileOnce) {
  AstContext Ctx;
  // (x + y > 0 && x + y < 9) || !(x + y > 0): `x + y` appears three times
  // and `x + y > 0` twice; hash-consing makes them pointer-identical, so
  // the program carries exactly one IntBinary and one >-comparison.
  const Expr *Sum = Ctx.add(Ctx.var("x"), Ctx.var("y"));
  const BoolExpr *Pos = Ctx.gt(Sum, Ctx.intLit(0));
  const BoolExpr *F = Ctx.orExpr(
      Ctx.andExpr(Pos, Ctx.lt(Ctx.add(Ctx.var("x"), Ctx.var("y")),
                              Ctx.intLit(9))),
      Ctx.notExpr(Ctx.gt(Ctx.add(Ctx.var("x"), Ctx.var("y")),
                         Ctx.intLit(0))));
  auto P = FormulaProgram::compile(F);
  size_t Binaries = 0, Cmps = 0;
  for (const FormulaProgram::Inst &I : P->instructions()) {
    Binaries += I.K == FormulaProgram::Inst::Op::IntBinary ? 1 : 0;
    Cmps += I.K == FormulaProgram::Inst::Op::Cmp ? 1 : 0;
  }
  EXPECT_EQ(Binaries, 1u) << "shared x + y must evaluate once per candidate";
  EXPECT_EQ(Cmps, 2u); // x + y > 0 (shared) and x + y < 9
  EXPECT_EQ(P->intInputs().size(), 2u);
}

TEST(FormulaProgram, ContextMemoCompilesEachFormulaOnce) {
  AstContext Ctx;
  const BoolExpr *F = Ctx.lt(Ctx.var("x"), Ctx.intLit(3));
  auto P1 = FormulaProgram::compile(F, &Ctx.formulaProgramCache());
  auto P2 = FormulaProgram::compile(F, &Ctx.formulaProgramCache());
  EXPECT_EQ(P1.get(), P2.get()) << "identity-keyed memo must hit";
  // Quantifier bodies are memoized through the same cache.
  const BoolExpr *E =
      Ctx.exists(Ctx.sym("q"), VarTag::Plain, VarKind::Int, F);
  auto PE = FormulaProgram::compile(E, &Ctx.formulaProgramCache());
  ASSERT_EQ(PE->subPrograms().size(), 1u);
  EXPECT_EQ(PE->subPrograms()[0].Body.get(), P1.get());
}

//===----------------------------------------------------------------------===//
// Bounded search engine: pruning and parallel determinism
//===----------------------------------------------------------------------===//

namespace {

/// A contradiction over K variables whose conjuncts each touch one
/// variable: the search engine refutes it at depth 0 while the odometer
/// walks the whole 13^K space.
const BoolExpr *perVarContradiction(AstContext &Ctx, int K) {
  std::vector<const BoolExpr *> Parts;
  for (int I = 0; I != K; ++I) {
    std::string V = "v" + std::to_string(I);
    Parts.push_back(Ctx.ge(Ctx.var(V), Ctx.intLit(0)));
  }
  Parts.push_back(Ctx.eq(Ctx.var("v0"), Ctx.intLit(1)));
  Parts.push_back(Ctx.eq(Ctx.var("v0"), Ctx.intLit(2)));
  return Ctx.conj(Parts);
}

} // namespace

TEST(BoundedSearch, PrefixPruningBeatsEnumerationByOrdersOfMagnitude) {
  AstContext Ctx;
  const BoolExpr *F = perVarContradiction(Ctx, 4);

  BoundedSolverOptions SearchOpts;
  BoundedSolver Search(SearchOpts, &Ctx);
  auto RS = Search.checkSat({F});
  ASSERT_TRUE(RS.ok());
  EXPECT_EQ(*RS, SatResult::Unsat);

  relax::test::EnumerateSolver Enum;
  auto RE = Enum.checkSat({F});
  ASSERT_TRUE(RE.ok());
  EXPECT_EQ(*RE, SatResult::Unsat);

  // 13 top-level assignments vs 13^4 = 28561 full models.
  EXPECT_GE(Enum.candidatesEvaluated(),
            10 * Search.candidatesEvaluated())
      << "search evaluated " << Search.candidatesEvaluated()
      << " candidates, enumerate " << Enum.candidatesEvaluated();
  EXPECT_LE(Search.candidatesEvaluated(), 13u);
}

TEST(BoundedSearch, ParallelChunksMatchSequentialVerdictAndWitness) {
  AstContext Ctx;
  SplitMix64 Rng(99);
  Printer P(Ctx.symbols());
  for (int Iter = 0; Iter < 40; ++Iter) {
    std::vector<const BoolExpr *> Atoms;
    for (int I = 0; I < 4; ++I) {
      const char *Names[] = {"x", "y"};
      CmpOp Ops[] = {CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt};
      Atoms.push_back(Ctx.cmp(Ops[Rng.nextInRange(0, 4)],
                              Ctx.var(Names[Rng.nextInRange(0, 1)]),
                              Ctx.intLit(Rng.nextInRange(-4, 4))));
    }
    const BoolExpr *F = Ctx.conj(Atoms);

    BoundedSolverOptions Seq;
    BoundedSolver S1(Seq, &Ctx);
    Model M1;
    VarRefSet Vars = freeVars(F);
    auto R1 = S1.checkSatWithModel({F}, Vars, M1);

    BoundedSolverOptions Par;
    Par.Jobs = 4;
    BoundedSolver S4(Par, &Ctx);
    Model M4;
    auto R4 = S4.checkSatWithModel({F}, Vars, M4);

    ASSERT_TRUE(R1.ok() && R4.ok());
    EXPECT_EQ(*R1, *R4) << P.print(F);
    EXPECT_TRUE(M1.Ints == M4.Ints && M1.Arrays == M4.Arrays)
        << "witness diverged on " << P.print(F) << ": "
        << formatModel(Ctx.symbols(), M1) << " vs "
        << formatModel(Ctx.symbols(), M4);
  }
}

TEST(BoundedSearch, NegatedImplicationQueriesSplitIntoConjuncts) {
  // The verifier's validity queries arrive as ¬(P → Q); the engine must
  // split them into P's conjuncts plus ¬Q without AST rewriting. A valid
  // obligation therefore reports Unsat after pruning, not after a full
  // sweep.
  AstContext Ctx;
  const BoolExpr *P = Ctx.conj({Ctx.ge(Ctx.var("a"), Ctx.intLit(0)),
                                Ctx.le(Ctx.var("a"), Ctx.intLit(3)),
                                Ctx.ge(Ctx.var("b"), Ctx.intLit(0)),
                                Ctx.le(Ctx.var("b"), Ctx.intLit(3))});
  const BoolExpr *Q =
      Ctx.le(Ctx.add(Ctx.var("a"), Ctx.var("b")), Ctx.intLit(6));
  const BoolExpr *Query = Ctx.notExpr(Ctx.implies(P, Q));
  BoundedSolver Search(BoundedSolverOptions(), &Ctx);
  auto R = Search.checkSat({Query});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unsat);
  // Depth 0 admits 4 of 13 values; depth 1 runs 4 * 13 assignments.
  EXPECT_LE(Search.candidatesEvaluated(), 13u + 4u * 13u);
}

TEST(BoundedSearch, QuantifiedFormulasStillDecide) {
  AstContext Ctx;
  Symbol Y = Ctx.sym("y");
  const BoolExpr *EvenX = Ctx.exists(
      Y, VarTag::Plain, VarKind::Int,
      Ctx.eq(Ctx.var("x"), Ctx.add(Ctx.var(Y), Ctx.var(Y))));
  BoundedSolver Search(BoundedSolverOptions(), &Ctx);
  auto R = Search.checkSat({EvenX, Ctx.eq(Ctx.var("x"), Ctx.intLit(3))});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unsat);
  auto R2 = Search.checkSat({EvenX, Ctx.eq(Ctx.var("x"), Ctx.intLit(4))});
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(*R2, SatResult::Sat);
}

TEST(BoundedSearch, LearningPrunesStructuredConflictSpaces) {
  AstContext Ctx;
  // C1 (support {x,y}) always holds; C2 (support {x,z}) never does. The
  // blind scan re-discovers C2's failure for every y; the conflict-driven
  // engine learns the {x,z} nogoods once and backjumps over y entirely,
  // because z's exhaustion cause excludes it.
  const BoolExpr *C1 =
      Ctx.ge(Ctx.add(Ctx.var("x"), Ctx.var("y")), Ctx.intLit(-100));
  const BoolExpr *C2 =
      Ctx.eq(Ctx.add(Ctx.var("x"), Ctx.var("z")), Ctx.intLit(500));

  BoundedSolverOptions On;
  BoundedSolver SOn(On, &Ctx);
  auto ROn = SOn.checkSat({C1, C2});
  ASSERT_TRUE(ROn.ok());
  EXPECT_EQ(*ROn, SatResult::Unsat);

  BoundedSolverOptions Off;
  Off.Learning = false;
  Off.Restarts = false;
  BoundedSolver SOff(Off, &Ctx);
  auto ROff = SOff.checkSat({C1, C2});
  ASSERT_TRUE(ROff.ok());
  EXPECT_EQ(*ROff, SatResult::Unsat);

  EXPECT_GE(SOff.candidatesEvaluated(), 5 * SOn.candidatesEvaluated())
      << "learning on: " << SOn.candidatesEvaluated()
      << " candidates, off: " << SOff.candidatesEvaluated();
  EXPECT_GT(SOn.searchStats().Conflicts, 0u);
  EXPECT_GT(SOn.searchStats().LearnedNogoods, 0u);
  EXPECT_GT(SOn.searchStats().Backjumps, 0u);
  // The learning-off engine must not touch the conflict machinery at all.
  EXPECT_EQ(SOff.searchStats().LearnedNogoods, 0u);
  EXPECT_EQ(SOff.searchStats().UnitPropagations, 0u);
  EXPECT_EQ(SOff.searchStats().Backjumps, 0u);
  EXPECT_EQ(SOff.searchStats().Restarts, 0u);
}

TEST(BoundedSearch, RestartsAreDeterministicAcrossJobs) {
  AstContext Ctx;
  // 41-value domains and an unsatisfiable y+z==100 drive well past the
  // restart threshold on every top-level chunk, so activity reordering
  // genuinely kicks in. Verdict and witness must not notice: restarts
  // permute only the exploration order, and a Sat under a permuted epoch
  // triggers a canonical identity-order re-search.
  BoundedSolverOptions Base;
  Base.IntLo = -20;
  Base.IntHi = 20;
  const BoolExpr *C1 =
      Ctx.ge(Ctx.add(Ctx.var("x"), Ctx.var("y")), Ctx.intLit(-100));
  const BoolExpr *Unsat =
      Ctx.eq(Ctx.add(Ctx.var("y"), Ctx.var("z")), Ctx.intLit(100));
  const BoolExpr *Sat =
      Ctx.eq(Ctx.add(Ctx.var("y"), Ctx.var("z")), Ctx.intLit(37));

  std::optional<uint64_t> SeqCandidates;
  for (unsigned Jobs : {1u, 4u}) {
    BoundedSolverOptions O = Base;
    O.Jobs = Jobs;
    BoundedSolver S(O, &Ctx);
    auto R = S.checkSat({C1, Unsat});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(*R, SatResult::Unsat) << "jobs=" << Jobs;
    EXPECT_GT(S.searchStats().Restarts, 0u) << "jobs=" << Jobs;
    // Chunk replay makes the total work independent of the worker count.
    if (!SeqCandidates)
      SeqCandidates = S.candidatesEvaluated();
    else
      EXPECT_EQ(*SeqCandidates, S.candidatesEvaluated()) << "jobs=" << Jobs;
  }

  // Restarts off: same verdict, and the restart counter stays flat.
  {
    BoundedSolverOptions O = Base;
    O.Restarts = false;
    BoundedSolver S(O, &Ctx);
    auto R = S.checkSat({C1, Unsat});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(*R, SatResult::Unsat);
    EXPECT_EQ(S.searchStats().Restarts, 0u);
  }

  // Sat variant: the witness is bit-identical with restarts on and off,
  // sequential and chunked.
  VarRefSet Vars = freeVars(Ctx.conj({C1, Sat}));
  std::optional<std::string> RefWitness;
  for (bool Restarts : {true, false}) {
    for (unsigned Jobs : {1u, 4u}) {
      BoundedSolverOptions O = Base;
      O.Restarts = Restarts;
      O.Jobs = Jobs;
      BoundedSolver S(O, &Ctx);
      Model M;
      auto R = S.checkSatWithModel({C1, Sat}, Vars, M);
      ASSERT_TRUE(R.ok());
      ASSERT_EQ(*R, SatResult::Sat)
          << "restarts=" << Restarts << " jobs=" << Jobs;
      std::string W = formatModel(Ctx.symbols(), M);
      if (!RefWitness)
        RefWitness = W;
      else
        EXPECT_EQ(*RefWitness, W)
            << "restarts=" << Restarts << " jobs=" << Jobs;
    }
  }
}

TEST(BoundedSearch, CandidateBudgetStillAborts) {
  AstContext Ctx;
  // x + y + z == 100 is unsatisfiable in-domain but unconstrained per
  // prefix, so the search walks deep; a tiny budget must trip to Unknown
  // identically with and without chunked workers.
  const BoolExpr *F =
      Ctx.eq(Ctx.add(Ctx.add(Ctx.var("x"), Ctx.var("y")), Ctx.var("z")),
             Ctx.intLit(100));
  for (unsigned Jobs : {1u, 3u}) {
    BoundedSolverOptions O;
    O.MaxCandidates = 20;
    O.Jobs = Jobs;
    BoundedSolver S(O, &Ctx);
    auto R = S.checkSat({F});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(*R, SatResult::Unknown) << "jobs=" << Jobs;
  }
}
