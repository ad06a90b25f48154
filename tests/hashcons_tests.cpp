//===- hashcons_tests.cpp - Hash-consing invariant tests -----------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The invariants the hash-consing AST layer must uphold:
///
///  * every AstContext factory returns pointer-identical nodes for
///    structurally identical inputs, ignoring source locations;
///  * structuralHash is a cached field read consistent with the recursive
///    definition, and structurallyEqual takes the pointer fast path;
///  * simplification is idempotent and memo-consistent across Simplifier
///    instances (the memo lives in the context);
///  * CachingSolver verifies entries on hit and counts hits/misses;
///  * a one-tier pipeline at several jobs produces verdicts identical to
///    its plain backend at one job.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ast/Structural.h"
#include "logic/FormulaOps.h"
#include "logic/Simplify.h"
#include "solver/BoundedSolver.h"

#include <gtest/gtest.h>

using namespace relax;
using namespace relax::test;

namespace {

class HashConsTest : public ::testing::Test {
protected:
  AstContext Ctx;
};

//===----------------------------------------------------------------------===//
// Factory identity
//===----------------------------------------------------------------------===//

TEST_F(HashConsTest, EveryExprFactoryDeduplicates) {
  EXPECT_EQ(Ctx.intLit(42), Ctx.intLit(42));
  EXPECT_EQ(Ctx.var("x"), Ctx.var("x"));
  EXPECT_EQ(Ctx.varO("x"), Ctx.varO("x"));
  EXPECT_EQ(Ctx.arrayRef("A"), Ctx.arrayRef("A"));

  const ArrayExpr *A = Ctx.arrayRef("A");
  EXPECT_EQ(Ctx.arrayStore(A, Ctx.intLit(0), Ctx.var("v")),
            Ctx.arrayStore(A, Ctx.intLit(0), Ctx.var("v")));
  EXPECT_EQ(Ctx.arrayRead(A, Ctx.var("i")), Ctx.arrayRead(A, Ctx.var("i")));
  EXPECT_EQ(Ctx.arrayLen(A), Ctx.arrayLen(A));
  EXPECT_EQ(Ctx.add(Ctx.var("x"), Ctx.intLit(1)),
            Ctx.add(Ctx.var("x"), Ctx.intLit(1)));
}

TEST_F(HashConsTest, EveryBoolFactoryDeduplicates) {
  EXPECT_EQ(Ctx.boolLit(true), Ctx.trueExpr());
  EXPECT_EQ(Ctx.lt(Ctx.var("x"), Ctx.intLit(3)),
            Ctx.lt(Ctx.var("x"), Ctx.intLit(3)));
  EXPECT_EQ(Ctx.arrayEq(Ctx.arrayRef("A"), Ctx.arrayRef("B")),
            Ctx.arrayEq(Ctx.arrayRef("A"), Ctx.arrayRef("B")));

  const BoolExpr *P = Ctx.lt(Ctx.var("x"), Ctx.intLit(3));
  const BoolExpr *Q = Ctx.gt(Ctx.var("y"), Ctx.intLit(0));
  EXPECT_EQ(Ctx.andExpr(P, Q), Ctx.andExpr(P, Q));
  EXPECT_EQ(Ctx.notExpr(P), Ctx.notExpr(P));
  Symbol X = Ctx.sym("x");
  EXPECT_EQ(Ctx.exists(X, VarTag::Orig, VarKind::Int, P),
            Ctx.exists(X, VarTag::Orig, VarKind::Int, P));
}

TEST_F(HashConsTest, DeduplicationIsLocInsensitive) {
  SourceLoc L1{3, 7}, L2{90, 1};
  EXPECT_EQ(Ctx.intLit(5, L1), Ctx.intLit(5, L2));
  EXPECT_EQ(Ctx.var(Ctx.sym("x"), VarTag::Plain, L1),
            Ctx.var(Ctx.sym("x"), VarTag::Plain, L2));
  EXPECT_EQ(Ctx.cmp(CmpOp::Lt, Ctx.var("x"), Ctx.intLit(3), L1),
            Ctx.cmp(CmpOp::Lt, Ctx.var("x"), Ctx.intLit(3), L2));
  EXPECT_EQ(Ctx.boolLit(true, L1), Ctx.boolLit(true, L2));
}

TEST_F(HashConsTest, DistinctStructuresStayDistinct) {
  EXPECT_NE(Ctx.intLit(1), Ctx.intLit(2));
  EXPECT_NE(Ctx.var("x"), Ctx.varO("x"));
  EXPECT_NE(Ctx.var("x"), Ctx.var("y"));
  EXPECT_NE(Ctx.add(Ctx.var("x"), Ctx.var("y")),
            Ctx.sub(Ctx.var("x"), Ctx.var("y")));
  EXPECT_NE(Ctx.lt(Ctx.var("x"), Ctx.intLit(3)),
            Ctx.le(Ctx.var("x"), Ctx.intLit(3)));
  Symbol X = Ctx.sym("x");
  const BoolExpr *P = Ctx.lt(Ctx.var(X), Ctx.intLit(3));
  EXPECT_NE(Ctx.exists(X, VarTag::Plain, VarKind::Int, P),
            Ctx.exists(X, VarTag::Plain, VarKind::Array, P));
}

TEST_F(HashConsTest, StatisticsTrackHitsAndUniqueNodes) {
  uint64_t Unique0 = Ctx.uniqueNodeCount();
  uint64_t Hits0 = Ctx.hashConsHits();
  Ctx.add(Ctx.var("fresh_v"), Ctx.intLit(12345));
  EXPECT_EQ(Ctx.uniqueNodeCount(), Unique0 + 3) << "var, lit, add";
  Ctx.add(Ctx.var("fresh_v"), Ctx.intLit(12345));
  EXPECT_EQ(Ctx.uniqueNodeCount(), Unique0 + 3);
  EXPECT_EQ(Ctx.hashConsHits(), Hits0 + 3);
}

//===----------------------------------------------------------------------===//
// Hashing and equality fast paths
//===----------------------------------------------------------------------===//

TEST_F(HashConsTest, CachedHashMatchesRecursiveDefinition) {
  // Same structure built in a *different* context must produce the same
  // structural hash (the interners assign symbol ids in the same order).
  AstContext Other;
  const BoolExpr *A = Ctx.implies(Ctx.lt(Ctx.var("x"), Ctx.intLit(3)),
                                  Ctx.ge(Ctx.add(Ctx.var("x"), Ctx.intLit(1)),
                                         Ctx.intLit(0)));
  const BoolExpr *B = Other.implies(
      Other.lt(Other.var("x"), Other.intLit(3)),
      Other.ge(Other.add(Other.var("x"), Other.intLit(1)), Other.intLit(0)));
  EXPECT_NE(A, B);
  EXPECT_EQ(structuralHash(A), structuralHash(B));
  EXPECT_TRUE(structurallyEqual(A, B));
}

TEST_F(HashConsTest, SameContextEqualityIsPointerEquality) {
  const BoolExpr *A = Ctx.andExpr(Ctx.lt(Ctx.var("x"), Ctx.intLit(2)),
                                  Ctx.eq(Ctx.var("y"), Ctx.intLit(0)));
  const BoolExpr *B = Ctx.andExpr(Ctx.lt(Ctx.var("x"), Ctx.intLit(2)),
                                  Ctx.eq(Ctx.var("y"), Ctx.intLit(0)));
  // structurallyEqual(A, B) implies A == B within one context.
  EXPECT_EQ(A, B);
  EXPECT_TRUE(structurallyEqual(A, B));
}

//===----------------------------------------------------------------------===//
// Simplification
//===----------------------------------------------------------------------===//

TEST_F(HashConsTest, SimplifyIsIdempotent) {
  // (x + 0 < 3 && true) ==> !(!(x < 3))
  const BoolExpr *B = Ctx.implies(
      Ctx.andExpr(Ctx.lt(Ctx.add(Ctx.var("x"), Ctx.intLit(0)), Ctx.intLit(3)),
                  Ctx.trueExpr()),
      Ctx.notExpr(Ctx.notExpr(Ctx.lt(Ctx.var("x"), Ctx.intLit(3)))));
  const BoolExpr *S1 = simplify(Ctx, B);
  const BoolExpr *S2 = simplify(Ctx, S1);
  EXPECT_EQ(S1, S2) << "simplify must be a no-op on its own output";
}

TEST_F(HashConsTest, SimplifyIsMemoConsistentAcrossInstances) {
  const BoolExpr *B = Ctx.orExpr(
      Ctx.andExpr(Ctx.ge(Ctx.mul(Ctx.var("x"), Ctx.intLit(1)), Ctx.intLit(0)),
                  Ctx.boolLit(true)),
      Ctx.boolLit(false));
  Simplifier S1(Ctx), S2(Ctx);
  const BoolExpr *R1 = S1.simplify(B);
  const BoolExpr *R2 = S2.simplify(B);
  EXPECT_EQ(R1, R2) << "the memo lives in the context, not the instance";
  EXPECT_EQ(R1, simplify(Ctx, B));
}

TEST_F(HashConsTest, VacuousBinderEliminationUsesCachedFreeVars) {
  Symbol Z = Ctx.sym("z");
  const BoolExpr *Body = Ctx.lt(Ctx.var("x"), Ctx.intLit(3));
  const BoolExpr *Vacuous =
      Ctx.exists(Z, VarTag::Plain, VarKind::Int, Body);
  EXPECT_EQ(simplify(Ctx, Vacuous), Body);
  EXPECT_FALSE(occursFree(Ctx, Body, VarRef{Z, VarTag::Plain, VarKind::Int}));
  EXPECT_TRUE(occursFree(Ctx, Body,
                         VarRef{Ctx.sym("x"), VarTag::Plain, VarKind::Int}));
}

//===----------------------------------------------------------------------===//
// CachingSolver hardening
//===----------------------------------------------------------------------===//

TEST_F(HashConsTest, CachingSolverCountsHitsAndMisses) {
  BoundedSolver Backend;
  CachingSolver Cached(Backend);
  const BoolExpr *Q = Ctx.lt(Ctx.var("x"), Ctx.intLit(3));

  Result<SatResult> R1 = Cached.checkSat({Q});
  ASSERT_TRUE(R1.ok());
  EXPECT_EQ(Cached.hitCount(), 0u);
  EXPECT_EQ(Cached.missCount(), 1u);

  Result<SatResult> R2 = Cached.checkSat({Q});
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(*R1, *R2);
  EXPECT_EQ(Cached.hitCount(), 1u);
  EXPECT_EQ(Backend.queryCount(), 1u) << "second query served from cache";

  // A different query misses (and is not a collision).
  Result<SatResult> R3 = Cached.checkSat({Ctx.gt(Ctx.var("x"), Ctx.intLit(3))});
  ASSERT_TRUE(R3.ok());
  EXPECT_EQ(Cached.missCount(), 2u);
  EXPECT_EQ(Cached.collisionCount(), 0u);
}

TEST_F(HashConsTest, CachingSolverVerifiesEntriesByIdentity) {
  // Two structurally equal queries are one cache line because hash-consing
  // makes them the same pointers.
  BoundedSolver Backend;
  CachingSolver Cached(Backend);
  (void)Cached.checkSat({Ctx.eq(Ctx.var("a"), Ctx.intLit(1))});
  (void)Cached.checkSat({Ctx.eq(Ctx.var("a"), Ctx.intLit(1))});
  EXPECT_EQ(Backend.queryCount(), 1u);
  EXPECT_EQ(Cached.hitCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Parallel discharge determinism
//===----------------------------------------------------------------------===//

const char *ParallelCorpus[] = {
    // verifies
    "int x; requires (x >= 0 && x <= 3); ensures (x <= 4); { x = x + 1; }",
    // relax obligation fails under |-o (x may exceed the asserted bound)
    "int x; requires (x == 1); { relax (x) st (x >= 0 && x <= 9); "
    "assert x <= 2; }",
    // havoc + assert verifies
    "int x; requires (x == 1); { havoc (x) st (x >= 0 && x <= 2); "
    "assert x <= 2; }",
    // loop with invariants
    "int i, n; requires (n >= 0 && n <= 4); ensures (i == n); {\n"
    "  i = 0;\n"
    "  while (i < n) invariant (0 <= i && i <= n)\n"
    "    rinvariant (i<o> == i<r> && n<o> == n<r>) { i = i + 1; }\n"
    "}",
};

std::vector<VCStatus> statusesOf(const JudgmentReport &J) {
  std::vector<VCStatus> Out;
  for (const VCOutcome &O : J.Outcomes)
    Out.push_back(O.Status);
  return Out;
}

TEST(ParallelVerifier, VerdictsMatchSequential) {
  for (const char *Source : ParallelCorpus) {
    ParsedProgram P = parseProgram(Source);
    ASSERT_TRUE(P.ok()) << P.diagnostics();

    // Sequential: the plain backend, one job.
    BoundedSolver SeqSolver;
    Verifier SeqV(*P.Ctx, *P.Prog, SeqSolver, P.Diags);
    Verifier::Options SeqOpts;
    SeqOpts.Jobs = 1;
    VerifyReport Seq = SeqV.run(SeqOpts);

    // Parallel: the one-tier bounded pipeline on four slots, each with
    // its own backend, under the plain backend's budgets.
    BoundedSolver Unused;
    Verifier ParV(*P.Ctx, *P.Prog, Unused, P.Diags);
    Verifier::Options ParOpts;
    ParOpts.Jobs = 4;
    ParOpts.Portfolio = PortfolioOptions();
    ParOpts.Portfolio->Tiers = {TierKind::Bounded};
    ParOpts.Portfolio->Bounded = BoundedSolverOptions();
    VerifyReport Par = ParV.run(ParOpts);

    EXPECT_EQ(Seq.verified(), Par.verified()) << Source;
    EXPECT_EQ(statusesOf(Seq.Original), statusesOf(Par.Original)) << Source;
    EXPECT_EQ(statusesOf(Seq.Relaxed), statusesOf(Par.Relaxed)) << Source;
    // Same obligations in the same order, with identical diagnostics.
    ASSERT_EQ(Seq.Original.Outcomes.size(), Par.Original.Outcomes.size());
    for (size_t I = 0; I != Seq.Original.Outcomes.size(); ++I) {
      EXPECT_EQ(Seq.Original.Outcomes[I].Condition.Rule,
                Par.Original.Outcomes[I].Condition.Rule);
      EXPECT_EQ(Seq.Original.Outcomes[I].Detail,
                Par.Original.Outcomes[I].Detail);
    }
  }
}

#if RELAXC_HAVE_Z3
TEST(ParallelVerifier, VerdictsMatchSequentialWithZ3) {
  for (const char *Source : ParallelCorpus) {
    ParsedProgram P = parseProgram(Source);
    ASSERT_TRUE(P.ok()) << P.diagnostics();

    Z3Solver SeqSolver(P.Ctx->symbols());
    Verifier SeqV(*P.Ctx, *P.Prog, SeqSolver, P.Diags);
    VerifyReport Seq = SeqV.run();

    Z3Solver Unused(P.Ctx->symbols());
    Verifier ParV(*P.Ctx, *P.Prog, Unused, P.Diags);
    Verifier::Options ParOpts;
    ParOpts.Jobs = 3;
    ParOpts.Portfolio = PortfolioOptions();
    ParOpts.Portfolio->Tiers = {TierKind::Smt};
    ParOpts.SmtFactory = [&P] {
      return std::make_unique<Z3Solver>(P.Ctx->symbols());
    };
    VerifyReport Par = ParV.run(ParOpts);

    EXPECT_EQ(Seq.verified(), Par.verified()) << Source;
    EXPECT_EQ(statusesOf(Seq.Original), statusesOf(Par.Original)) << Source;
    EXPECT_EQ(statusesOf(Seq.Relaxed), statusesOf(Par.Relaxed)) << Source;
  }
}
#endif

} // namespace
