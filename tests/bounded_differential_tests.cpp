//===- bounded_differential_tests.cpp - Bounded-backend differentials ----------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// The bounded backend is the only decision procedure in Z3-off builds and
// the ablation baseline of experiment A1, so its search engine is pinned
// three ways:
//
//  * against Z3 on random formulas whose models must lie in the bounded
//    domain (verdict agreement, and every Sat witness re-checked);
//  * against the generate-and-test odometer (EnumerateSolver.h) on random
//    formulas with no domain restriction (the two share the domain, so
//    they must agree everywhere), with a learning-off leg pinning that
//    conflict-driven pruning changes neither verdicts nor witnesses;
//  * sequential vs chunked-parallel search on the six paper case studies
//    (identical per-VC verdicts and witness strings), plus learning
//    on/off and search-vs-odometer leg pairs on the same corpus;
//  * learning against the blind scan under the `bounded` pipeline on all
//    eight case studies: learning may only decide more.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "EnumerateSolver.h"
#include "TestUtil.h"

#include "server/VerifyServer.h"
#include "solver/BoundedSolver.h"
#include "solver/Z3Solver.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace relax;

namespace {

/// Random formulas over two scalars and one array, nesting every
/// connective. Atom constants stay small so Sat instances are plentiful.
class FormulaGen {
public:
  FormulaGen(AstContext &Ctx, uint64_t Seed) : Ctx(Ctx), Rng(Seed) {}

  const Expr *genTerm(unsigned Depth) {
    if (Depth == 0 || Rng.nextBool(1, 2)) {
      switch (Rng.nextInRange(0, 3)) {
      case 0:
        return Ctx.intLit(Rng.nextInRange(-4, 4));
      case 1:
        return Ctx.var("x");
      case 2:
        return Ctx.var("y");
      default:
        return Ctx.arrayRead(Ctx.arrayRef("A"),
                             Ctx.intLit(Rng.nextInRange(0, 2)));
      }
    }
    BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul};
    return Ctx.binary(Ops[Rng.nextInRange(0, 2)], genTerm(Depth - 1),
                      genTerm(Depth - 1));
  }

  const BoolExpr *genAtom() {
    if (Rng.nextBool(1, 8))
      return Ctx.eq(Ctx.arrayLen(Ctx.arrayRef("A")),
                    Ctx.intLit(Rng.nextInRange(0, 3)));
    CmpOp Ops[] = {CmpOp::Lt, CmpOp::Le, CmpOp::Gt,
                   CmpOp::Ge, CmpOp::Eq, CmpOp::Ne};
    return Ctx.cmp(Ops[Rng.nextInRange(0, 5)], genTerm(1), genTerm(1));
  }

  const BoolExpr *genFormula(unsigned Depth) {
    if (Depth == 0 || Rng.nextBool(1, 3))
      return genAtom();
    if (Rng.nextBool(1, 5))
      return Ctx.notExpr(genFormula(Depth - 1));
    LogicalOp Ops[] = {LogicalOp::And, LogicalOp::Or, LogicalOp::Implies,
                       LogicalOp::Iff};
    return Ctx.logical(Ops[Rng.nextInRange(0, 3)], genFormula(Depth - 1),
                       genFormula(Depth - 1));
  }

  /// Conjoins range bounds on every variable so that any model at all
  /// implies a model inside the bounded domain — the precondition for
  /// comparing bounded Unsat against Z3. The array length is pinned to 3
  /// so every generated read (indices 0..2) is in range: out-of-range
  /// reads are 0 in the total logic semantics but unconstrained in Z3's
  /// array theory, a deliberate divergence the VC generator's bounds
  /// obligations make unobservable (see Solver.h).
  const BoolExpr *boundToDomain(const BoolExpr *F) {
    std::vector<const BoolExpr *> Parts = {
        F,
        Ctx.ge(Ctx.var("x"), Ctx.intLit(-4)),
        Ctx.le(Ctx.var("x"), Ctx.intLit(4)),
        Ctx.ge(Ctx.var("y"), Ctx.intLit(-4)),
        Ctx.le(Ctx.var("y"), Ctx.intLit(4)),
        Ctx.eq(Ctx.arrayLen(Ctx.arrayRef("A")), Ctx.intLit(3))};
    for (int64_t I = 0; I != 3; ++I) {
      const Expr *Elem = Ctx.arrayRead(Ctx.arrayRef("A"), Ctx.intLit(I));
      Parts.push_back(Ctx.ge(Elem, Ctx.intLit(-2)));
      Parts.push_back(Ctx.le(Elem, Ctx.intLit(2)));
    }
    return Ctx.conj(Parts);
  }

private:
  AstContext &Ctx;
  SplitMix64 Rng;
};

class BoundedVsZ3 : public ::testing::TestWithParam<uint64_t> {};
class SearchVsEnumerate : public ::testing::TestWithParam<uint64_t> {};

} // namespace

//===----------------------------------------------------------------------===//
// Bounded (search engine) vs Z3
//===----------------------------------------------------------------------===//

TEST_P(BoundedVsZ3, VerdictAndWitnessAgreement) {
  RELAXC_SKIP_WITHOUT_Z3();
  AstContext Ctx;
  Z3Solver Z3(Ctx.symbols());
  BoundedSolver Bounded(BoundedSolverOptions(), &Ctx);
  FormulaGen Gen(Ctx, GetParam());
  Printer P(Ctx.symbols());

  for (int Iter = 0; Iter < 30; ++Iter) {
    const BoolExpr *F = Gen.boundToDomain(Gen.genFormula(3));
    auto RZ = Z3.checkSat({F});
    ASSERT_TRUE(RZ.ok()) << RZ.message();

    VarRefSet Vars = freeVars(F);
    Model Witness;
    auto RB = Bounded.checkSatWithModel({F}, Vars, Witness);
    ASSERT_TRUE(RB.ok());
    EXPECT_EQ(*RZ, *RB) << P.print(F);

    if (*RB == SatResult::Sat) {
      // The witness must actually satisfy the formula under the tree
      // walker, and lie inside the bounded domain.
      FormulaEvalOptions EvalOpts;
      EvalOpts.IntLo = -6;
      EvalOpts.IntHi = 6;
      EXPECT_TRUE(evalFormula(F, Witness, EvalOpts))
          << P.print(F) << " with "
          << formatModel(Ctx.symbols(), Witness);
      for (const auto &[V, Value] : Witness.Ints) {
        EXPECT_GE(Value, -6);
        EXPECT_LE(Value, 6);
      }
      for (const auto &[V, A] : Witness.Arrays)
        EXPECT_LE(A.Length, 3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedVsZ3,
                         ::testing::Values(101, 102, 103, 104, 105));

//===----------------------------------------------------------------------===//
// Search vs the odometer (no solver dependency)
//===----------------------------------------------------------------------===//

TEST_P(SearchVsEnumerate, VerdictsAgreeOnRandomFormulas) {
  AstContext Ctx;
  BoundedSolverOptions SearchOpts;
  BoundedSolver Search(SearchOpts, &Ctx);
  relax::test::EnumerateSolver Enum;
  // Conflict-driven machinery off: nogoods, restarts, and backjumping may
  // only skip assignments that are already falsified, so this solver must
  // agree with the learning one formula-for-formula, witness-for-witness.
  BoundedSolverOptions NoLearnOpts;
  NoLearnOpts.Learning = false;
  NoLearnOpts.Restarts = false;
  BoundedSolver NoLearn(NoLearnOpts, &Ctx);
  FormulaGen Gen(Ctx, GetParam());
  Printer P(Ctx.symbols());

  // 3 seeds x 70 iterations = 210 generated formulas across the suite,
  // clearing the >= 200 acceptance floor for the learning differential.
  for (int Iter = 0; Iter < 70; ++Iter) {
    // All three share one domain, so verdicts must agree with no
    // range bounding at all — including Unsat by exhaustion.
    const BoolExpr *F = Gen.genFormula(3);
    auto RS = Search.checkSat({F});
    auto RE = Enum.checkSat({F});
    auto RN = NoLearn.checkSat({F});
    ASSERT_TRUE(RS.ok() && RE.ok() && RN.ok());
    EXPECT_EQ(*RS, *RE) << P.print(F);
    EXPECT_EQ(*RS, *RN) << "learning changed the verdict on " << P.print(F);

    // Sat witnesses from the search engine satisfy the formula, and the
    // learning-off engine lands on the bit-identical witness (canonical
    // re-search makes the first model in identity order the answer for
    // both).
    if (*RS == SatResult::Sat) {
      Model Witness;
      auto RM = Search.checkSatWithModel({F}, freeVars(F), Witness);
      ASSERT_TRUE(RM.ok());
      ASSERT_EQ(*RM, SatResult::Sat);
      FormulaEvalOptions EvalOpts;
      EvalOpts.IntLo = -6;
      EvalOpts.IntHi = 6;
      EXPECT_TRUE(evalFormula(F, Witness, EvalOpts))
          << P.print(F) << " with "
          << formatModel(Ctx.symbols(), Witness);

      Model NoLearnWitness;
      auto RNM = NoLearn.checkSatWithModel({F}, freeVars(F), NoLearnWitness);
      ASSERT_TRUE(RNM.ok());
      ASSERT_EQ(*RNM, SatResult::Sat);
      EXPECT_EQ(formatModel(Ctx.symbols(), Witness),
                formatModel(Ctx.symbols(), NoLearnWitness))
          << "learning changed the witness on " << P.print(F);
    }
  }
  // No candidate-count comparison here: the two count different units
  // (partial assignments vs full models), and a corpus dominated by
  // single-conjunct formulas has nothing to prune. The pruning win is
  // pinned deterministically in BoundedSearch.* (solver_tests.cpp) and
  // measured in bench/solver_ablation.
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchVsEnumerate,
                         ::testing::Values(7, 8, 9));

//===----------------------------------------------------------------------===//
// Sequential vs parallel bounded discharge on the paper case studies
//===----------------------------------------------------------------------===//

namespace {

/// Case-study solver configuration: a budget small enough to keep the
/// undecidable obligations fast.
BoundedSolverOptions caseStudyOpts(unsigned Jobs) {
  BoundedSolverOptions O;
  O.Jobs = Jobs;
  // Keep undecidable obligations cheap: most relational VCs exceed any
  // reasonable bounded budget anyway, and Unknown-vs-Unknown is exactly
  // as strong a determinism pin as Proved-vs-Proved. The domains are
  // shrunk too — quantified VCs enumerate the quantifier domain on every
  // conjunct check, a cost the candidate budget does not bound.
  O.MaxCandidates = 500;
  O.IntLo = -2;
  O.IntHi = 2;
  O.MaxArrayLen = 1;
  O.ArrayElemLo = -1;
  O.ArrayElemHi = 1;
  return O;
}

/// Runs a full verification of \p P on \p S.
VerifyReport verifyWith(relax::test::ParsedProgram &P, Solver &S) {
  DiagnosticEngine Diags;
  Verifier V(*P.Ctx, *P.Prog, S, Diags);
  return V.run();
}

/// Runs a full verification of \p P on the bounded backend with the
/// given solver configuration.
VerifyReport verifyBoundedWith(relax::test::ParsedProgram &P,
                               const BoundedSolverOptions &O) {
  BoundedSolver S(O, P.Ctx.get());
  return verifyWith(P, S);
}

VerifyReport verifyBounded(relax::test::ParsedProgram &P, unsigned Jobs) {
  return verifyBoundedWith(P, caseStudyOpts(Jobs));
}

/// Pins two verification reports as bit-identical: Statuses match, and
/// Details (which embed the witness/counterexample model) match string
/// for string, so witness determinism is pinned alongside the verdict.
void expectSameReports(const VerifyReport &A, const VerifyReport &B,
                       const char *Name, const char *What) {
  auto Compare = [&](const JudgmentReport &X, const JudgmentReport &Y,
                     const char *Pass) {
    ASSERT_EQ(X.Outcomes.size(), Y.Outcomes.size())
        << Name << " " << What << " " << Pass;
    for (size_t I = 0; I != X.Outcomes.size(); ++I) {
      EXPECT_EQ(X.Outcomes[I].Status, Y.Outcomes[I].Status)
          << Name << " " << What << " " << Pass << " VC #" << I << " ("
          << X.Outcomes[I].Condition.Rule << ")";
      EXPECT_EQ(X.Outcomes[I].Detail, Y.Outcomes[I].Detail)
          << Name << " " << What << " " << Pass << " VC #" << I;
    }
  };
  Compare(A.Original, B.Original, "|-o");
  Compare(A.Relaxed, B.Relaxed, "|-r");
}

} // namespace

TEST(BoundedCaseStudies, SequentialAndParallelDischargeIdentically) {
  const char *Examples[] = {"swish.rlx",     "water.rlx",    "lu.rlx",
                            "task_skip.rlx", "sampling.rlx", "memoize.rlx"};
  for (const char *Name : Examples) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();

    VerifyReport Seq = verifyBounded(P, 1);
    VerifyReport Par = verifyBounded(P, 4);
    expectSameReports(Seq, Par, Name, "--jobs=1 vs --jobs=4");
  }

  // The copies program, whose passes start four discharge slots: the
  // bounded search chunked across workers, and the obligations spread
  // over the scheduler's slots, each discharge as the sequential run.
  relax::test::ParsedProgram P =
      relax::test::parseProgram(relax::test::copiesProgram(
          relax::test::ManyCopies));
  ASSERT_TRUE(P.ok()) << P.diagnostics();
  VerifyReport Seq = verifyBounded(P, 1);
  expectSameReports(Seq, verifyBounded(P, 4), "copies program",
                    "--jobs=1 vs --jobs=4");
  BoundedSolver Unused;
  DiagnosticEngine Diags;
  Verifier V(*P.Ctx, *P.Prog, Unused, Diags);
  Verifier::Options VO;
  VO.Portfolio = PortfolioOptions();
  VO.Portfolio->Tiers = {TierKind::Bounded};
  VO.Portfolio->Bounded = caseStudyOpts(1);
  VO.Jobs = 4;
  DischargeStats Stats;
  VO.StatsOut = &Stats;
  expectSameReports(Seq, V.run(VO), "copies program", "1 slot vs 4 slots");
  EXPECT_EQ(Stats.PassSlots, (std::vector<unsigned>{4, 4}));
}

// Nogood learning, conflict-directed backjumping, activity ordering, and
// restarts change how fast the search moves, never where it lands: every
// verdict and witness on the paper case studies must be bit-identical
// with the conflict-driven machinery disabled, at both worker counts.
// The budgets differ from the jobs pin above: learning decides some
// obligations (water's while-VC, lu's relate-VC) in far fewer candidates
// than the blind scan needs, so the tight 500-candidate budget would
// make the learning-off leg trip where the learning leg proves — that
// asymmetry IS the measured perf win, not a verdict divergence. The
// candidate budget is therefore raised until both configurations decide
// the same obligations, and the quantifier-step budget (whose charging
// is independent of learning) is capped instead to keep the quantified
// obligations fast.
TEST(BoundedCaseStudies, LearningAndRestartsNeverChangeVerdicts) {
  const char *Examples[] = {"swish.rlx",     "water.rlx",    "lu.rlx",
                            "task_skip.rlx", "sampling.rlx", "memoize.rlx"};
  for (const char *Name : Examples) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();

    for (unsigned Jobs : {1u, 4u}) {
      BoundedSolverOptions Base = caseStudyOpts(Jobs);
      Base.MaxCandidates = 2'000'000;
      Base.MaxQuantSteps = 2'000;
      VerifyReport Ref = verifyBoundedWith(P, Base);

      BoundedSolverOptions NoLearn = Base;
      NoLearn.Learning = false;
      NoLearn.Restarts = false;
      expectSameReports(Ref, verifyBoundedWith(P, NoLearn), Name,
                        Jobs == 1 ? "learning off --jobs=1"
                                  : "learning off --jobs=4");

      BoundedSolverOptions NoRestart = Base;
      NoRestart.Restarts = false;
      expectSameReports(Ref, verifyBoundedWith(P, NoRestart), Name,
                        Jobs == 1 ? "restarts off --jobs=1"
                                  : "restarts off --jobs=4");
    }
  }
}

// The odometer is the ground truth the conflict-driven search must
// reproduce end-to-end. The two meter different units (full models vs
// partial assignments), so budget-limited verdicts are not comparable:
// the domain is shrunk to a two-value integer range and the budget
// lifted so full enumeration finishes on every obligation and neither
// trips.
TEST(BoundedCaseStudies, SearchAndEnumerateDischargeIdentically) {
  const char *Examples[] = {"swish.rlx",     "water.rlx",    "lu.rlx",
                            "task_skip.rlx", "sampling.rlx", "memoize.rlx"};
  for (const char *Name : Examples) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();

    BoundedSolverOptions SearchOpts = caseStudyOpts(1);
    SearchOpts.MaxCandidates = 50'000'000;
    SearchOpts.IntLo = 0;
    SearchOpts.IntHi = 1;
    SearchOpts.MaxArrayLen = 1;
    SearchOpts.ArrayElemLo = 0;
    SearchOpts.ArrayElemHi = 0;
    // Learning off for this leg: the learning-vs-baseline identity is
    // pinned above (and on 210 random formulas), so pinning the baseline
    // search against the enumerate ground truth closes the triangle —
    // and skips the nogood-store churn that dominates exhaustive scans
    // of two-value domains.
    SearchOpts.Learning = false;
    SearchOpts.Restarts = false;
    relax::test::EnumerateSolver Enum(SearchOpts);

    VerifyReport S = verifyBoundedWith(P, SearchOpts);
    VerifyReport E = verifyWith(P, Enum);
    expectSameReports(S, E, Name, "search vs enumerate");
  }
}

// The configuration `--pipeline=bounded --bounded-steps=50000` runs, and
// the same with learning and restarts off. Learning skips candidates the
// blind scan must count, so it may decide an obligation inside a
// candidate budget the scan trips on (water's while-VC is the canonical
// case), but per pass it never changes the VC count, never flips a
// failed verdict, and never proves less. Water must exercise the
// machinery. (Bit-identity at equalized budgets is pinned above and by
// the property suite.) The learning leg is exactly what the session
// runs for that request, down to the rendered report.
TEST(BoundedCaseStudies, LearningOnlyAddsProofsUnderTheBoundedPipeline) {
  const char *Examples[] = {"swish.rlx",         "water.rlx",
                            "lu.rlx",            "task_skip.rlx",
                            "sampling.rlx",      "memoize.rlx",
                            "water_modular.rlx", "shared_callee.rlx"};
  size_t ProvedOn = 0, ProvedOff = 0;
  for (const char *Name : Examples) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);
    auto Run = [&](bool Learning, DischargeStats &Stats) {
      relax::test::ParsedProgram P = relax::test::parseProgram(Source);
      EXPECT_TRUE(P.ok()) << Name << ": " << P.diagnostics();
      Verifier::Options VO;
      VO.Portfolio = PortfolioOptions();
      VO.Portfolio->Tiers = {TierKind::Bounded};
      VO.Portfolio->Bounded.MaxQuantSteps = 50'000;
      VO.Portfolio->Bounded.Learning = Learning;
      VO.Portfolio->Bounded.Restarts = Learning;
      VO.StatsOut = &Stats;
      BoundedSolver Unused;
      Verifier V(*P.Ctx, *P.Prog, Unused, P.Diags);
      VerifyReport R = V.run(VO);
      return std::make_pair(R, renderReport(R, P.Ctx->symbols(), false));
    };
    DischargeStats OnStats, OffStats;
    auto [On, OnText] = Run(true, OnStats);
    VerifyReport Off = Run(false, OffStats).first;

    VerifyWireRequest Req;
    Req.FileName = Name;
    Req.Source = Source;
    Req.Pipeline = "bounded";
    Req.BoundedSteps = 50'000;
    EXPECT_EQ(runVerifyJob(Req, nullptr).Report, OnText) << Name;

    auto Compare = [&](const JudgmentReport &A, const JudgmentReport &B,
                       const char *Pass) {
      EXPECT_EQ(A.Outcomes.size(), B.Outcomes.size()) << Name << " " << Pass;
      EXPECT_EQ(A.count(VCStatus::Failed), B.count(VCStatus::Failed))
          << Name << " " << Pass;
      EXPECT_GE(A.count(VCStatus::Proved), B.count(VCStatus::Proved))
          << Name << " " << Pass << ": learning lost a proof";
      ProvedOn += A.count(VCStatus::Proved);
      ProvedOff += B.count(VCStatus::Proved);
    };
    Compare(On.Original, Off.Original, "|-o");
    Compare(On.Relaxed, Off.Relaxed, "|-r");
    if (std::string(Name) == "water.rlx") {
      EXPECT_GT(OnStats.Search.Conflicts, 0u);
      EXPECT_GT(OnStats.Search.LearnedNogoods, 0u);
    }
  }
  // The measured reason learning stays on: it proves strictly more.
  EXPECT_GT(ProvedOn, ProvedOff);
}
