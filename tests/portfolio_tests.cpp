//===- portfolio_tests.cpp - Tiered discharge pipeline tests -------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// The tiered portfolio is pinned six ways:
//
//  * tier-0 soundness: the simplify tier never settles a query with a
//    verdict the bounded search (or Z3) contradicts — in particular it
//    never "proves" a falsifiable VC (mutation corpus + random formulas);
//  * budget-trip determinism: the same query under the same quantifier-
//    step budget gives up at the same point, whether the search runs
//    sequentially or chunked across solver workers, and whether VCs are
//    discharged sequentially or by the work-stealing scheduler;
//  * tier-escalation correctness: on the six paper case studies the
//    pipeline's per-VC verdicts are identical to the plain Z3 backend's;
//  * checker/verifier agreement: the ProofChecker's re-discharge runs the
//    same portfolio through the same shared dischargeVC path;
//  * the rescue order: with the bounded tier behind the decision tier,
//    every verdict equals the cheapest-first order's, a failed
//    obligation prints the model its own query returned, that model
//    replays against the query, and neither the case studies nor their
//    mutants cost the search anything.
//  * one discharge path: at one job the backend sees every uncached
//    query once, in VC order, whether it is the caller's solver, a
//    one-tier pipeline, or behind a simplify prefix.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "TestUtil.h"

#include "solver/FormulaEval.h"
#include "solver/FormulaProgram.h"
#include "solver/Portfolio.h"
#include "support/Casting.h"
#include "support/Random.h"
#include "vcgen/ProofChecker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

using namespace relax;

namespace {

//===----------------------------------------------------------------------===//
// Pipeline spec parsing
//===----------------------------------------------------------------------===//

TEST(PipelineSpec, ParsesValidChains) {
  auto R = parsePipelineSpec("simplify,bounded,z3");
  ASSERT_TRUE(R.ok()) << R.message();
  ASSERT_EQ(R->size(), 3u);
  EXPECT_EQ((*R)[0], TierKind::Simplify);
  EXPECT_EQ((*R)[1], TierKind::Bounded);
  EXPECT_EQ((*R)[2], TierKind::Smt);
  EXPECT_EQ(formatPipeline(*R), "simplify,bounded,z3");

  EXPECT_TRUE(parsePipelineSpec("bounded").ok());
  EXPECT_TRUE(parsePipelineSpec("z3").ok());
  EXPECT_TRUE(parsePipelineSpec("simplify,z3").ok());

  // The shard tier composes anywhere a final tier may sit.
  EXPECT_TRUE(parsePipelineSpec("shard").ok());
  EXPECT_TRUE(parsePipelineSpec("bounded,shard").ok());
  EXPECT_TRUE(parsePipelineSpec("simplify,shard").ok());
  auto WithShard = parsePipelineSpec("simplify,bounded,shard");
  ASSERT_TRUE(WithShard.ok()) << WithShard.message();
  EXPECT_EQ(WithShard->back(), TierKind::Shard);
  EXPECT_EQ(formatPipeline(*WithShard), "simplify,bounded,shard");
}

TEST(PipelineSpec, RejectsInvalidChains) {
  EXPECT_FALSE(parsePipelineSpec("").ok());
  EXPECT_FALSE(parsePipelineSpec("bogus").ok());
  EXPECT_FALSE(parsePipelineSpec("bounded,simplify").ok()); // not first
  EXPECT_FALSE(parsePipelineSpec("bounded,bounded").ok());  // duplicate
  EXPECT_FALSE(parsePipelineSpec("z3,").ok());              // empty tier
}

TEST(PipelineSpec, RejectsMisorderedShardTier) {
  // `shard` before any in-process tier is an ordering error with the
  // same diagnostic style as the simplify-first rule: it names the tier
  // and explains the constraint.
  for (const char *Spec :
       {"shard,bounded", "shard,z3", "shard,simplify", "simplify,shard,z3",
        "bounded,shard,z3", "shard,shard"}) {
    auto R = parsePipelineSpec(Spec);
    ASSERT_FALSE(R.ok()) << Spec;
    EXPECT_NE(R.message().find("shard tier must come last"),
              std::string::npos)
        << Spec << " -> " << R.message();
  }
}

//===----------------------------------------------------------------------===//
// Executor step budget
//===----------------------------------------------------------------------===//

TEST(EvalBudget, TripsDeterministically) {
  AstContext Ctx;
  // exists k. x + k == 100 — false everywhere in the domain, so the
  // enumeration runs to exhaustion unless the budget trips first.
  const BoolExpr *F = Ctx.exists(
      Ctx.sym("k"), VarTag::Plain, VarKind::Int,
      Ctx.eq(Ctx.binary(BinaryOp::Add, Ctx.var("x"), Ctx.var("k")),
             Ctx.intLit(100)));
  std::shared_ptr<const FormulaProgram> P = FormulaProgram::compile(F);
  ASSERT_EQ(P->intInputs().size(), 1u);

  FormulaEvalOptions Opts; // quantifier domain: [-8, 8], 17 values
  int64_t X = 0;
  const ArrayModelValue *const *NoArrays = nullptr;

  // Unbudgeted: full enumeration, 17 steps counted.
  {
    FormulaProgram::Executor E(*P);
    EvalBudget B;
    EXPECT_FALSE(E.run(&X, NoArrays, Opts, &B));
    EXPECT_FALSE(B.Tripped);
    EXPECT_EQ(B.Steps, 17u);
  }
  // Budget of 5: trips, and at the same point on every run.
  for (int Round = 0; Round != 3; ++Round) {
    FormulaProgram::Executor E(*P);
    EvalBudget B;
    B.MaxSteps = 5;
    E.run(&X, NoArrays, Opts, &B);
    EXPECT_TRUE(B.Tripped);
    EXPECT_EQ(B.Steps, 6u); // the charge that exceeded the budget
  }
}

TEST(EvalBudget, BoundedSolverReportsStepBudgetTrips) {
  AstContext Ctx;
  // Two nested quantifiers over a free variable: each conjunct check
  // enumerates up to 13x13 bodies at the bounded solver's domains.
  const BoolExpr *Body = Ctx.eq(
      Ctx.binary(BinaryOp::Add, Ctx.var("x"),
                 Ctx.binary(BinaryOp::Add, Ctx.var("k"), Ctx.var("j"))),
      Ctx.intLit(1000));
  const BoolExpr *F = Ctx.exists(
      Ctx.sym("k"), VarTag::Plain, VarKind::Int,
      Ctx.exists(Ctx.sym("j"), VarTag::Plain, VarKind::Int, Body));

  BoundedSolverOptions O;
  O.MaxQuantSteps = 40;
  BoundedSolver S(O, &Ctx);
  auto R = S.checkSat({F});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, SatResult::Unknown);
  EXPECT_EQ(S.lastStop(), BoundedSolver::StopReason::StepBudget);
  EXPECT_GT(S.quantStepsEvaluated(), 0u);
}

TEST(EvalBudget, SearchTripIsIndependentOfSolverJobs) {
  // Same query + same budget => same give-up verdict and reason, whether
  // the top variable's domain is chunked across workers or not.
  for (uint64_t Budget : {1u, 7u, 50u, 1000u}) {
    AstContext Ctx;
    const BoolExpr *Quant = Ctx.exists(
        Ctx.sym("k"), VarTag::Plain, VarKind::Int,
        Ctx.eq(Ctx.binary(BinaryOp::Add, Ctx.var("x"), Ctx.var("k")),
               Ctx.var("y")));
    // A second conjunct keeps the search honest (two-variable order).
    const BoolExpr *F =
        Ctx.andExpr(Quant, Ctx.le(Ctx.var("x"), Ctx.var("y")));

    auto RunWith = [&](unsigned Jobs) {
      BoundedSolverOptions O;
      O.MaxQuantSteps = Budget;
      O.Jobs = Jobs;
      BoundedSolver S(O, &Ctx);
      auto R = S.checkSat({F});
      EXPECT_TRUE(R.ok());
      return std::make_pair(*R, S.lastStop());
    };
    auto Seq = RunWith(1);
    auto Par = RunWith(4);
    EXPECT_EQ(Seq.first, Par.first) << "budget " << Budget;
    EXPECT_EQ(Seq.second, Par.second) << "budget " << Budget;
  }
}

//===----------------------------------------------------------------------===//
// Tier-0 (simplify) soundness
//===----------------------------------------------------------------------===//

/// Random formulas over two scalars, nesting every connective (the
/// bounded_differential_tests generator, minus arrays: the tier-0 pin
/// cross-checks against full bounded search, which arrays slow down).
class ScalarFormulaGen {
public:
  ScalarFormulaGen(AstContext &Ctx, uint64_t Seed) : Ctx(Ctx), Rng(Seed) {}

  const Expr *genTerm(unsigned Depth) {
    if (Depth == 0 || Rng.nextBool(1, 2)) {
      switch (Rng.nextInRange(0, 2)) {
      case 0:
        return Ctx.intLit(Rng.nextInRange(-4, 4));
      case 1:
        return Ctx.var("x");
      default:
        return Ctx.var("y");
      }
    }
    BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul};
    return Ctx.binary(Ops[Rng.nextInRange(0, 2)], genTerm(Depth - 1),
                      genTerm(Depth - 1));
  }

  const BoolExpr *genFormula(unsigned Depth) {
    if (Depth == 0 || Rng.nextBool(1, 3)) {
      CmpOp Ops[] = {CmpOp::Lt, CmpOp::Le, CmpOp::Gt,
                     CmpOp::Ge, CmpOp::Eq, CmpOp::Ne};
      return Ctx.cmp(Ops[Rng.nextInRange(0, 5)], genTerm(1), genTerm(1));
    }
    if (Rng.nextBool(1, 5))
      return Ctx.notExpr(genFormula(Depth - 1));
    LogicalOp Ops[] = {LogicalOp::And, LogicalOp::Or, LogicalOp::Implies,
                       LogicalOp::Iff};
    return Ctx.logical(Ops[Rng.nextInRange(0, 3)], genFormula(Depth - 1),
                       genFormula(Depth - 1));
  }

private:
  AstContext &Ctx;
  SplitMix64 Rng;
};

TEST(TierZeroSoundness, SimplifySettlementsAgreeWithBoundedSearch) {
  AstContext Ctx;
  PortfolioOptions PO;
  PO.Tiers = {TierKind::Simplify};
  PortfolioSolver Tier0(Ctx, PO);
  BoundedSolver Bounded(BoundedSolverOptions(), &Ctx);
  ScalarFormulaGen Gen(Ctx, 20260730);
  Printer P(Ctx.symbols());

  unsigned Settled = 0;
  for (int Iter = 0; Iter != 300; ++Iter) {
    const BoolExpr *F = Gen.genFormula(3);
    auto R0 = Tier0.checkSat({F});
    ASSERT_TRUE(R0.ok());
    if (!Tier0.lastSettled())
      continue; // did not fold to a constant; nothing claimed
    ++Settled;
    // simplify is equivalence-preserving, so a constant verdict must
    // agree with exhaustive search over any domain.
    auto RB = Bounded.checkSat({F});
    ASSERT_TRUE(RB.ok());
    EXPECT_EQ(*R0, *RB) << P.print(F);
  }
  // The corpus must actually exercise the settling path.
  EXPECT_GT(Settled, 0u);
}

TEST(TierZeroSoundness, NeverProvesAFalsifiableVC) {
  // Programs whose proof obligations include a falsifiable VC: tier 0
  // alone must leave every such obligation unsettled (Unknown) or
  // correctly Failed — never Proved. Every Proved verdict it does emit
  // is cross-checked against the bounded backend through the same
  // dischargeVC path the verifier uses.
  const char *Mutants[] = {
      "int x; requires (x == 1); ensures (x == 3); { x = x + 1; }",
      "int x; requires (x >= 0 && x <= 2); { assert x <= 1; }",
      "int x; requires (x == 0); { relax (x) st (x >= 5 && x <= 4); }",
      "int x, y; requires (x == y); ensures (x != y); { skip; }",
  };
  for (const char *Source : Mutants) {
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << P.diagnostics();

    PortfolioOptions PO;
    PO.Tiers = {TierKind::Simplify};
    BoundedSolver Dummy; // portfolio mode never consults the ctor solver
    Verifier V(*P.Ctx, *P.Prog, Dummy, P.Diags);
    Verifier::Options VO;
    VO.Portfolio = PO;
    VerifyReport R = V.run(VO);
    EXPECT_FALSE(R.verified()) << Source;

    BoundedSolver Check(BoundedSolverOptions(), P.Ctx.get());
    auto Audit = [&](const JudgmentReport &J) {
      for (const VCOutcome &O : J.Outcomes) {
        if (O.Status != VCStatus::Proved)
          continue;
        VCOutcome Re = dischargeVC(O.Condition,
                                   vcQuery(*P.Ctx, O.Condition), Check,
                                   P.Ctx->symbols(), nullptr);
        EXPECT_EQ(Re.Status, VCStatus::Proved)
            << Source << ": tier 0 proved a VC the bounded backend "
            << "rejects (" << O.Condition.Rule << ")";
      }
    };
    Audit(R.Original);
    Audit(R.Relaxed);
  }
}

//===----------------------------------------------------------------------===//
// Scheduler determinism and tier escalation
//===----------------------------------------------------------------------===//

const char *CaseStudies[] = {"swish.rlx",     "water.rlx",    "lu.rlx",
                             "task_skip.rlx", "sampling.rlx", "memoize.rlx"};

/// Compares the determinism-pinned outcome fields (Status, Detail, and
/// the obligation identity). SettledBy/Trail/Millis are schedule- and
/// timing-dependent by design and deliberately excluded.
void expectIdenticalReports(const VerifyReport &A, const VerifyReport &B,
                            const char *Name) {
  auto Compare = [&](const JudgmentReport &X, const JudgmentReport &Y,
                     const char *Pass) {
    ASSERT_EQ(X.Outcomes.size(), Y.Outcomes.size()) << Name << " " << Pass;
    for (size_t I = 0; I != X.Outcomes.size(); ++I) {
      EXPECT_EQ(X.Outcomes[I].Condition.Id, Y.Outcomes[I].Condition.Id)
          << Name << " " << Pass << " VC #" << I;
      EXPECT_EQ(X.Outcomes[I].Condition.Rule, Y.Outcomes[I].Condition.Rule)
          << Name << " " << Pass << " VC #" << I;
      EXPECT_EQ(X.Outcomes[I].Status, Y.Outcomes[I].Status)
          << Name << " " << Pass << " VC #" << I << " ("
          << X.Outcomes[I].Condition.Rule << ")";
      EXPECT_EQ(X.Outcomes[I].Detail, Y.Outcomes[I].Detail)
          << Name << " " << Pass << " VC #" << I;
    }
  };
  Compare(A.Original, B.Original, "|-o");
  Compare(A.Relaxed, B.Relaxed, "|-r");
}

/// A Z3-free pipeline config over shrunk domains and tight budgets, so
/// undecidable obligations give up fast (Unknown-vs-Unknown pins
/// determinism exactly as well as Proved-vs-Proved). The Smt tier has
/// no backend factory, so it degrades to bounded-at-full-domain —
/// which means the budgeted bounded tier still runs behind it, on its
/// unknowns, even in Z3-off builds.
PortfolioOptions shrunkBoundedPipeline() {
  PortfolioOptions PO;
  PO.Tiers = {TierKind::Simplify, TierKind::Bounded, TierKind::Smt};
  PO.Bounded.MaxCandidates = 500;
  PO.Bounded.MaxQuantSteps = 2'000;
  PO.Bounded.IntLo = -2;
  PO.Bounded.IntHi = 2;
  PO.Bounded.MaxArrayLen = 1;
  PO.Bounded.ArrayElemLo = -1;
  PO.Bounded.ArrayElemHi = 1;
  return PO;
}

/// The case studies, by name and source, plus the copies program, the
/// one input whose passes start all four slots; empty when a case study
/// is missing from the checkout.
std::vector<std::pair<std::string, std::string>> schedulerInputs() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const char *Name : relax::test::CaseStudies) {
    std::optional<std::string> Source = relax::test::slurpExample(Name);
    if (!Source)
      return {};
    Out.emplace_back(Name, *Source);
  }
  Out.emplace_back("copies program",
                   relax::test::copiesProgram(relax::test::ManyCopies));
  return Out;
}

TEST(PortfolioScheduler, SequentialAndWorkStealingDischargeIdentically) {
  auto Inputs = schedulerInputs();
  if (Inputs.empty())
    GTEST_SKIP() << "case studies not found";
  for (const auto &[Name, Source] : Inputs) {
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();

    DischargeStats Stats;
    auto RunWith = [&](unsigned Jobs) {
      BoundedSolver Dummy;
      DiagnosticEngine Diags;
      Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
      Verifier::Options VO;
      VO.Portfolio = shrunkBoundedPipeline();
      VO.Jobs = Jobs;
      VO.StatsOut = Jobs == 1 ? nullptr : &Stats;
      return V.run(VO);
    };
    VerifyReport Seq = RunWith(1);
    VerifyReport Par = RunWith(4);
    expectIdenticalReports(Seq, Par, Name.c_str());
    if (&Name == &Inputs.back().first)
      EXPECT_EQ(Stats.PassSlots, (std::vector<unsigned>{4, 4}));
  }
}

TEST(PortfolioScheduler, SlotsFollowThePendingObligations) {
  // --jobs=N caps the slots: a pass with P obligations pending after the
  // prepare stage starts min(N, 1 + (P - 1) / ObligationsPerSlot) slots,
  // none when P = 0. Without a simplify prefix there is no prepare stage,
  // so every obligation of a pass is pending: 3 * K + 2 of them in each
  // pass of the copies program (8, 11, 17 and 26 at K = 2, 3, 5, 8).
  auto Slots = [](unsigned Jobs, size_t Pending) -> unsigned {
    return Pending == 0 ? 0
                        : static_cast<unsigned>(std::min<size_t>(
                              Jobs, 1 + (Pending - 1) / ObligationsPerSlot));
  };
  for (unsigned K : {0u, 2u, 3u, 5u, 7u, 8u, 12u}) {
    relax::test::ParsedProgram P =
        relax::test::parseProgram(relax::test::copiesProgram(K));
    ASSERT_TRUE(P.ok()) << P.diagnostics();
    for (unsigned Jobs : {1u, 2u, 3u, 4u, 6u}) {
      BoundedSolver Dummy;
      DiagnosticEngine Diags;
      Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
      Verifier::Options VO;
      VO.Portfolio = shrunkBoundedPipeline();
      VO.Portfolio->Tiers = {TierKind::Bounded};
      VO.Jobs = Jobs;
      DischargeStats Stats;
      VO.StatsOut = &Stats;
      VerifyReport R = V.run(VO);
      EXPECT_TRUE(R.verified()) << "K=" << K;
      size_t Original = R.Original.Outcomes.size();
      size_t Relaxed = R.Relaxed.Outcomes.size();
      EXPECT_EQ(Original, 3 * K + 2) << "K=" << K;
      EXPECT_EQ(Relaxed, 3 * K + 2) << "K=" << K;
      EXPECT_EQ(Stats.PassSlots,
                (std::vector<unsigned>{Slots(Jobs, Original),
                                       Slots(Jobs, Relaxed)}))
          << "K=" << K << " --jobs=" << Jobs;
    }
  }

  // A pass the prepare stage settles whole starts no slot: the simplify
  // tier settles the |-o postcondition `true`, and the |-r one is the
  // same query, a shared-cache hit.
  relax::test::ParsedProgram P =
      relax::test::parseProgram("int x;\n{ skip; }\n");
  ASSERT_TRUE(P.ok()) << P.diagnostics();
  BoundedSolver Dummy;
  DiagnosticEngine Diags;
  Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
  Verifier::Options VO;
  VO.Portfolio = shrunkBoundedPipeline();
  VO.Jobs = 4;
  DischargeStats Stats;
  VO.StatsOut = &Stats;
  EXPECT_TRUE(V.run(VO).verified());
  EXPECT_EQ(Stats.PassSlots, (std::vector<unsigned>{0, 0}));
}

TEST(PortfolioScheduler, PipelineVerdictsMatchPlainZ3OnCaseStudies) {
  RELAXC_SKIP_WITHOUT_Z3();
  for (const char *Name : CaseStudies) {
    RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name);

    // Plain Z3 (the PR 3 baseline path).
    VerifyReport Base = relax::test::verifySource(Source);

    // The full pipeline, sequential and work-stealing.
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();
    DischargeStats Stats;
    auto RunWith = [&](unsigned Jobs) {
      BoundedSolver Dummy;
      DiagnosticEngine Diags;
      Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
      Verifier::Options VO;
      VO.Portfolio = PortfolioOptions(); // simplify,bounded,z3 defaults
      VO.SmtFactory = [&P] {
        return std::make_unique<Z3Solver>(P.Ctx->symbols());
      };
      VO.Jobs = Jobs;
      VO.StatsOut = &Stats;
      return V.run(VO);
    };
    VerifyReport Seq = RunWith(1);
    VerifyReport Par = RunWith(4);

    // Tier escalation must not change any verdict vs the plain backend.
    ASSERT_EQ(Base.totalVCs(), Seq.totalVCs()) << Name;
    EXPECT_EQ(Base.verified(), Seq.verified()) << Name;
    expectIdenticalReports(Base, Seq, Name);
    expectIdenticalReports(Seq, Par, Name);

    // Escalation bookkeeping: every query was settled by some tier.
    uint64_t Settled = 0;
    for (const auto &T : Stats.Portfolio.Tiers)
      Settled += T.Settled;
    EXPECT_GE(Settled + Stats.SharedCacheHits, Stats.Portfolio.Queries)
        << Name;
  }
}

/// Every obligation of both judgment passes of \p P, in report order,
/// paired with its solver query.
std::vector<std::pair<VC, const BoolExpr *>>
passQueries(relax::test::ParsedProgram &P) {
  std::vector<std::pair<VC, const BoolExpr *>> Out;
  DiagnosticEngine Diags;
  std::optional<SemaInfo> Info = Sema(*P.Prog, Diags).run();
  EXPECT_TRUE(Info.has_value()) << Diags.render();
  if (!Info)
    return Out;
  for (JudgmentKind Pass : {JudgmentKind::Original, JudgmentKind::Relaxed}) {
    VCSet Set = Verifier::passVCs(*P.Ctx, *P.Prog, *Info, Pass, Diags,
                                  VCGenOptions());
    for (const VC &C : Set.VCs)
      Out.emplace_back(C, vcQuery(*P.Ctx, C));
  }
  return Out;
}

TEST(PortfolioScheduler, QuantifiedCorpusDischargesWithBudgetTrips) {
  // water.rlx carries quantified relational VCs (havoc/relax freshening
  // introduces existentials): at full domains the bounded tier would
  // enumerate quantifier bodies unbudgeted, which is exactly the hang
  // the per-query step budget retires. Run alone under a tight budget,
  // the tier must give up, at the same point on every run.
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "water.rlx");
  relax::test::ParsedProgram P = relax::test::parseProgram(Source);
  ASSERT_TRUE(P.ok()) << P.diagnostics();
  std::vector<std::pair<VC, const BoolExpr *>> Queries = passQueries(P);
  ASSERT_FALSE(Queries.empty());

  PortfolioOptions PO; // simplify,bounded,z3
  PO.Bounded.MaxQuantSteps = 1'000;
  auto BoundedAlone = [&] {
    PortfolioSolver Port(*P.Ctx, PO);
    std::string Trails;
    for (const auto &[C, Q] : Queries) {
      auto R = Port.checkRange(1, 2, {Q}, nullptr, nullptr);
      EXPECT_TRUE(R.ok()) << R.message();
      Trails += Port.giveUpTrail() + "\n";
    }
    EXPECT_GT(Port.stats().Tiers[1].BudgetTrips, 0u)
        << "the budgeted bounded tier should trip on quantified VCs";
    EXPECT_GT(Port.boundedQuantSteps(), 0u);
    return std::make_pair(Port.stats().Tiers[1].BudgetTrips, Trails);
  };
  EXPECT_EQ(BoundedAlone(), BoundedAlone());

  // In the pipeline the bounded tier runs behind Z3, which settles every
  // obligation the simplify tier leaves: the search never runs.
  if (!relax::test::haveZ3())
    return;
  BoundedSolver Dummy;
  DiagnosticEngine Diags;
  Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
  Verifier::Options VO;
  VO.Portfolio = PO;
  VO.SmtFactory = [&P] {
    return std::make_unique<Z3Solver>(P.Ctx->symbols());
  };
  DischargeStats Stats;
  VO.StatsOut = &Stats;
  VerifyReport R = V.run(VO);

  EXPECT_TRUE(R.verified());
  ASSERT_EQ(Stats.Portfolio.Tiers.size(), 3u);
  EXPECT_GT(Stats.Portfolio.Tiers[0].GaveUp, 0u);
  EXPECT_EQ(Stats.Portfolio.Tiers[2].Settled,
            Stats.Portfolio.Tiers[0].GaveUp);
  EXPECT_EQ(Stats.Portfolio.Tiers[2].GaveUp, 0u);
  EXPECT_EQ(Stats.Portfolio.Tiers[1].Settled + Stats.Portfolio.Tiers[1].GaveUp,
            0u);
  EXPECT_EQ(Stats.BoundedQuantSteps, 0u);
}

//===----------------------------------------------------------------------===//
// One discharge path: what the backend sees at one job
//===----------------------------------------------------------------------===//

/// A backend that answers through the bounded search and logs every call,
/// in order, as "check <query>" or "model <query>".
class RecordingSolver : public Solver {
public:
  RecordingSolver(AstContext &Ctx, std::vector<std::string> &Log)
      : Inner(BoundedSolverOptions(), &Ctx), Print(Ctx.symbols()), Log(Log) {}

  const char *name() const override { return "recording"; }

  Result<SatResult>
  checkSat(const std::vector<const BoolExpr *> &Formulas) override {
    Log.push_back("check " + text(Formulas));
    return Inner.checkSat(Formulas);
  }

  Result<SatResult>
  checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                    const VarRefSet &Vars, Model &ModelOut) override {
    Log.push_back("model " + text(Formulas));
    return Inner.checkSatWithModel(Formulas, Vars, ModelOut);
  }

private:
  std::string text(const std::vector<const BoolExpr *> &Formulas) {
    std::string Out;
    for (const BoolExpr *F : Formulas)
      Out += Print.print(F) + ";";
    return Out;
  }

  BoundedSolver Inner;
  Printer Print;
  std::vector<std::string> &Log;
};

TEST(OneDischargePath, BackendSeesEveryQueryInVCOrderAtOneJob) {
  AstContext Ctx;
  const Expr *X = Ctx.var("x"), *Y = Ctx.var("y"), *Z = Ctx.var("z");
  // Validity obligations no simplifier folds: B holds, the rest fail.
  // E fails too, but the simplify tier settles it.
  const BoolExpr *A = Ctx.lt(X, Y);
  const BoolExpr *B = Ctx.ge(Ctx.mul(X, X), Ctx.intLit(0));
  const BoolExpr *C = Ctx.lt(Y, Z);
  const BoolExpr *D = Ctx.lt(Z, X);
  const BoolExpr *E = Ctx.falseExpr();
  // A repeats within the first pass; C, E, A and B repeat across passes.
  const std::vector<const BoolExpr *> Passes[] = {{A, B, A, E, C},
                                                  {C, D, E, A, B}};
  auto SetOf = [](const std::vector<const BoolExpr *> &Formulas) {
    VCSet Set;
    for (const BoolExpr *F : Formulas) {
      VC V;
      V.Formula = F;
      V.Rule = "assert";
      V.Id = static_cast<uint32_t>(Set.VCs.size());
      Set.VCs.push_back(V);
    }
    return Set;
  };

  // The same backend as the caller's solver, as a one-tier pipeline, and
  // behind a simplify prefix, whose prepare stage must not reach it.
  Printer Print(Ctx.symbols());
  std::vector<std::string> CallerDetails;
  for (const char *Spec : {"", "z3", "simplify,z3"}) {
    // Each query the cache has not seen, once, in VC order: a validity
    // query asks for its model, which is a failed one's counterexample.
    // A repeat is a cache hit that carries that counterexample and
    // queries nothing. E behind the simplify prefix never reaches the
    // backend: the prefix settles it and its counterexample alike.
    bool Simplify = std::strncmp(Spec, "simplify", 8) == 0;
    std::vector<std::string> Want;
    std::set<const BoolExpr *> Seen;
    for (const std::vector<const BoolExpr *> &Pass : Passes)
      for (const BoolExpr *F : Pass)
        if ((F != E || !Simplify) && Seen.insert(F).second)
          Want.push_back("model " + Print.print(Ctx.notExpr(F)) + ";");

    std::vector<std::string> Log;
    RecordingSolver Caller(Ctx, Log);
    DischargeScheduler::Config Cfg;
    if (*Spec) {
      Cfg.Portfolio = PortfolioOptions();
      Cfg.Portfolio->Tiers = *parsePipelineSpec(Spec);
      Cfg.SmtFactory = [&] {
        return std::make_unique<RecordingSolver>(Ctx, Log);
      };
    }
    DischargeScheduler Sched(Ctx, std::move(Cfg));
    std::vector<std::string> Details;
    for (const std::vector<const BoolExpr *> &Pass : Passes) {
      JudgmentReport Report;
      Sched.discharge(SetOf(Pass), Report, Caller);
      ASSERT_EQ(Report.Outcomes.size(), Pass.size()) << Spec;
      for (size_t I = 0; I != Pass.size(); ++I) {
        EXPECT_EQ(Report.Outcomes[I].Status,
                  Pass[I] == B ? VCStatus::Proved : VCStatus::Failed)
            << "pipeline '" << Spec << "' VC #" << I;
        Details.push_back(Report.Outcomes[I].Detail);
      }
    }
    EXPECT_EQ(Log, Want) << "pipeline '" << Spec << "'";
    if (!*Spec)
      CallerDetails = Details;
    EXPECT_EQ(Details, CallerDetails) << "pipeline '" << Spec << "'";
  }
}

//===----------------------------------------------------------------------===//
// The bounded tier behind the decision tier
//===----------------------------------------------------------------------===//

/// An e with `x == e` or `e == x` among the conjuncts of \p B (looking
/// through nested existentials that neither rebind x nor bind a
/// variable of e), x not free in e; null if there is none.
const Expr *definitionOf(const BoolExpr *B, const VarRef &X) {
  if (const auto *L = dyn_cast<LogicalExpr>(B)) {
    if (L->op() != LogicalOp::And)
      return nullptr;
    const Expr *D = definitionOf(L->lhs(), X);
    return D ? D : definitionOf(L->rhs(), X);
  }
  if (const auto *E = dyn_cast<ExistsExpr>(B)) {
    VarRef Bound{E->var(), E->tag(), E->varKind()};
    if (Bound == X)
      return nullptr;
    const Expr *D = definitionOf(E->body(), X);
    return D && !freeVars(D).count(Bound) ? D : nullptr;
  }
  const auto *C = dyn_cast<CmpExpr>(B);
  if (!C || C->op() != CmpOp::Eq)
    return nullptr;
  auto IsX = [&](const Expr *E) {
    const auto *V = dyn_cast<VarExpr>(E);
    return V && V->name() == X.Name && V->tag() == X.Tag;
  };
  if (IsX(C->lhs()) && !freeVars(C->rhs()).count(X))
    return C->rhs();
  if (IsX(C->rhs()) && !freeVars(C->lhs()).count(X))
    return C->lhs();
  return nullptr;
}

/// Rewrites every `exists x . B` whose body defines x (definitionOf) to
/// B[x := e]. The rewrite is an equivalence over Z, and it removes the
/// existentials havoc and relax freshening introduce, whose witnesses
/// may lie outside evalFormula's quantifier domain and whose nesting
/// makes its enumeration exponential.
const BoolExpr *eliminateOnePoint(AstContext &Ctx, const BoolExpr *B) {
  if (const auto *N = dyn_cast<NotExpr>(B))
    return Ctx.notExpr(eliminateOnePoint(Ctx, N->sub()));
  if (const auto *L = dyn_cast<LogicalExpr>(B))
    return Ctx.logical(L->op(), eliminateOnePoint(Ctx, L->lhs()),
                       eliminateOnePoint(Ctx, L->rhs()));
  const auto *E = dyn_cast<ExistsExpr>(B);
  if (!E)
    return B;
  const BoolExpr *Body = eliminateOnePoint(Ctx, E->body());
  if (E->varKind() == VarKind::Int)
    if (const Expr *D =
            definitionOf(Body, VarRef{E->var(), E->tag(), VarKind::Int})) {
      Subst S;
      S.mapVar(E->var(), E->tag(), D);
      return substitute(Ctx, Body, S);
    }
  return Ctx.exists(E->var(), E->tag(), E->varKind(), Body);
}

TEST(RescueOrder, ChangesNoVerdictAndEveryCounterexampleReplays) {
  RELAXC_SKIP_WITHOUT_Z3();
  auto Corpus = relax::test::mixedCorpus();
  if (!Corpus)
    GTEST_SKIP() << "case studies not found";

  size_t Failed = 0;
  for (const auto &[Name, Source] : *Corpus) {
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();
    const Interner &Syms = P.Ctx->symbols();
    auto Z3 = [&Syms] { return std::make_unique<Z3Solver>(Syms); };
    // New discharges each obligation; Twin asks the same queries in the
    // same order, so its Z3 history, and so its models, equal New's.
    PortfolioSolver New(*P.Ctx, PortfolioOptions(), Z3);
    PortfolioSolver Twin(*P.Ctx, PortfolioOptions(), Z3);
    PortfolioSolver Old(*P.Ctx, PortfolioOptions(), Z3);
    for (const auto &[C, Q] : passQueries(P)) {
      std::string Tag = Name + " " + C.Rule + " #" + std::to_string(C.Id);
      std::vector<const BoolExpr *> F{Q};
      // The old order, one tier at a time: simplify, bounded, z3.
      Result<SatResult> OldR = SatResult::Unknown;
      for (size_t Tier = 0; Tier != Old.tierCount(); ++Tier) {
        OldR = Old.checkRange(Tier, Tier + 1, F, nullptr, nullptr);
        if (!OldR.ok() || Old.lastSettled())
          break;
      }
      bool Validity = C.Kind == VCKind::Validity;
      VarRefSet Vars = freeVars(C.Formula);
      Model Cex;
      Result<SatResult> NewR = Validity ? Twin.checkSatWithModel(F, Vars, Cex)
                                        : Twin.checkSat(F);
      VCOutcome Out = dischargeVC(C, Q, New, Syms, nullptr);
      ASSERT_TRUE(OldR.ok() && NewR.ok()) << Tag;
      EXPECT_EQ(*NewR, *OldR) << Tag;
      if (!Validity || *NewR != SatResult::Sat)
        continue;

      // A failed obligation prints the model its own query returned, and
      // that model falsifies the obligation.
      ++Failed;
      EXPECT_EQ(Out.Status, VCStatus::Failed) << Tag;
      EXPECT_EQ(Out.Detail, "counterexample: " + formatModel(Syms, Cex))
          << Tag;
      EXPECT_TRUE(evalFormula(eliminateOnePoint(*P.Ctx, Q), Cex))
          << Tag << ": " << formatModel(Syms, Cex);
    }
  }
  EXPECT_GT(Failed, 0u);
}

TEST(RescueOrder, CaseStudiesSpendNoBoundedCandidates) {
  // Neither the case studies nor their mutants reach the bounded tier:
  // Z3 settles every obligation the simplify tier leaves, and a failed
  // one's counterexample is the model of that same Z3 query. A mutant
  // fails as many obligations as under the plain Z3 backend.
  RELAXC_SKIP_WITHOUT_Z3();
  std::vector<std::pair<std::string, std::optional<std::string>>> Inputs;
  for (const char *Name : relax::test::CaseStudies)
    Inputs.emplace_back(Name, relax::test::slurpExample(Name));
  for (const relax::test::Mutation &M : relax::test::ExampleMutants)
    Inputs.emplace_back(relax::test::mutantName(M),
                        relax::test::mutantSource(M));
  for (size_t I = 0; I != Inputs.size(); ++I) {
    const auto &[Name, Source] = Inputs[I];
    bool Mutant = I >= std::size(relax::test::CaseStudies);
    if (!Source)
      GTEST_SKIP() << Name << " not found";
    relax::test::ParsedProgram P = relax::test::parseProgram(*Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();
    auto Z3 = [&P] { return std::make_unique<Z3Solver>(P.Ctx->symbols()); };
    auto Failed = [](const VerifyReport &R) {
      return R.Original.count(VCStatus::Failed) +
             R.Relaxed.count(VCStatus::Failed);
    };
    DiagnosticEngine Diags;
    std::unique_ptr<Solver> Plain = Z3();
    size_t PlainFailed = Failed(Verifier(*P.Ctx, *P.Prog, *Plain, Diags).run());
    EXPECT_EQ(PlainFailed > 0, Mutant) << Name;
    for (unsigned Jobs : {1u, 4u}) {
      BoundedSolver Dummy;
      Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
      Verifier::Options VO;
      VO.Portfolio = PortfolioOptions(); // simplify,bounded,z3
      VO.SmtFactory = Z3;
      VO.Jobs = Jobs;
      DischargeStats Stats;
      VO.StatsOut = &Stats;
      VerifyReport R = V.run(VO);
      EXPECT_EQ(R.verified(), !Mutant) << Name;
      EXPECT_EQ(Failed(R), PlainFailed) << Name << " --jobs=" << Jobs;
      EXPECT_EQ(Stats.BoundedCandidates, 0u) << Name << " --jobs=" << Jobs;
    }
  }
}

TEST(RescueOrder, WorkerBackendsCountEachQueryOnceAcrossPasses) {
  // One scheduler runs both passes at Jobs = 4 and keeps its worker
  // backends between them; their statistics must still count every
  // query once. The Z3-free pipeline keeps this running without Z3. The
  // copies program is the input whose passes start all four slots.
  auto Inputs = schedulerInputs();
  if (Inputs.empty())
    GTEST_SKIP() << "case studies not found";
  for (const auto &[Name, Source] : Inputs) {
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.diagnostics();
    BoundedSolver Dummy;
    DiagnosticEngine Diags;
    Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
    Verifier::Options VO;
    VO.Portfolio = shrunkBoundedPipeline();
    VO.Jobs = 4;
    DischargeStats Stats;
    VO.StatsOut = &Stats;
    VerifyReport R = V.run(VO);
    ASSERT_GT(R.Original.Outcomes.size(), 0u) << Name;
    ASSERT_GT(R.Relaxed.Outcomes.size(), 0u) << Name;
    uint64_t Obligations = R.totalVCs();
    const PortfolioStats &PS = Stats.Portfolio;
    ASSERT_EQ(PS.Tiers.size(), 3u);
    EXPECT_GT(PS.Queries, 0u) << Name;
    EXPECT_LE(PS.Queries, Obligations) << Name;
    EXPECT_EQ(PS.Tiers[0].Settled + PS.Tiers[0].GaveUp, PS.Queries) << Name;
    EXPECT_LE(PS.Tiers[2].Settled + PS.Tiers[2].GaveUp, PS.Tiers[0].GaveUp)
        << Name;
    EXPECT_EQ(Stats.EscalatedObligations, 0u) << Name;
    if (&Name == &Inputs.back().first)
      EXPECT_EQ(Stats.PassSlots, (std::vector<unsigned>{4, 4}));
  }
}

//===----------------------------------------------------------------------===//
// ProofChecker runs the same portfolio
//===----------------------------------------------------------------------===//

TEST(PortfolioProofChecker, ReDischargeAgreesWithVerifier) {
  // The checker's re-discharge goes through the shared dischargeVC path
  // on whatever solver it holds — here the same tier chain the verifier
  // ran, so the two cannot disagree on backend semantics.
  const char *Source =
      "int x; requires (x >= 0 && x <= 2); ensures (x <= 3); "
      "{ x = x + 1; relax (x) st (x >= 0 && x <= 3); assert x >= 0; }";
  relax::test::ParsedProgram P = relax::test::parseProgram(Source);
  ASSERT_TRUE(P.ok()) << P.diagnostics();
  Sema SemaPass(*P.Prog, P.Diags);
  ASSERT_TRUE(SemaPass.run().has_value());

  PortfolioOptions PO;
  PO.Tiers = {TierKind::Simplify, TierKind::Bounded};
  PortfolioSolver Port(*P.Ctx, PO);

  const BoolExpr *Pre = P.Prog->requiresClause();
  const BoolExpr *Post = P.Prog->ensuresClause();
  UnaryVCGen Gen(*P.Ctx, *P.Prog, JudgmentKind::Original, P.Diags);
  Gen.genTriple(Pre, P.Prog->body(), Post);
  VCSet Set = Gen.take();
  ASSERT_FALSE(Set.VCs.empty());

  ProofChecker Checker(*P.Ctx, *P.Prog, Port);
  ProofCheckReport Report = Checker.check(Set);
  EXPECT_TRUE(Report.ok()) << (Report.Violations.empty()
                                   ? ""
                                   : Report.Violations.front().Detail);
  EXPECT_GT(Report.StepsChecked, 0u);
  // The checker actually exercised the portfolio.
  EXPECT_GT(Port.stats().Queries, 0u);
}

//===----------------------------------------------------------------------===//
// Provenance
//===----------------------------------------------------------------------===//

TEST(VCProvenance, IdsAreDenseAndOriginsPopulated) {
  // No ensures clause: the consequence obligation is `SP ==> true`,
  // which the simplifier folds to ⊤ — so at least one VC carries a
  // nonzero simplify trace id.
  const char *Source =
      "int x; requires (x == 0); "
      "{ x = x + 1; assert x > 0; while (x < 3) invariant (x >= 1) "
      "{ x = x + 1; } }";
  relax::test::ParsedProgram P = relax::test::parseProgram(Source);
  ASSERT_TRUE(P.ok()) << P.diagnostics();
  Sema SemaPass(*P.Prog, P.Diags);
  ASSERT_TRUE(SemaPass.run().has_value());

  UnaryVCGen Gen(*P.Ctx, *P.Prog, JudgmentKind::Original, P.Diags);
  Gen.genTriple(P.Prog->requiresClause(), P.Prog->body(),
                P.Ctx->trueExpr());
  VCSet Set = Gen.take();
  ASSERT_GT(Set.VCs.size(), 2u);

  bool SawOrigin = false, SawTrace = false;
  for (size_t I = 0; I != Set.VCs.size(); ++I) {
    EXPECT_EQ(Set.VCs[I].Id, static_cast<uint32_t>(I)) << "dense ids";
    SawOrigin |= Set.VCs[I].Origin != nullptr;
    SawTrace |= Set.VCs[I].SimplifyTraceId != 0;
  }
  EXPECT_TRUE(SawOrigin);
  EXPECT_TRUE(SawTrace);
  // The whole-triple consequence obligation has no single origin.
  EXPECT_EQ(Set.VCs.back().Rule, "consequence");
  EXPECT_EQ(Set.VCs.back().Origin, nullptr);
}

TEST(VCProvenance, AppendRenumbersDivergeSubDerivations) {
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "swish.rlx");
  relax::test::ParsedProgram P = relax::test::parseProgram(Source);
  ASSERT_TRUE(P.ok()) << P.diagnostics();
  Sema SemaPass(*P.Prog, P.Diags);
  ASSERT_TRUE(SemaPass.run().has_value());

  DiagnosticEngine Diags;
  BoundedSolver Dummy;
  Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
  RelationalVCGen Gen(*P.Ctx, *P.Prog, P.Diags);
  Gen.genTriple(V.effectiveRelRequires(), P.Prog->body(),
                P.Prog->relEnsuresClause() ? P.Prog->relEnsuresClause()
                                           : P.Ctx->trueExpr());
  VCSet Set = Gen.take();
  ASSERT_GT(Set.VCs.size(), 0u);
  // swish uses the diverge rule, so the set contains spliced |-o / |-i
  // sub-derivations; append must have renumbered them densely.
  bool SawSubJudgment = false;
  for (size_t I = 0; I != Set.VCs.size(); ++I) {
    EXPECT_EQ(Set.VCs[I].Id, static_cast<uint32_t>(I));
    SawSubJudgment |= Set.VCs[I].Judgment != JudgmentKind::Relaxed;
  }
  EXPECT_TRUE(SawSubJudgment);
}

} // namespace
