//===- differential_tests.cpp - Differential semantics properties --------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// Properties relating the two dynamic semantics that follow directly from
// Figures 3 and 4:
//
//  * on relax-free programs, ⇓o and ⇓r coincide (they differ in exactly
//    one rule), checked over randomly generated programs;
//  * on any program whose relax statements the identity choice satisfies,
//    running ⇓r with the identity oracle reproduces the ⇓o outcome
//    (the original execution is one of the relaxed executions — the
//    containment the paper's `relax` rule in Figure 3 enforces).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "TestUtil.h"

#include "eval/Interp.h"
#include "support/Random.h"

using namespace relax;
using namespace relax::test;

namespace {

/// Generates random relax-free programs over x, y, z (straight-line code,
/// ifs, bounded loops, havoc-free so runs are deterministic).
class RandomProgramGen {
public:
  RandomProgramGen(AstContext &Ctx, uint64_t Seed) : Ctx(Ctx), Rng(Seed) {}

  Program generate() {
    Program P;
    for (const char *N : {"x", "y", "z"})
      P.declare(Ctx.sym(N), VarKind::Int);
    P.setBody(genBlock(3));
    return P;
  }

private:
  AstContext &Ctx;
  SplitMix64 Rng;

  const Expr *genExpr(unsigned Depth) {
    if (Depth == 0 || Rng.nextBool(1, 3))
      return Rng.nextBool() ? Ctx.intLit(Rng.nextInRange(-5, 5))
                            : Ctx.var(pickVar());
    BinaryOp Ops[] = {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul};
    return Ctx.binary(Ops[Rng.nextInRange(0, 2)], genExpr(Depth - 1),
                      genExpr(Depth - 1));
  }

  const BoolExpr *genCond() {
    CmpOp Ops[] = {CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne};
    return Ctx.cmp(Ops[Rng.nextInRange(0, 3)], genExpr(1), genExpr(1));
  }

  const char *pickVar() {
    const char *Names[] = {"x", "y", "z"};
    return Names[Rng.nextInRange(0, 2)];
  }

  const Stmt *genStmt(unsigned Depth) {
    switch (Rng.nextInRange(0, Depth == 0 ? 1 : 3)) {
    case 0:
      return Ctx.assign(pickVar(), genExpr(2));
    case 1:
      return Ctx.skip();
    case 2:
      return Ctx.ifStmt(genCond(), genBlock(Depth - 1), genBlock(Depth - 1));
    default: {
      // A loop guaranteed to terminate: counts y down to zero from a
      // clamped start.
      const Stmt *Clamp = Ctx.ifStmt(
          Ctx.gt(Ctx.var("y"), Ctx.intLit(6)),
          Ctx.assign("y", Ctx.intLit(6)), nullptr);
      const Stmt *Body = Ctx.seq(
          {genBlock(Depth - 1),
           Ctx.assign("y", Ctx.sub(Ctx.var("y"), Ctx.intLit(1)))});
      return Ctx.seq({Clamp, Ctx.whileStmt(Ctx.gt(Ctx.var("y"),
                                                  Ctx.intLit(0)),
                                           Body)});
    }
    }
  }

  const Stmt *genBlock(unsigned Depth) {
    std::vector<const Stmt *> Stmts;
    int64_t N = Rng.nextInRange(1, 3);
    for (int64_t I = 0; I != N; ++I)
      Stmts.push_back(genStmt(Depth));
    return Ctx.seq(Stmts);
  }
};

class DifferentialSemantics : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(DifferentialSemantics, RelaxFreeProgramsCoincide) {
  AstContext Ctx;
  RandomProgramGen Gen(Ctx, GetParam());
  SplitMix64 Rng(GetParam() * 31 + 7);
  for (int Iter = 0; Iter != 20; ++Iter) {
    Program P = Gen.generate();
    IdentityOracle O;
    Interp I(P, Ctx.symbols(), O, InterpOptions{100'000});
    State Init;
    for (const char *N : {"x", "y", "z"})
      Init[Ctx.sym(N)] = Value(Rng.nextInRange(-5, 5));

    Outcome Orig = I.run(SemanticsMode::Original, Init);
    Outcome Rel = I.run(SemanticsMode::Relaxed, Init);
    ASSERT_EQ(Orig.Kind, Rel.Kind);
    if (Orig.ok())
      EXPECT_EQ(Orig.FinalState, Rel.FinalState)
          << "relax-free programs must behave identically in ⇓o and ⇓r";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSemantics,
                         ::testing::Values(101, 102, 103, 104, 105));

//===----------------------------------------------------------------------===//
// Sequential vs --jobs=N verification on the shipped case studies
//===----------------------------------------------------------------------===//

namespace {

/// Per-obligation verdict fingerprint: (rule, status) in VC order.
std::vector<std::pair<std::string, VCStatus>>
verdictsOf(const JudgmentReport &J) {
  std::vector<std::pair<std::string, VCStatus>> Out;
  Out.reserve(J.Outcomes.size());
  for (const VCOutcome &O : J.Outcomes)
    Out.emplace_back(O.Condition.Rule, O.Status);
  return Out;
}

/// Verifies \p Source sequentially and on four slots and pins equal
/// verdicts; returns the four-slot run's discharge statistics.
DischargeStats expectJobsDifferential(const std::string &Source,
                                      const std::string &Name) {
  DischargeStats Stats;
  ParsedProgram P = parseProgram(Source);
  EXPECT_TRUE(P.ok()) << P.diagnostics();
  if (!P.ok())
    return Stats;

  // Sequential: one cached solver, Jobs = 1 (the default).
  Z3Solver SeqBackend(P.Ctx->symbols());
  CachingSolver SeqSolver(SeqBackend);
  Verifier SeqV(*P.Ctx, *P.Prog, SeqSolver, P.Diags);
  VerifyReport Seq = SeqV.run();

  // Parallel: the one-tier z3 pipeline on four slots, one Z3 backend
  // each, shared result cache.
  Z3Solver Unused(P.Ctx->symbols());
  Verifier ParV(*P.Ctx, *P.Prog, Unused, P.Diags);
  Verifier::Options ParOpts;
  ParOpts.Jobs = 4;
  ParOpts.Portfolio = PortfolioOptions();
  ParOpts.Portfolio->Tiers = {TierKind::Smt};
  ParOpts.SmtFactory = [&P] {
    return std::make_unique<Z3Solver>(P.Ctx->symbols());
  };
  ParOpts.StatsOut = &Stats;
  VerifyReport Par = ParV.run(ParOpts);

  EXPECT_EQ(Seq.verified(), Par.verified()) << Name;
  EXPECT_EQ(verdictsOf(Seq.Original), verdictsOf(Par.Original)) << Name;
  EXPECT_EQ(verdictsOf(Seq.Relaxed), verdictsOf(Par.Relaxed)) << Name;
  return Stats;
}

class ExampleJobsDifferential : public ::testing::TestWithParam<const char *> {
};

} // namespace

TEST_P(ExampleJobsDifferential, ParallelVerdictsMatchSequential) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, GetParam());
  expectJobsDifferential(Source, GetParam());
}

// No case study holds enough obligations in a pass to start four slots;
// the copies program starts all four in both passes, which is where
// slots can steal from each other.
TEST(ManyObligationJobsDifferential, ParallelVerdictsMatchSequential) {
  RELAXC_SKIP_WITHOUT_Z3();
  DischargeStats Stats = expectJobsDifferential(
      copiesProgram(ManyCopies), "copies program");
  EXPECT_EQ(Stats.PassSlots, (std::vector<unsigned>{4, 4}));
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, ExampleJobsDifferential,
                         ::testing::Values("swish.rlx", "water.rlx", "lu.rlx",
                                           "task_skip.rlx", "sampling.rlx",
                                           "memoize.rlx"),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           return N.substr(0, N.find('.'));
                         });

TEST(DifferentialSemantics, IdentityOracleReproducesOriginalExecution) {
  // The original execution is one of the relaxed executions: running ⇓r
  // with the identity choice gives the ⇓o behavior exactly.
  ParsedProgram P = parseProgram(
      "int x, acc, i;\n"
      "requires (x >= 0);\n"
      "{ i = 0; acc = 0;\n"
      "  while (i < 4) invariant (true) {\n"
      "    relax (acc) st (acc >= 0 || acc < 0);\n"
      "    acc = acc + x;\n"
      "    i = i + 1;\n"
      "  } }");
  ASSERT_TRUE(P.ok()) << P.diagnostics();
  State Init = Interp::zeroState(*P.Prog);
  Init[P.Ctx->sym("x")] = Value(int64_t(3));

  IdentityOracle O;
  Interp I(*P.Prog, P.Ctx->symbols(), O);
  Outcome Orig = I.run(SemanticsMode::Original, Init);
  Outcome Rel = I.run(SemanticsMode::Relaxed, Init);
  ASSERT_TRUE(Orig.ok());
  ASSERT_TRUE(Rel.ok());
  EXPECT_EQ(Orig.FinalState, Rel.FinalState);
  EXPECT_EQ(Orig.FinalState.at(P.Ctx->sym("acc")).asInt(), 12);
}
