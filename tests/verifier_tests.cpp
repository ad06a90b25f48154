//===- verifier_tests.cpp - End-to-end verification tests ----------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// Verifies the paper's three case studies from their .rlx sources, plus
// deliberately broken variants (failure injection) to show the verifier
// rejects them for the right reason.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "TestUtil.h"

#include "solver/BoundedSolver.h"

#include <chrono>

using namespace relax;
using namespace relax::test;

namespace {

/// Applies a textual mutation and expects verification to fail.
void expectMutationFails(const std::string &Source, const std::string &From,
                         const std::string &To) {
  std::string Mutated = Source;
  size_t Pos = Mutated.find(From);
  ASSERT_NE(Pos, std::string::npos) << "mutation anchor not found: " << From;
  Mutated.replace(Pos, From.size(), To);
  VerifyReport R = verifySource(Mutated);
  EXPECT_FALSE(R.verified()) << "mutation should break verification: "
                             << From << " -> " << To;
}

} // namespace

//===----------------------------------------------------------------------===//
// The paper's case studies (Section 5)
//===----------------------------------------------------------------------===//

TEST(Examples, SwishVerifies) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "swish.rlx");
  VerifyReport R = verifySource(Source);
  EXPECT_TRUE(R.verified());
  EXPECT_TRUE(R.Original.allProved());
  EXPECT_TRUE(R.Relaxed.allProved());
  EXPECT_GE(R.totalVCs(), 10u);
}

TEST(Examples, WaterVerifies) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "water.rlx");
  VerifyReport R = verifySource(Source);
  EXPECT_TRUE(R.verified());
}

TEST(Examples, LuVerifies) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "lu.rlx");
  VerifyReport R = verifySource(Source);
  EXPECT_TRUE(R.verified());
}

TEST(Examples, TaskSkipVerifies) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "task_skip.rlx");
  VerifyReport R = verifySource(Source);
  EXPECT_TRUE(R.verified());
}

TEST(Examples, SamplingVerifies) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "sampling.rlx");
  VerifyReport R = verifySource(Source);
  EXPECT_TRUE(R.verified());
}

TEST(Examples, MemoizeVerifies) {
  RELAXC_SKIP_WITHOUT_Z3();
  // Nonlinear arithmetic (x * x): the slowest of the example proofs.
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "memoize.rlx");
  VerifyReport R = verifySource(Source);
  EXPECT_TRUE(R.verified());
}

//===----------------------------------------------------------------------===//
// Failure injection on the case studies
//===----------------------------------------------------------------------===//

TEST(ExamplesMutated, SwishWeakenedRelaxationFails) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "swish.rlx");
  // Allowing the threshold to drop below 10 breaks the acceptability
  // property (this is the annotation bug the verifier caught during
  // development of this repository).
  expectMutationFails(Source, "10 <= max_r));", "9 <= max_r));");
}

TEST(ExamplesMutated, SwishStrongerRelateFails) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "swish.rlx");
  expectMutationFails(Source, "10 <= num_r<o> && 10 <= num_r<r>",
                      "10 <= num_r<o> && 11 <= num_r<r>");
}

TEST(ExamplesMutated, WaterWithoutAssumeFails) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "water.rlx");
  // Dropping the lockstep assume removes the bridge that lets the bound
  // transfer into the divergent branch.
  expectMutationFails(Source, "assume (K < len_FF);\n    if",
                      "skip;\n    if");
}

TEST(ExamplesMutated, WaterWeakerRequiresFails) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "water.rlx");
  expectMutationFails(Source, "requires (N >= 0 && N <= len(RS)",
                      "requires (N >= 0 && N - 1 <= len(RS)");
}

TEST(ExamplesMutated, LuTighterRelateFails) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "lu.rlx");
  expectMutationFails(Source, "relate lipschitz : max<o> - max<r> <= e<o>",
                      "relate lipschitz : max<o> - max<r> <= e<o> - 1");
}

TEST(ExamplesMutated, LuWiderRelaxationFails) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "lu.rlx");
  expectMutationFails(
      Source, "relax (a) st (original_a - e <= a && a <= original_a + e)",
      "relax (a) st (original_a - 2 * e <= a && a <= original_a + 2 * e)");
}

//===----------------------------------------------------------------------===//
// Report contents
//===----------------------------------------------------------------------===//

TEST(Report, RenderNamesJudgmentsAndVerdict) {
  RELAXC_SKIP_WITHOUT_Z3();
  ParsedProgram P = parseProgram("int x; requires (x > 0); "
                                 "{ assert x > 0; }");
  VerifyReport R = verifyParsed(P);
  std::string Text = renderReport(R, P.Ctx->symbols());
  EXPECT_NE(Text.find("|-o"), std::string::npos);
  EXPECT_NE(Text.find("|-r"), std::string::npos);
  EXPECT_NE(Text.find("VERIFIED"), std::string::npos);
}

TEST(Report, FailedVCsIncludeRuleAndFormula) {
  RELAXC_SKIP_WITHOUT_Z3();
  ParsedProgram P = parseProgram("int x; { assert x > 0; }");
  ASSERT_TRUE(P.ok());
  Z3Solver Backend(P.Ctx->symbols());
  Verifier V(*P.Ctx, *P.Prog, Backend, P.Diags);
  VerifyReport R = V.run();
  EXPECT_FALSE(R.verified());
  std::string Text = renderReport(R, P.Ctx->symbols());
  EXPECT_NE(Text.find("[failed]"), std::string::npos);
  EXPECT_NE(Text.find("assert"), std::string::npos);
  EXPECT_NE(Text.find("NOT VERIFIED"), std::string::npos);
}

TEST(Report, VerboseListsEverything) {
  RELAXC_SKIP_WITHOUT_Z3();
  ParsedProgram P = parseProgram("int x; requires (x > 0); "
                                 "{ assert x > 0; }");
  VerifyReport R = verifyParsed(P);
  std::string Brief = renderReport(R, P.Ctx->symbols(), false);
  std::string Verbose = renderReport(R, P.Ctx->symbols(), true);
  EXPECT_GT(Verbose.size(), Brief.size());
}

TEST(Report, TimingIsPopulated) {
  RELAXC_SKIP_WITHOUT_Z3();
  VerifyReport R = verifySource("int x; { x = 1; assert x == 1; }");
  EXPECT_GT(R.Original.TotalMillis, 0.0);
  EXPECT_GT(R.Relaxed.TotalMillis, 0.0);

  // A pass's time is its wall time. On four slots the obligations' own
  // times overlap (each slot builds its Z3 context on its first query),
  // so their sum would exceed the run's wall time. The copies program
  // holds enough obligations in each pass to start all four.
  ParsedProgram P = parseProgram(copiesProgram(ManyCopies));
  ASSERT_TRUE(P.ok()) << P.diagnostics();
  BoundedSolver Unused;
  Verifier V(*P.Ctx, *P.Prog, Unused, P.Diags);
  Verifier::Options VO;
  VO.Jobs = 4;
  VO.Portfolio = PortfolioOptions();
  VO.Portfolio->Tiers = {TierKind::Smt};
  VO.SmtFactory = [&P] {
    return std::make_unique<Z3Solver>(P.Ctx->symbols());
  };
  DischargeStats Stats;
  VO.StatsOut = &Stats;
  auto Start = std::chrono::steady_clock::now();
  VerifyReport W = V.run(VO);
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  EXPECT_TRUE(W.verified());
  EXPECT_EQ(Stats.PassSlots, (std::vector<unsigned>{4, 4}));
  EXPECT_GT(W.Original.TotalMillis, 0.0);
  EXPECT_GT(W.Relaxed.TotalMillis, 0.0);
  EXPECT_LE(W.Original.TotalMillis + W.Relaxed.TotalMillis, WallMs);
}

//===----------------------------------------------------------------------===//
// Verifier options
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Modular case studies and the summary-reuse pin
//===----------------------------------------------------------------------===//

TEST(Examples, WaterModularVerifies) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "water_modular.rlx");
  VerifyReport R = verifySource(Source);
  EXPECT_TRUE(R.verified());
  EXPECT_TRUE(R.Original.allProved());
  EXPECT_TRUE(R.Relaxed.allProved());
}

TEST(Examples, SharedCalleeVerifies) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "shared_callee.rlx");
  VerifyReport R = verifySource(Source);
  EXPECT_TRUE(R.verified());
  EXPECT_TRUE(R.Original.allProved());
  EXPECT_TRUE(R.Relaxed.allProved());
}

TEST(ExamplesMutated, SharedCalleeWeakerBumpContractFails) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, "shared_callee.rlx");
  // Dropping bump's nonnegativity promise starves every call site: the
  // caller's assert and relate depend on the summary, not the body.
  expectMutationFails(Source, "rensures (0 <= x<o> && 0 <= x<r>);",
                      "rensures (true);");
}

namespace {

/// Counts report obligations attributed to procedure \p Name (the
/// verifier stamps VC::Proc; "" is the implicit entry).
size_t procVCs(const JudgmentReport &J, const std::string &Name) {
  size_t N = 0;
  for (const VCOutcome &O : J.Outcomes)
    if (O.Condition.Proc == Name)
      ++N;
  return N;
}

} // namespace

// The heart of modular verification: a callee's body obligations are
// generated once, no matter how many call sites it has. Tripling the
// call count must leave f's VC count untouched and grow only main's
// (one summary instantiation per site).
TEST(ModularVCs, CalleeBodyVCsAreIndependentOfCallSiteCount) {
  const char *Header = "int x;\n"
                       "proc f() modifies (x)\n"
                       "  requires (x >= 0); ensures (x >= 1);\n"
                       "  rrequires (x<o> >= 0 && x<r> >= 0);\n"
                       "  rensures (x<o> >= 1 && x<r> >= 1);\n"
                       "{ x = x + 1; if (x > 100) { x = 100; } else "
                       "{ skip; } }\n"
                       "proc main() requires (x == 0);\n";
  std::string Once = std::string(Header) + "{ call f(); }";
  std::string Thrice = std::string(Header) + "{ call f(); call f(); call f(); }";

  auto Gen = [](const std::string &Source) {
    ParsedProgram P = parseProgram(Source);
    EXPECT_TRUE(P.ok()) << P.diagnostics();
    BoundedSolver Backend;
    Verifier V(*P.Ctx, *P.Prog, Backend, P.Diags);
    return V.run();
  };
  VerifyReport R1 = Gen(Once);
  VerifyReport R3 = Gen(Thrice);

  size_t FOnce = procVCs(R1.Original, "f") + procVCs(R1.Relaxed, "f");
  size_t FThrice = procVCs(R3.Original, "f") + procVCs(R3.Relaxed, "f");
  EXPECT_GT(FOnce, 0u) << "f's summary obligations must be attributed to f";
  EXPECT_EQ(FOnce, FThrice)
      << "the callee's body VCs must be generated exactly once, not per call";

  // Each extra call site costs exactly the summary instantiation (the
  // callee-requires obligation per judgment), charged to the caller.
  size_t MainOnce = procVCs(R1.Original, "main") + procVCs(R1.Relaxed, "main");
  size_t MainThrice =
      procVCs(R3.Original, "main") + procVCs(R3.Relaxed, "main");
  EXPECT_EQ(MainThrice - MainOnce, 4u)
      << "two extra calls: one |-o and one |-r requires-check each";
}

TEST(VerifierOptions, OriginalOnlySkipsRelaxedPass) {
  RELAXC_SKIP_WITHOUT_Z3();
  ParsedProgram P = parseProgram(
      "int x; requires (x == 0); { relax (x) st (true); assert x == 0; }");
  ASSERT_TRUE(P.ok());
  Z3Solver Backend(P.Ctx->symbols());
  Verifier V(*P.Ctx, *P.Prog, Backend, P.Diags);
  Verifier::Options Opts;
  Opts.RunRelaxed = false;
  VerifyReport R = V.run(Opts);
  EXPECT_TRUE(R.Original.allProved()) << "x == 0 holds originally";
  EXPECT_TRUE(R.Relaxed.Outcomes.empty());
  EXPECT_TRUE(R.verified()) << "with the relaxed pass disabled";
}

TEST(VerifierOptions, EffectiveRelRequiresDefaultsToIdentity) {
  ParsedProgram P = parseProgram("int x; array A; requires (x > 0); "
                                 "{ skip; }");
  ASSERT_TRUE(P.ok());
  Z3Solver Backend(P.Ctx->symbols());
  Verifier V(*P.Ctx, *P.Prog, Backend, P.Diags);
  Printer Pr(P.Ctx->symbols());
  std::string Text = Pr.print(V.effectiveRelRequires());
  EXPECT_NE(Text.find("x<o> == x<r>"), std::string::npos);
  EXPECT_NE(Text.find("A<o> == A<r>"), std::string::npos);
  EXPECT_NE(Text.find("x<o> > 0"), std::string::npos);
  EXPECT_NE(Text.find("x<r> > 0"), std::string::npos);
}

TEST(VerifierOptions, ExplicitRelRequiresWins) {
  ParsedProgram P = parseProgram(
      "int x; rrequires (x<o> <= x<r>); { skip; }");
  ASSERT_TRUE(P.ok());
  Z3Solver Backend(P.Ctx->symbols());
  Verifier V(*P.Ctx, *P.Prog, Backend, P.Diags);
  Printer Pr(P.Ctx->symbols());
  EXPECT_EQ(Pr.print(V.effectiveRelRequires()), "x<o> <= x<r>");
}

TEST(VerifierOptions, BoundedBackendVerifiesSmallPrograms) {
  ParsedProgram P = parseProgram(
      "int x; requires (x >= 0 && x <= 3); ensures (x <= 4); "
      "{ x = x + 1; }");
  ASSERT_TRUE(P.ok());
  BoundedSolver Backend;
  Verifier V(*P.Ctx, *P.Prog, Backend, P.Diags);
  VerifyReport R = V.run();
  EXPECT_TRUE(R.verified()) << renderReport(R, P.Ctx->symbols());
}

TEST(VerifierOptions, SemaFailureShortCircuits) {
  ParsedProgram P = parseProgram("int x; { relate l : x == 1; }");
  ASSERT_TRUE(P.ok()) << "parses fine; sema rejects";
  Z3Solver Backend(P.Ctx->symbols());
  Verifier V(*P.Ctx, *P.Prog, Backend, P.Diags);
  VerifyReport R = V.run();
  EXPECT_FALSE(R.SemaOk);
  EXPECT_FALSE(R.verified());
  EXPECT_EQ(R.totalVCs(), 0u);
}
