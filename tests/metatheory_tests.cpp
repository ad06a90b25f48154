//===- metatheory_tests.cpp - Empirical validation of Section 4 ---------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// The paper proves its metatheorems in Coq; a C++ reproduction cannot
// machine-check them, so this suite validates them *as executable
// properties*: for every verified program we run many original/relaxed
// execution pairs from solver-drawn random initial states and check the
// statement of each theorem on every run. Deliberately unverifiable
// programs demonstrate that the checks can fail (the properties are not
// vacuous).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "TestUtil.h"

#include "eval/PairRunner.h"
#include "sema/Sema.h"

using namespace relax;
using namespace relax::test;

namespace {

struct TheoremStats {
  unsigned Pairs = 0;
  unsigned Stuck = 0;
  unsigned OrigWr = 0;
  unsigned OrigBa = 0;
  unsigned RelWr = 0;
  unsigned RelBa = 0;
  unsigned BothOkIncompatible = 0;
  /// err(rel) while the original run terminated without violating an
  /// assumption — forbidden by Corollary 9.
  unsigned RelErrWithCleanOrig = 0;
};

/// Runs \p Pairs original/relaxed pairs of \p Source from random initial
/// states and tallies the outcomes the theorems speak about.
TheoremStats runPairs(const std::string &Source, unsigned Pairs,
                      size_t ArrayLen = 5) {
  TheoremStats Stats;
  ParsedProgram P = parseProgram(Source);
  EXPECT_TRUE(P.ok()) << P.diagnostics();
  if (!P.ok())
    return Stats;
  DiagnosticEngine D;
  Sema S(*P.Prog, D);
  auto Info = S.run();
  EXPECT_TRUE(Info.has_value()) << D.render();
  if (!Info)
    return Stats;
  RelateMap Gamma(Info->relateMap().begin(), Info->relateMap().end());
  Z3Solver Backend(P.Ctx->symbols());
  PairRunner Runner(*P.Prog, P.Ctx->symbols(), Gamma);

  for (unsigned I = 0; I != Pairs; ++I) {
    Result<State> Init =
        randomInitialState(*P.Ctx, *P.Prog, Backend, 1000 + I, ArrayLen);
    if (!Init.ok()) {
      ++Stats.Stuck;
      continue;
    }
    SolverOracle::Options OO;
    OO.Seed = 17 * I + 1;
    SolverOracle OrigOracle(*P.Ctx, Backend, OO);
    SolverOracle::Options RO;
    RO.Seed = 31 * I + 7;
    SolverOracle RelOracle(*P.Ctx, Backend, RO);
    PairOutcome O = Runner.run(*Init, OrigOracle, RelOracle);
    if (O.Orig.Kind == OutcomeKind::Stuck ||
        O.Rel.Kind == OutcomeKind::Stuck) {
      ++Stats.Stuck;
      continue;
    }
    ++Stats.Pairs;
    Stats.OrigWr += O.Orig.Kind == OutcomeKind::Wr;
    Stats.OrigBa += O.Orig.Kind == OutcomeKind::Ba;
    Stats.RelWr += O.Rel.Kind == OutcomeKind::Wr;
    Stats.RelBa += O.Rel.Kind == OutcomeKind::Ba;
    if (O.Orig.ok() && O.Rel.ok() && !O.Compat.Compatible)
      ++Stats.BothOkIncompatible;
    if (O.relErred() && O.Orig.Kind != OutcomeKind::Ba)
      ++Stats.RelErrWithCleanOrig;
  }
  return Stats;
}

/// Asserts the full bundle of guarantees for a doubly-verified program:
/// Lemma 2, Theorem 6, Theorem 7, Theorem 8, and Corollary 9.
void expectTheoremsHold(const std::string &Source, unsigned Pairs,
                        size_t ArrayLen = 5) {
  VerifyReport R = verifySource(Source);
  ASSERT_TRUE(R.verified()) << "program must verify first";
  TheoremStats S = runPairs(Source, Pairs, ArrayLen);
  EXPECT_GT(S.Pairs, Pairs / 2) << "too many stuck runs to be meaningful";
  // Lemma 2 (Original Progress Modulo Assumptions): no original wr.
  EXPECT_EQ(S.OrigWr, 0u);
  // Theorem 8 (Relaxed Progress): no relaxed wr or ba unless the original
  // violated an assumption; Corollary 9 pins the direction.
  EXPECT_EQ(S.RelErrWithCleanOrig, 0u);
  // Theorem 6 (Soundness of Relational Assertions): all successful pairs
  // observationally compatible.
  EXPECT_EQ(S.BothOkIncompatible, 0u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Every case study satisfies every theorem dynamically
//===----------------------------------------------------------------------===//

namespace {

class ExampleTheorems : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(ExampleTheorems, AllFiveGuaranteesHold) {
  RELAXC_SKIP_WITHOUT_Z3();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, GetParam());
  expectTheoremsHold(Source, 12);
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, ExampleTheorems,
                         ::testing::ValuesIn(CaseStudies),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           return N.substr(0, N.find('.'));
                         });

//===----------------------------------------------------------------------===//
// Smaller verified programs, one per interesting construct
//===----------------------------------------------------------------------===//

TEST(Metatheory, VerifiedRelaxWithAssertTransfer) {
  RELAXC_SKIP_WITHOUT_Z3();
  expectTheoremsHold(
      "int x; requires (x > 0 && x < 100);\n"
      "{ relax (x) st (x > 0); assert x > 0; relate l : x<o> > 0 && x<r> > 0; }",
      16);
}

TEST(Metatheory, VerifiedAssumePropagation) {
  RELAXC_SKIP_WITHOUT_Z3();
  expectTheoremsHold("int x, y;\n"
                     "requires (y >= 0 && y <= 20);\n"
                     "{ assume x > 2; relax (y) st (y >= 0); "
                     "assert x > 2; }",
                     16);
}

TEST(Metatheory, VerifiedDivergentLoop) {
  RELAXC_SKIP_WITHOUT_Z3();
  expectTheoremsHold(
      "int i, n;\n"
      "requires (n >= 0 && n <= 8 && i == 0);\n"
      "{ relax (i) st (i >= 0 && i <= 8);\n"
      "  while (i < n)\n"
      "    invariant (i <= n)\n"
      "    iinvariant (i >= 0)\n"
      "    diverge pre_orig (i == 0 && n >= 0) pre_rel (i >= 0 && n >= 0)\n"
      "            post_orig (i <= n) post_rel (i >= 0)\n"
      "  { i = i + 1; } }",
      12);
}

TEST(Metatheory, VerifiedCaseAnalysis) {
  RELAXC_SKIP_WITHOUT_Z3();
  expectTheoremsHold(
      "int a, max, orig, e;\n"
      "requires (e >= 0 && e <= 4 && a >= -20 && a <= 20 "
      "&& max >= -20 && max <= 20);\n"
      "{ orig = a;\n"
      "  relax (a) st (orig - e <= a && a <= orig + e);\n"
      "  if (a > max)\n"
      "    diverge cases\n"
      "  { max = a; }\n"
      "  relate l : max<o> - max<r> <= e<o> && max<r> - max<o> <= e<o>; }",
      16);
}

//===----------------------------------------------------------------------===//
// Assumptions: ba is allowed originally, and errors trace back to it
//===----------------------------------------------------------------------===//

TEST(Metatheory, OriginalMayViolateAssumptions) {
  RELAXC_SKIP_WITHOUT_Z3();
  // The assume fails for some inputs: original executions end in ba — which
  // Lemma 2 permits — and relaxed errors only occur alongside original ba
  // (Corollary 9).
  std::string Source = "int x;\n"
                       "requires (x >= 0 && x <= 10);\n"
                       "{ assume x < 5; assert x < 5; }";
  VerifyReport R = verifySource(Source);
  ASSERT_TRUE(R.verified());
  TheoremStats S = runPairs(Source, 20);
  EXPECT_EQ(S.OrigWr, 0u) << "Lemma 2";
  EXPECT_GT(S.OrigBa, 0u) << "some inputs must violate the assumption";
  EXPECT_EQ(S.RelErrWithCleanOrig, 0u) << "Corollary 9";
}

//===----------------------------------------------------------------------===//
// Negative controls: unverified programs break the properties
//===----------------------------------------------------------------------===//

TEST(MetatheoryNegative, UnverifiedAssertBreaksRelaxedProgress) {
  RELAXC_SKIP_WITHOUT_Z3();
  // Does NOT verify: the relaxation interferes with the assert.
  std::string Source = "int x;\n"
                       "requires (x >= 0 && x <= 10);\n"
                       "{ relax (x) st (x >= 0 - 5); assert x >= 0; }";
  VerifyReport R = verifySource(Source);
  ASSERT_FALSE(R.verified());
  TheoremStats S = runPairs(Source, 20);
  EXPECT_EQ(S.OrigWr, 0u) << "the original execution is fine";
  EXPECT_GT(S.RelErrWithCleanOrig, 0u)
      << "without verification the relaxed execution can crash";
}

TEST(MetatheoryNegative, UnverifiedRelateBreaksCompatibility) {
  RELAXC_SKIP_WITHOUT_Z3();
  std::string Source =
      "int x;\n"
      "requires (x >= 0 && x <= 10);\n"
      "{ relax (x) st (x >= 0 && x <= 50); relate l : x<o> == x<r>; }";
  VerifyReport R = verifySource(Source);
  ASSERT_FALSE(R.verified());
  TheoremStats S = runPairs(Source, 20);
  EXPECT_GT(S.BothOkIncompatible, 0u)
      << "the dynamic compatibility checker must expose the violation";
}

TEST(MetatheoryNegative, UnverifiedAssumeBreaksDebuggability) {
  RELAXC_SKIP_WITHOUT_Z3();
  // The relaxation invalidates an assumption that holds originally: the
  // relaxed execution fails in a way the original cannot reproduce —
  // exactly the debugging hazard Section 1.4 describes.
  std::string Source = "int x;\n"
                       "requires (x == 3);\n"
                       "{ relax (x) st (x >= 0); assume x == 3; }";
  VerifyReport R = verifySource(Source);
  ASSERT_FALSE(R.verified());
  TheoremStats S = runPairs(Source, 20);
  EXPECT_EQ(S.OrigBa, 0u);
  EXPECT_GT(S.RelBa, 0u);
  EXPECT_GT(S.RelErrWithCleanOrig, 0u);
}
