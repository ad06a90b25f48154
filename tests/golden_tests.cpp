//===- golden_tests.cpp - Golden-file round trips for the case studies --------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// Pins the pretty-printed form of every shipped case study to a golden
// file under tests/golden/, and checks that re-parsing the printed form
// in the same AstContext reproduces the program exactly: every formula is
// pointer-equal (hash-consing interns structurally identical nodes once)
// and the statement tree is structurally identical. A printer or parser
// change that alters the surface form — or loses an annotation on the way
// through — fails here first, with a byte diff against the golden.
//
// Regenerate a golden after an intentional change with:
//   relaxc print examples/programs/<name>.rlx > tests/golden/<name>.golden
//
// Also pins every case study's printed obligations, the output of
// `relaxc dump-vcs`, to tests/golden/<name>.vcs. An obligation's
// persistent-cache key is its printed text (fresh names such as x'7
// included), so a VC-generation change that alters it cold-starts every
// --cache-dir and every daemon cache. Regenerate after an intentional
// change with:
//   relaxc dump-vcs examples/programs/<name>.rlx > tests/golden/<name>.vcs
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ast/Structural.h"
#include "support/Subprocess.h"

#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace relax;
using namespace relax::test;

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(RELAXC_GOLDEN_DIR) + "/" + Name;
}

/// The contents of golden file \p Name, or nullopt when it is missing.
std::optional<std::string> slurpGolden(const std::string &Name) {
  std::ifstream In(goldenPath(Name));
  if (!In.good())
    return std::nullopt;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The standard output of `relaxc dump-vcs <Path>`.
std::string dumpVcs(const std::string &Path) {
  Subprocess P;
  Status S = P.spawn(driverPath(), {"dump-vcs", Path}, /*MergeStderr=*/false);
  EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.message());
  if (!S.ok())
    return std::string();
  P.closeStdin();
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(P.readFd(), Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  EXPECT_EQ(P.waitForExit(), 0) << "relaxc dump-vcs " << Path;
  return Out;
}

class GoldenRoundTrip : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(GoldenRoundTrip, PrintReparsePointerEqualAndMatchesGolden) {
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, std::string(GetParam()) + ".rlx");

  ParsedProgram P1 = parseProgram(Source);
  ASSERT_TRUE(P1.ok()) << P1.diagnostics();
  Printer Pr(P1.Ctx->symbols());
  std::string Printed = Pr.print(*P1.Prog);

  // The printed form is pinned byte-for-byte.
  std::optional<std::string> Golden =
      slurpGolden(std::string(GetParam()) + ".golden");
  if (!Golden)
    GTEST_SKIP() << "golden file not found: "
                 << goldenPath(std::string(GetParam()) + ".golden");
  EXPECT_EQ(*Golden, Printed)
      << "printer output changed for " << GetParam()
      << "; if intentional, regenerate with `relaxc print`";

  // Re-parse the printed form in the SAME context: hash-consing must
  // reproduce every formula as the identical node, so contract clauses
  // compare pointer-equal, and the statement tree (not interned, but built
  // over interned formulas) must be structurally identical.
  SourceManager SM2;
  SM2.setBuffer("<printed>", Printed);
  DiagnosticEngine D2;
  Parser Reparse(*P1.Ctx, SM2, D2);
  std::optional<Program> P2 = Reparse.parseProgram();
  ASSERT_TRUE(P2.has_value() && !D2.hasErrors())
      << "printed form failed to re-parse:\n"
      << Printed << D2.render();

  EXPECT_EQ(P1.Prog->requiresClause(), P2->requiresClause())
      << "hash-consing must intern the re-parsed requires clause";
  EXPECT_EQ(P1.Prog->ensuresClause(), P2->ensuresClause());
  EXPECT_EQ(P1.Prog->relRequiresClause(), P2->relRequiresClause());
  EXPECT_EQ(P1.Prog->relEnsuresClause(), P2->relEnsuresClause());
  EXPECT_TRUE(structurallyEqual(*P1.Prog, *P2));
  EXPECT_EQ(structuralHash(*P1.Prog), structuralHash(*P2));

  // Printing is a fixpoint: the re-parse prints back to the golden.
  EXPECT_EQ(Printed, Pr.print(*P2));
}

TEST_P(GoldenRoundTrip, DumpedObligationsMatchGolden) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  std::string Name = GetParam();
  RELAXC_SLURP_EXAMPLE_OR_SKIP(Source, Name + ".rlx");
  std::optional<std::string> Golden = slurpGolden(Name + ".vcs");
  if (!Golden)
    GTEST_SKIP() << "golden file not found: " << goldenPath(Name + ".vcs");
  EXPECT_EQ(*Golden, dumpVcs(examplePath(Name + ".rlx")))
      << "printed obligations changed for " << Name
      << "; if intentional, regenerate with `relaxc dump-vcs`";
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, GoldenRoundTrip,
                         ::testing::Values("swish", "water", "lu",
                                           "task_skip", "sampling",
                                           "memoize", "water_modular",
                                           "shared_callee"));

//===----------------------------------------------------------------------===//
// Module-printing shape
//===----------------------------------------------------------------------===//

// A bare-body program must keep printing in the legacy single-body shape:
// no `proc` keyword, contracts at top level. The shard wire format and the
// persistent-cache key are both derived from the printed form, so any drift
// here silently invalidates caches and splits shard verdicts.
TEST(ModulePrinting, LegacySingleBodyShapeIsPreserved) {
  const char *Legacy = "int x;\n"
                       "\n"
                       "requires (x >= 0);\n"
                       "ensures (x >= 1);\n"
                       "\n"
                       "{\n"
                       "  x = x + 1;\n"
                       "}";
  ParsedProgram P = parseProgram(Legacy);
  ASSERT_TRUE(P.ok()) << P.diagnostics();
  ASSERT_FALSE(P.Prog->isExplicitModule());
  Printer Pr(P.Ctx->symbols());
  std::string Printed = Pr.print(*P.Prog);
  EXPECT_EQ(Printed.find("proc"), std::string::npos)
      << "implicit main must not print a proc header:\n"
      << Printed;
  EXPECT_NE(Printed.find("requires (x >= 0);"), std::string::npos);
}

// An explicit module round-trips every per-procedure contract clause and
// the modifies frame through print → parse.
TEST(ModulePrinting, ExplicitModuleRoundTripsContracts) {
  const char *Module = "int x;\n"
                       "proc f(int a)\n"
                       "  modifies (x)\n"
                       "  requires (a >= 0);\n"
                       "  ensures (x >= a);\n"
                       "  rrequires (a<o> == a<r>);\n"
                       "  rensures (x<o> == x<r>);\n"
                       "{ x = a; }\n"
                       "proc main() { call f(3); }";
  ParsedProgram P1 = parseProgram(Module);
  ASSERT_TRUE(P1.ok()) << P1.diagnostics();
  ASSERT_TRUE(P1.Prog->isExplicitModule());
  Printer Pr(P1.Ctx->symbols());
  std::string Printed = Pr.print(*P1.Prog);

  SourceManager SM2;
  SM2.setBuffer("<printed>", Printed);
  DiagnosticEngine D2;
  Parser Reparse(*P1.Ctx, SM2, D2);
  std::optional<Program> P2 = Reparse.parseProgram();
  ASSERT_TRUE(P2.has_value() && !D2.hasErrors())
      << "printed module failed to re-parse:\n"
      << Printed << D2.render();

  const Procedure *F1 = P1.Prog->procedure(P1.Ctx->sym("f"));
  const Procedure *F2 = P2->procedure(P1.Ctx->sym("f"));
  ASSERT_TRUE(F1 && F2);
  EXPECT_EQ(F1->requiresClause(), F2->requiresClause());
  EXPECT_EQ(F1->ensuresClause(), F2->ensuresClause());
  EXPECT_EQ(F1->relRequiresClause(), F2->relRequiresClause());
  EXPECT_EQ(F1->relEnsuresClause(), F2->relEnsuresClause());
  EXPECT_TRUE(F2->hasModifiesClause());
  EXPECT_TRUE(structurallyEqual(*P1.Prog, *P2));
  EXPECT_EQ(Printed, Pr.print(*P2));
}

//===----------------------------------------------------------------------===//
// The program-level comparison is not vacuous
//===----------------------------------------------------------------------===//

TEST(ProgramStructural, DistinguishesPrograms) {
  ParsedProgram A = parseProgram("int x; requires (x > 0); { x = x + 1; }");
  ParsedProgram B = parseProgram("int x; requires (x > 0); { x = x + 2; }");
  ParsedProgram C = parseProgram("int x; requires (x > 0); { x = x + 1; }");
  ASSERT_TRUE(A.ok() && B.ok() && C.ok());
  EXPECT_FALSE(structurallyEqual(*A.Prog, *B.Prog));
  EXPECT_TRUE(structurallyEqual(*A.Prog, *C.Prog));
  EXPECT_EQ(structuralHash(*A.Prog), structuralHash(*C.Prog));
  EXPECT_NE(structuralHash(*A.Prog), structuralHash(*B.Prog));
}

TEST(ProgramStructural, DistinguishesAnnotations) {
  const char *WithVariant =
      "int i, n; { while (i < n) invariant (i <= n) decreases (n - i) "
      "{ i = i + 1; } }";
  const char *WithoutVariant =
      "int i, n; { while (i < n) invariant (i <= n) { i = i + 1; } }";
  ParsedProgram A = parseProgram(WithVariant);
  ParsedProgram B = parseProgram(WithoutVariant);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_FALSE(structurallyEqual(*A.Prog, *B.Prog))
      << "a dropped decreases clause must not compare equal";
}
