//===- Corpus.h - Case studies, their mutants and generated programs -*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mixed corpus that the suites comparing two discharge paths run
/// on: the eight case studies (every obligation proved), their seven
/// `ExamplesMutated` mutants (refuted obligations, with Z3
/// counterexamples), and `GenProgram.h` programs (nonlinear `*`
/// products, and falsifiable asserts on even seeds); and the copies
/// program, whose passes are large enough to start four discharge
/// slots.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_TESTS_CORPUS_H
#define RELAXC_TESTS_CORPUS_H

#include "GenProgram.h"
#include "TestUtil.h"

#include "vcgen/Discharge.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace relax {
namespace test {

inline const char *const CaseStudies[] = {
    "swish.rlx",         "water.rlx",     "lu.rlx",
    "task_skip.rlx",     "sampling.rlx",  "memoize.rlx",
    "water_modular.rlx", "shared_callee.rlx"};

/// An exact annotation substring of a case study and its replacement.
struct Mutation {
  const char *File, *From, *To;
};

/// The ExamplesMutated mutants of verifier_tests.cpp.
inline const Mutation ExampleMutants[] = {
    {"swish.rlx", "10 <= max_r));", "9 <= max_r));"},
    {"swish.rlx", "10 <= num_r<o> && 10 <= num_r<r>",
     "10 <= num_r<o> && 11 <= num_r<r>"},
    {"water.rlx", "assume (K < len_FF);\n    if", "skip;\n    if"},
    {"water.rlx", "requires (N >= 0 && N <= len(RS)",
     "requires (N >= 0 && N - 1 <= len(RS)"},
    {"lu.rlx", "relate lipschitz : max<o> - max<r> <= e<o>",
     "relate lipschitz : max<o> - max<r> <= e<o> - 1"},
    {"lu.rlx", "relax (a) st (original_a - e <= a && a <= original_a + e)",
     "relax (a) st (original_a - 2 * e <= a && a <= original_a + 2 * e)"},
    {"shared_callee.rlx", "rensures (0 <= x<o> && 0 <= x<r>);",
     "rensures (true);"},
};

/// The name mixedCorpus() gives mutant \p M.
inline std::string mutantName(const Mutation &M) {
  return std::string(M.File) + " mutated to '" + M.To + "'";
}

/// The source of mutant \p M; nullopt when its case study is missing
/// from the checkout or has lost the anchor (which fails the calling
/// test).
inline std::optional<std::string> mutantSource(const Mutation &M) {
  std::optional<std::string> Source = slurpExample(M.File);
  if (!Source)
    return std::nullopt;
  size_t At = Source->find(M.From);
  if (At == std::string::npos) {
    ADD_FAILURE() << M.File << " lost the mutation anchor: " << M.From;
    return std::nullopt;
  }
  Source->replace(At, std::string(M.From).size(), M.To);
  return Source;
}

/// A program of \p K renamed copies of one small contracted procedure,
/// `step0` .. `step<K-1>`, and a `main` of its own. Copy j bounds `x` by
/// `2 + j`, so no two copies' obligations print alike and none is a
/// shared-cache hit for another. The program verifies, and every
/// obligation is linear and quantifier-free over a few small integers,
/// so the bounded tier settles each one in well under a millisecond,
/// cheap enough for the sanitizer builds.
///
/// Each pass holds 3 * K + 2 obligations: three per copy, and main's
/// assert and postcondition. The postcondition is `true`, which a
/// simplify prefix settles before the slots start, so behind such a
/// prefix 3 * K + 1 of them are pending.
inline std::string copiesProgram(unsigned K) {
  std::string Out = "int x, y;\n";
  for (unsigned J = 0; J != K; ++J) {
    std::string N = std::to_string(J), Lo = std::to_string(2 + J),
                Hi = std::to_string(3 + J);
    Out += "\nproc step" + N + "(int d)\n  modifies (y)\n"
           "  requires (0 <= d && d <= 1 && 0 <= x && x <= " + Lo + ");\n"
           "  ensures (0 <= y && y <= " + Hi + ");\n"
           "  rrequires (d<o> == d<r> && 0 <= d<o> && d<o> <= 1 && "
           "0 <= x<o> && x<o> <= " + Lo + " && x<o> == x<r>);\n"
           "  rensures (y<o> == y<r> && y<o> <= " + Hi + ");\n"
           "{\n  y = x + d;\n  assert 0 <= y;\n  assert y <= " + Hi +
           ";\n}\n";
  }
  return Out + "\nproc main()\n  requires (x == 0 && y == 0);\n"
               "{\n  assert x <= 1;\n}\n";
}

/// The copies after which every pass of copiesProgram holds more than
/// 3 * ObligationsPerSlot pending obligations, so that four jobs start
/// four slots in each.
inline constexpr unsigned ManyCopies = ObligationsPerSlot + 1;

/// Named sources of the case studies, their mutants, and the programs
/// `ProgramGen` draws from seeds 1..50 (odd seeds plain, even seeds with
/// `InjectFalsifiableAssert`). nullopt when a case study is missing from
/// the checkout; a mutant whose anchor no longer matches fails the
/// calling test.
inline std::optional<std::vector<std::pair<std::string, std::string>>>
mixedCorpus() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const char *Name : CaseStudies) {
    std::optional<std::string> Source = slurpExample(Name);
    if (!Source)
      return std::nullopt;
    Out.emplace_back(Name, *Source);
  }
  for (const Mutation &M : ExampleMutants)
    if (std::optional<std::string> Source = mutantSource(M))
      Out.emplace_back(mutantName(M), *Source);
  ProgramGen::Options Falsifiable;
  Falsifiable.InjectFalsifiableAssert = true;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    ProgramGen Gen(Seed, Seed % 2 ? ProgramGen::Options() : Falsifiable);
    Out.emplace_back("seed " + std::to_string(Seed), Gen.gen());
  }
  return Out;
}

} // namespace test
} // namespace relax

#endif // RELAXC_TESTS_CORPUS_H
