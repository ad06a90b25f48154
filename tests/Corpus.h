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
/// products, and falsifiable asserts on even seeds).
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_TESTS_CORPUS_H
#define RELAXC_TESTS_CORPUS_H

#include "GenProgram.h"
#include "TestUtil.h"

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
  for (const Mutation &M : ExampleMutants) {
    std::string Source = *slurpExample(M.File);
    size_t At = Source.find(M.From);
    if (At == std::string::npos) {
      ADD_FAILURE() << M.File << " lost the mutation anchor: " << M.From;
      continue;
    }
    Source.replace(At, std::string(M.From).size(), M.To);
    Out.emplace_back(std::string(M.File) + " mutated to '" + M.To + "'",
                     Source);
  }
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
