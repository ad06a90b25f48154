//===- Corpus.h - Known-answer inputs of the verify benchmark ------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's inputs and their expected verdicts:
///
///  * the eight `examples/programs/*.rlx` case studies, each expected to
///    verify (exit 0);
///  * the seven `ExamplesMutated` mutants of `tests/verifier_tests.cpp`,
///    spliced from the same anchor strings at set-up, each expected to be
///    refuted (exit 1). A missing anchor is a set-up error;
///  * seeded `tests/GenProgram.h` programs (serve workload only), whose
///    expected verdict is an in-process plain-Z3 `Verifier` run. Programs
///    on which that run is not decisive are dropped, deterministically, so
///    no request of the benchmark is expected to fail.
///
/// The workload seed fixes request order and generated draws; relaxc only
/// ever sees the resulting files and wire requests.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_CORPUS_H
#define VERIFYBENCH_CORPUS_H

#include "support/Random.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace relax {
struct VerifyReport;
}

namespace vb {

/// One benchmark input.
struct Program {
  std::string Name;   ///< "swish", "swish~threshold", "gen-0042"
  std::string Path;   ///< the file written for the CLI
  std::string Source; ///< its text, also sent over the verify wire
  int Expected = 0;   ///< 0 = verifies, 1 = refuted
};

/// The case studies and their mutants, written under \p OutDir. Fails
/// when a case study is missing or a mutation anchor does not occur.
relax::Result<std::vector<Program>> buildCorpus(const std::string &RepoRoot,
                                                const std::string &OutDir);

/// The raw seeded generator stream: the first \p N program texts drawn
/// for \p Seed (before the decisiveness filter).
std::vector<std::string> drawGenerated(uint64_t Seed, size_t N);

/// \p Count generated programs for \p Seed with in-process expected
/// verdicts (computed on \p Threads threads), written under \p OutDir.
/// Fails when the stream yields too few decisive programs.
relax::Result<std::vector<Program>>
generatePrograms(uint64_t Seed, size_t Count, unsigned Threads,
                 const std::string &OutDir);

/// The verify exit status of a report — the CLI's rule: 0 verified,
/// 1 refuted, 2 static error, 3 gave up.
int exitStatusOf(const relax::VerifyReport &R);

/// Verifies \p Source in process with the CLI's default configuration
/// (plain Z3) and returns the exit status the CLI would. With
/// \p LimitMs >= 0 the run gives up (exit 3) past that many milliseconds.
int verifyExitInProcess(const std::string &Source, int64_t LimitMs = -1);

/// A seeded permutation of [0, N): one round of a cli workload.
std::vector<size_t> shuffledRound(size_t N, relax::SplitMix64 &Rng);

/// One request of the serve workload.
struct ServeReq {
  bool Generated = false; ///< a fresh generated program (a cache miss)
  size_t Index = 0;       ///< into the corpus or the generated list
  bool operator==(const ServeReq &O) const {
    return Generated == O.Generated && Index == O.Index;
  }
};

/// The serve workload's request stream: blocks of four, one fresh
/// generated program at a seeded slot of each block and three corpus
/// repeats drawn round-robin from seeded shuffles of the corpus.
class ServeSequence {
public:
  ServeSequence(uint64_t Seed, size_t NCorpus);
  ServeReq next();

private:
  relax::SplitMix64 Rng;
  size_t NCorpus;
  std::vector<size_t> Round;
  size_t RoundPos = 0;
  size_t GenNext = 0;
  size_t BlockPos = 0;
  size_t GenSlot = 0;
};

} // namespace vb

#endif // VERIFYBENCH_CORPUS_H
