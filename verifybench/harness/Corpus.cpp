//===- Corpus.cpp - Known-answer inputs of the verify benchmark -----------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "GenProgram.h"
#include "parser/Parser.h"
#include "solver/CachingSolver.h"
#include "solver/Z3Solver.h"
#include "vcgen/Verifier.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

using namespace relax;

namespace vb {

namespace {

const char *const CaseStudies[] = {"lu",    "memoize",   "sampling",
                                   "shared_callee", "swish", "task_skip",
                                   "water", "water_modular"};

/// The ExamplesMutated anchors of tests/verifier_tests.cpp.
struct Mutation {
  const char *Study;
  const char *Tag;
  const char *From;
  const char *To;
};
const Mutation Mutants[] = {
    {"swish", "threshold", "10 <= max_r));", "9 <= max_r));"},
    {"swish", "relate", "10 <= num_r<o> && 10 <= num_r<r>",
     "10 <= num_r<o> && 11 <= num_r<r>"},
    {"water", "no-assume", "assume (K < len_FF);\n    if", "skip;\n    if"},
    {"water", "requires", "requires (N >= 0 && N <= len(RS)",
     "requires (N >= 0 && N - 1 <= len(RS)"},
    {"lu", "relate", "relate lipschitz : max<o> - max<r> <= e<o>",
     "relate lipschitz : max<o> - max<r> <= e<o> - 1"},
    {"lu", "relax", "relax (a) st (original_a - e <= a && a <= original_a + e)",
     "relax (a) st (original_a - 2 * e <= a && a <= original_a + 2 * e)"},
    {"shared_callee", "rensures", "rensures (0 <= x<o> && 0 <= x<r>);",
     "rensures (true);"},
};

/// A generated program whose in-process verification takes longer than
/// this is dropped. Typical draws take ~40 ms; the rare nonlinear one Z3
/// needs seconds for would dominate set-up and the run's tail.
constexpr int64_t GeneratedLimitMs = 500;

Status writeFile(const std::string &Path, const std::string &Text) {
  std::error_code EC;
  std::filesystem::create_directories(
      std::filesystem::path(Path).parent_path(), EC);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  Out.close();
  if (!Out)
    return Status::error("cannot write '" + Path + "'");
  return Status::success();
}

Result<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Result<std::string>::error("cannot read '" + Path + "'");
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

Result<std::vector<Program>> buildCorpus(const std::string &RepoRoot,
                                         const std::string &OutDir) {
  using R = Result<std::vector<Program>>;
  std::vector<Program> Out;
  for (const char *Study : CaseStudies) {
    Result<std::string> Text =
        readFile(RepoRoot + "/examples/programs/" + Study + ".rlx");
    if (!Text.ok())
      return R::error("case study missing: " + Text.message());
    Out.push_back({Study, OutDir + "/" + Study + ".rlx", *Text, 0});
  }
  for (const Mutation &M : Mutants) {
    const Program *Base = nullptr;
    for (const Program &P : Out)
      if (P.Name == M.Study)
        Base = &P;
    std::string Text = Base->Source;
    size_t Pos = Text.find(M.From);
    if (Pos == std::string::npos)
      return R::error(std::string("mutation anchor not found in ") +
                      M.Study + ".rlx: " + M.From);
    Text.replace(Pos, std::string(M.From).size(), M.To);
    std::string Name = std::string(M.Study) + "~" + M.Tag;
    Out.push_back({Name, OutDir + "/" + Name + ".rlx", Text, 1});
  }
  for (const Program &P : Out)
    if (Status S = writeFile(P.Path, P.Source); !S.ok())
      return R::error(S.message());
  return Out;
}

std::vector<std::string> drawGenerated(uint64_t Seed, size_t N) {
  test::ProgramGen Gen(splitMixHash(Seed ^ 0x7e57ab1e5eedULL));
  std::vector<std::string> Out;
  Out.reserve(N);
  while (Out.size() < N)
    Out.push_back(Gen.gen());
  return Out;
}

Result<std::vector<Program>> generatePrograms(uint64_t Seed, size_t Count,
                                              unsigned Threads,
                                              const std::string &OutDir) {
  using R = Result<std::vector<Program>>;
  // Verify the stream in growing prefixes until enough programs pass the
  // filter: non-decisive verdicts and duplicate texts (a duplicate would
  // be a cache hit, not a fresh program) are skipped. Almost every draw
  // passes, so each prefix adds only a small margin. The kept programs
  // are a pure function of the seed whatever the thread count.
  std::vector<std::string> Candidates;
  std::vector<int> Exit;
  std::vector<Program> Out;
  std::set<std::string> Seen;
  size_t Scanned = 0;
  while (Out.size() < Count && Candidates.size() < Count * 4 + 16) {
    size_t Missing = Count - Out.size();
    size_t Want = Candidates.size() + Missing + Missing / 16 + 2;
    Candidates = drawGenerated(Seed, Want);
    Exit.resize(Want, -1);
    std::atomic<size_t> NextIdx{Scanned};
    auto Worker = [&] {
      for (size_t I; (I = NextIdx.fetch_add(1)) < Candidates.size();)
        Exit[I] = verifyExitInProcess(Candidates[I], GeneratedLimitMs);
    };
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < std::max(1u, Threads); ++T)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
    for (; Scanned < Candidates.size() && Out.size() < Count; ++Scanned) {
      const std::string &Text = Candidates[Scanned];
      if ((Exit[Scanned] != 0 && Exit[Scanned] != 1) ||
          !Seen.insert(Text).second)
        continue;
      char Name[32];
      std::snprintf(Name, sizeof(Name), "gen-%04zu", Out.size());
      Out.push_back({Name, OutDir + "/" + Name + ".rlx", Text, Exit[Scanned]});
    }
  }
  if (Out.size() < Count)
    return R::error("generator yielded only " + std::to_string(Out.size()) +
                    " decisive programs of " + std::to_string(Count));
  for (const Program &P : Out)
    if (Status S = writeFile(P.Path, P.Source); !S.ok())
      return R::error(S.message());
  return Out;
}

int exitStatusOf(const VerifyReport &R) {
  if (R.verified())
    return 0;
  if (!R.SemaOk || R.GenErrors)
    return 2;
  size_t Refuted =
      R.Original.count(VCStatus::Failed) + R.Relaxed.count(VCStatus::Failed);
  return Refuted > 0 ? 1 : 3;
}

int verifyExitInProcess(const std::string &Source, int64_t LimitMs) {
  AstContext Ctx;
  SourceManager SM;
  SM.setBuffer("generated.rlx", Source);
  DiagnosticEngine Diags;
  Parser P(Ctx, SM, Diags);
  std::optional<relax::Program> Prog = P.parseProgram();
  if (!Prog)
    return 2;
  Z3Solver Backend(Ctx.symbols());
  CachingSolver Cached(Backend);
  Verifier V(Ctx, *Prog, Cached, Diags);
  Verifier::Options VO;
  if (LimitMs >= 0)
    VO.GlobalDeadline = Deadline::inMs(LimitMs);
  return exitStatusOf(V.run(VO));
}

std::vector<size_t> shuffledRound(size_t N, SplitMix64 &Rng) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[static_cast<size_t>(Rng.next() % I)]);
  return Order;
}

ServeSequence::ServeSequence(uint64_t Seed, size_t NCorpus)
    : Rng(splitMixHash(Seed ^ 0x5e7feda11ULL)), NCorpus(NCorpus) {}

ServeReq ServeSequence::next() {
  if (BlockPos == 0)
    GenSlot = static_cast<size_t>(Rng.next() % 4);
  bool Gen = BlockPos == GenSlot;
  BlockPos = (BlockPos + 1) % 4;
  if (Gen)
    return {true, GenNext++};
  if (RoundPos == Round.size()) {
    Round = shuffledRound(NCorpus, Rng);
    RoundPos = 0;
  }
  return {false, Round[RoundPos++]};
}

} // namespace vb
