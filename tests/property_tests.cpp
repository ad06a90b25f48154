//===- property_tests.cpp - Generated-corpus properties of the pipeline --------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// Property-based layer over seeded random .rlx programs (tests/GenProgram.h):
//
//  * parse → print → parse is the structural identity on every generated
//    program (the serialization the shard wire format rides on);
//  * discharge verdicts are a pure function of the obligations — identical
//    across --jobs=1/4, across --shards=0/4 (a live worker-process pool),
//    and across shuffled obligation order;
//  * conflict-driven learning never loses or flips a verdict the blind
//    scan had (it may only decide obligations the blind scan's budget
//    trips on), and the learning-off engine is schedule-independent too;
//  * the bounded backend and Z3 agree on generated falsifiable mutants
//    (differential corpus with injected refutable assertions).
//
// Every failure message leads with the generator seed: the corpus is a
// pure function of the seed, so failures reproduce exactly.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "TestUtil.h"

#include "GenProgram.h"
#include "ast/Structural.h"
#include "solver/ShardPool.h"
#include "vcgen/Discharge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace relax;
using relax::test::ProgramGen;

namespace {

/// Parses + semas one generated program, asserting both succeed (the
/// generator's well-typedness contract).
relax::test::ParsedProgram parseGenerated(uint64_t Seed,
                                          const std::string &Source) {
  relax::test::ParsedProgram P = relax::test::parseProgram(Source);
  EXPECT_TRUE(P.ok()) << "seed " << Seed << " did not parse:\n"
                      << Source << P.diagnostics();
  if (P.ok()) {
    Sema S(*P.Prog, P.Diags);
    EXPECT_TRUE(S.run().has_value() && !P.Diags.hasErrors())
        << "seed " << Seed << " failed sema:\n"
        << Source << P.diagnostics();
  }
  return P;
}

//===----------------------------------------------------------------------===//
// (a) parse → print → parse structural identity
//===----------------------------------------------------------------------===//

TEST(PropertyRoundTrip, ParsePrintParseIsStructuralIdentity) {
  for (uint64_t Seed = 1; Seed <= 250; ++Seed) {
    ProgramGen Gen(Seed);
    std::string Source = Gen.gen();
    relax::test::ParsedProgram P = parseGenerated(Seed, Source);
    if (!P.ok())
      continue;

    Printer Pr(P.Ctx->symbols());
    std::string Printed = Pr.print(*P.Prog);
    SourceManager SM2;
    SM2.setBuffer("<reprint>", Printed);
    DiagnosticEngine D2;
    Parser Par(*P.Ctx, SM2, D2);
    std::optional<Program> Prog2 = Par.parseProgram();
    ASSERT_TRUE(Prog2.has_value() && !D2.hasErrors())
        << "seed " << Seed << ": printed form did not re-parse:\n"
        << Printed << D2.render();
    EXPECT_TRUE(structurallyEqual(*P.Prog, *Prog2))
        << "seed " << Seed << ": round trip changed the program\n--- source\n"
        << Source << "--- printed\n"
        << Printed;
  }
}

// The same identity over the modular corpus: multi-procedure programs
// with contracts, frames, and call sites must survive parse → print →
// parse without losing a clause.
TEST(PropertyRoundTrip, ModularProgramsRoundTrip) {
  ProgramGen::Options GO;
  GO.Procedures = 2;
  for (uint64_t Seed = 1; Seed <= 120; ++Seed) {
    ProgramGen Gen(Seed, GO);
    std::string Source = Gen.gen();
    relax::test::ParsedProgram P = parseGenerated(Seed, Source);
    if (!P.ok())
      continue;
    ASSERT_TRUE(P.Prog->isExplicitModule()) << "seed " << Seed;

    Printer Pr(P.Ctx->symbols());
    std::string Printed = Pr.print(*P.Prog);
    SourceManager SM2;
    SM2.setBuffer("<reprint>", Printed);
    DiagnosticEngine D2;
    Parser Par(*P.Ctx, SM2, D2);
    std::optional<Program> Prog2 = Par.parseProgram();
    ASSERT_TRUE(Prog2.has_value() && !D2.hasErrors())
        << "seed " << Seed << ": printed module did not re-parse:\n"
        << Printed << D2.render();
    EXPECT_TRUE(structurallyEqual(*P.Prog, *Prog2))
        << "seed " << Seed << ": round trip changed the module\n--- source\n"
        << Source << "--- printed\n"
        << Printed;
  }
}

//===----------------------------------------------------------------------===//
// (b) verdict identity across schedules
//===----------------------------------------------------------------------===//

/// Z3-free pipeline at shrunk-but-covering domains: deterministic in every
/// build configuration, including witness Details (bounded first-witness).
PortfolioOptions boundedPipeline() {
  PortfolioOptions PO;
  PO.Tiers = {TierKind::Simplify, TierKind::Bounded, TierKind::Shard};
  PO.Bounded.MaxCandidates = 50'000;
  PO.Bounded.MaxQuantSteps = 20'000;
  PO.Pool = nullptr; // in-process unless a test installs a pool
  PO.ShardWorkerPipeline = "bounded";
  return PO;
}

void expectIdenticalReports(const VerifyReport &A, const VerifyReport &B,
                            uint64_t Seed, const char *What) {
  auto Compare = [&](const JudgmentReport &X, const JudgmentReport &Y,
                     const char *Pass) {
    ASSERT_EQ(X.Outcomes.size(), Y.Outcomes.size())
        << "seed " << Seed << " " << What << " " << Pass;
    for (size_t I = 0; I != X.Outcomes.size(); ++I) {
      EXPECT_EQ(X.Outcomes[I].Status, Y.Outcomes[I].Status)
          << "seed " << Seed << " " << What << " " << Pass << " VC #" << I
          << " (" << X.Outcomes[I].Condition.Rule << ")";
      EXPECT_EQ(X.Outcomes[I].Detail, Y.Outcomes[I].Detail)
          << "seed " << Seed << " " << What << " " << Pass << " VC #" << I;
    }
  };
  Compare(A.Original, B.Original, "|-o");
  Compare(A.Relaxed, B.Relaxed, "|-r");
}

VerifyReport runPortfolio(relax::test::ParsedProgram &P, PortfolioOptions PO,
                          unsigned Jobs, DischargeStats *Stats = nullptr) {
  BoundedSolver Dummy;
  DiagnosticEngine Diags;
  Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
  Verifier::Options VO;
  VO.Portfolio = std::move(PO);
  VO.Jobs = Jobs;
  VO.StatsOut = Stats;
  return V.run(VO);
}

TEST(PropertySchedules, VerdictsIndependentOfJobs) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    ProgramGen Gen(Seed);
    std::string Source = Gen.gen();
    relax::test::ParsedProgram P = parseGenerated(Seed, Source);
    if (!P.ok())
      continue;
    VerifyReport Seq = runPortfolio(P, boundedPipeline(), 1);
    VerifyReport Par = runPortfolio(P, boundedPipeline(), 4);
    expectIdenticalReports(Seq, Par, Seed, "--jobs=1 vs --jobs=4");
  }
  // The generated programs' passes are small; the copies programs, with
  // 3 * K + 1 obligations pending per pass, start two, three and four
  // slots per pass.
  const unsigned B = ObligationsPerSlot;
  for (unsigned K : {(B + 2) / 3, (2 * B + 2) / 3, relax::test::ManyCopies}) {
    relax::test::ParsedProgram P =
        relax::test::parseProgram(relax::test::copiesProgram(K));
    ASSERT_TRUE(P.ok()) << P.diagnostics();
    VerifyReport Seq = runPortfolio(P, boundedPipeline(), 1);
    DischargeStats Stats;
    VerifyReport Par = runPortfolio(P, boundedPipeline(), 4, &Stats);
    expectIdenticalReports(Seq, Par, K, "copies --jobs=1 vs --jobs=4");
    size_t Slots = 1 + (3 * K) / ObligationsPerSlot; // 3 * K + 1 pending
    EXPECT_EQ(Stats.PassSlots,
              (std::vector<unsigned>(2, std::min<size_t>(4, Slots))))
        << "K=" << K;
  }
}

// Modular corpus: summary obligations from several procedures feed one
// scheduler, so the schedule-independence pin must hold across the
// per-procedure VC groups too.
TEST(PropertySchedules, ModularVerdictsIndependentOfJobs) {
  ProgramGen::Options GO;
  GO.Procedures = 2;
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    ProgramGen Gen(Seed, GO);
    std::string Source = Gen.gen();
    relax::test::ParsedProgram P = parseGenerated(Seed, Source);
    if (!P.ok())
      continue;
    VerifyReport Seq = runPortfolio(P, boundedPipeline(), 1);
    VerifyReport Par = runPortfolio(P, boundedPipeline(), 4);
    expectIdenticalReports(Seq, Par, Seed, "modular --jobs=1 vs --jobs=4");
  }
}

TEST(PropertySchedules, VerdictsIndependentOfObligationOrder) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    ProgramGen Gen(Seed);
    std::string Source = Gen.gen();
    relax::test::ParsedProgram P = parseGenerated(Seed, Source);
    if (!P.ok())
      continue;

    DiagnosticEngine Diags;
    UnaryVCGen Gen2(*P.Ctx, *P.Prog, JudgmentKind::Original, Diags);
    Gen2.genTriple(P.Prog->requiresClause() ? P.Prog->requiresClause()
                                            : P.Ctx->trueExpr(),
                   P.Prog->body(),
                   P.Prog->ensuresClause() ? P.Prog->ensuresClause()
                                           : P.Ctx->trueExpr());
    VCSet Ordered = Gen2.take();
    if (Ordered.VCs.empty())
      continue;

    VCSet Shuffled;
    Shuffled.VCs = Ordered.VCs;
    Shuffled.Derivation = Ordered.Derivation;
    // Deterministic Fisher–Yates on the platform-stable PRNG.
    SplitMix64 Rng(Seed * 7919 + 1);
    for (size_t I = Shuffled.VCs.size(); I > 1; --I)
      std::swap(Shuffled.VCs[I - 1],
                Shuffled.VCs[static_cast<size_t>(
                    Rng.nextInRange(0, static_cast<int64_t>(I) - 1))]);

    auto Discharge = [&](VCSet Set) {
      DischargeScheduler::Config C;
      C.Jobs = 2;
      C.Portfolio = boundedPipeline();
      DischargeScheduler Sched(*P.Ctx, std::move(C));
      JudgmentReport Rep;
      BoundedSolver Fallback;
      Sched.discharge(std::move(Set), Rep, Fallback);
      std::map<uint32_t, std::pair<VCStatus, std::string>> ById;
      for (const VCOutcome &O : Rep.Outcomes)
        ById[O.Condition.Id] = {O.Status, O.Detail};
      return ById;
    };
    auto A = Discharge(std::move(Ordered));
    auto B = Discharge(std::move(Shuffled));
    ASSERT_EQ(A.size(), B.size()) << "seed " << Seed;
    for (const auto &[Id, Outcome] : A) {
      auto It = B.find(Id);
      ASSERT_NE(It, B.end()) << "seed " << Seed << " VC " << Id;
      EXPECT_EQ(Outcome.first, It->second.first)
          << "seed " << Seed << " VC " << Id << ": status depends on "
          << "obligation order";
      EXPECT_EQ(Outcome.second, It->second.second)
          << "seed " << Seed << " VC " << Id;
    }
  }
}

TEST(PropertySchedules, VerdictsIndependentOfSharding) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // One pool for the whole corpus: workers are stateless with respect to
  // requests (each request carries its full solver configuration), so
  // reuse across programs is exactly the production shape.
  ShardPoolOptions SO;
  SO.Shards = 4;
  SO.WorkerExe = relax::test::driverPath();
  SO.RoundTripTimeoutMs = 120'000;
  auto PoolR = ShardPool::create(std::move(SO));
  ASSERT_TRUE(PoolR.ok()) << PoolR.message();
  std::unique_ptr<ShardPool> Pool = std::move(*PoolR);

  // Acceptance gate: >= 200 generated programs discharge bit-identically
  // (Status and Detail) with and without the worker-process pool, under
  // both the sequential and the work-stealing scheduler.
  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ProgramGen Gen(Seed);
    std::string Source = Gen.gen();
    relax::test::ParsedProgram P = parseGenerated(Seed, Source);
    if (!P.ok())
      continue;

    PortfolioOptions InProc = boundedPipeline();
    PortfolioOptions Sharded = boundedPipeline();
    Sharded.Pool = Pool.get();

    VerifyReport A = runPortfolio(P, InProc, 1);
    VerifyReport B = runPortfolio(P, Sharded, 1);
    expectIdenticalReports(A, B, Seed, "--shards=0 vs --shards=4");
    if (Seed % 8 == 0) { // work-stealing scheduler over the pool
      VerifyReport C = runPortfolio(P, Sharded, 4);
      expectIdenticalReports(A, C, Seed, "--shards=4 --jobs=4");
    }
    ++Compared;
  }
  EXPECT_GE(Compared, 200u);
  EXPECT_GT(Pool->stats().Requests, 0u)
      << "the corpus never escalated to the shard tier";
}

// Nogood learning, restarts, and conflict-directed backjumping only skip
// assignments that are already known falsified, so wherever the blind
// scan decides, the learning engine must land on the bit-identical
// verdict and witness. The one divergence budgets allow is directional:
// learning reaches further per candidate charged, so it may decide an
// obligation the blind scan's budget trips on — never the reverse, and
// never a different decided verdict. (Chasing strict identity by raising
// the budget just moves the margin to another seed: any budget leaves
// some obligation the learning leg decides and the blind leg cannot.)
void expectLearningCompatibleReports(const VerifyReport &On,
                                     const VerifyReport &Off, uint64_t Seed,
                                     const char *What) {
  auto Compare = [&](const JudgmentReport &X, const JudgmentReport &Y,
                     const char *Pass) {
    ASSERT_EQ(X.Outcomes.size(), Y.Outcomes.size())
        << "seed " << Seed << " " << What << " " << Pass;
    for (size_t I = 0; I != X.Outcomes.size(); ++I) {
      if (Y.Outcomes[I].Status == VCStatus::Unknown &&
          X.Outcomes[I].Status != VCStatus::Unknown)
        continue; // learning decided inside a budget the blind scan tripped
      EXPECT_EQ(X.Outcomes[I].Status, Y.Outcomes[I].Status)
          << "seed " << Seed << " " << What << " " << Pass << " VC #" << I
          << " (" << X.Outcomes[I].Condition.Rule << ")";
      EXPECT_EQ(X.Outcomes[I].Detail, Y.Outcomes[I].Detail)
          << "seed " << Seed << " " << What << " " << Pass << " VC #" << I;
    }
  };
  Compare(On.Original, Off.Original, "|-o");
  Compare(On.Relaxed, Off.Relaxed, "|-r");
}

TEST(PropertySchedules, VerdictsIndependentOfLearning) {
  std::unique_ptr<ShardPool> Pool;
  if (!relax::test::driverPath().empty()) {
    ShardPoolOptions SO;
    SO.Shards = 4;
    SO.WorkerExe = relax::test::driverPath();
    SO.RoundTripTimeoutMs = 120'000;
    auto PoolR = ShardPool::create(std::move(SO));
    ASSERT_TRUE(PoolR.ok()) << PoolR.message();
    Pool = std::move(*PoolR);
  }

  unsigned Compared = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ProgramGen Gen(Seed);
    std::string Source = Gen.gen();
    relax::test::ParsedProgram P = parseGenerated(Seed, Source);
    if (!P.ok())
      continue;

    PortfolioOptions Learn = boundedPipeline();
    PortfolioOptions NoLearn = boundedPipeline();
    NoLearn.Bounded.Learning = false;
    NoLearn.Bounded.Restarts = false;

    VerifyReport A = runPortfolio(P, Learn, 1);
    VerifyReport B = runPortfolio(P, NoLearn, 1);
    expectLearningCompatibleReports(A, B, Seed, "learning on vs off");

    // The learning-off engine must itself be schedule-independent: its
    // own jobs=4 (and sharded) runs are bit-identical to its jobs=1 run.
    VerifyReport C = runPortfolio(P, NoLearn, 4);
    expectIdenticalReports(B, C, Seed, "learning off --jobs=1 vs --jobs=4");

    if (Pool && Seed % 8 == 0) {
      // The shard wire format carries the learning knobs; a worker that
      // dropped them would diverge from the in-process learning-off run.
      PortfolioOptions ShardedOff = NoLearn;
      ShardedOff.Pool = Pool.get();
      VerifyReport D = runPortfolio(P, ShardedOff, 4);
      expectIdenticalReports(B, D, Seed, "learning off --shards=4");
    }
    ++Compared;
  }
  EXPECT_GE(Compared, 200u);
}

//===----------------------------------------------------------------------===//
// (c) bounded-vs-Z3 differential on falsifiable mutants
//===----------------------------------------------------------------------===//

TEST(PropertyDifferential, BoundedAndZ3AgreeOnFalsifiableMutants) {
  RELAXC_SKIP_WITHOUT_Z3();
  ProgramGen::Options GO;
  GO.MaxStmts = 3;
  GO.InjectFalsifiableAssert = true;

  unsigned Decisive = 0, Refuted = 0;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    ProgramGen Gen(Seed, GO);
    std::string Source = Gen.gen();
    relax::test::ParsedProgram P = parseGenerated(Seed, Source);
    if (!P.ok())
      continue;

    DiagnosticEngine Diags;
    BoundedSolver Dummy;
    Verifier V(*P.Ctx, *P.Prog, Dummy, Diags);
    UnaryVCGen OGen(*P.Ctx, *P.Prog, JudgmentKind::Original, Diags);
    OGen.genTriple(P.Prog->requiresClause() ? P.Prog->requiresClause()
                                            : P.Ctx->trueExpr(),
                   P.Prog->body(),
                   P.Prog->ensuresClause() ? P.Prog->ensuresClause()
                                           : P.Ctx->trueExpr());
    RelationalVCGen RGen(*P.Ctx, *P.Prog, Diags);
    RGen.genTriple(V.effectiveRelRequires(), P.Prog->body(),
                   P.Prog->relEnsuresClause() ? P.Prog->relEnsuresClause()
                                              : P.Ctx->trueExpr());
    VCSet OSet = OGen.take();
    VCSet RSet = RGen.take();

    // Budgeted bounded: on a trip the VC is skipped (Unknown is not a
    // claim); on Sat/Unsat the generator's domain discipline makes the
    // answer exact, so Z3 must agree.
    BoundedSolverOptions BO;
    BO.MaxCandidates = 200'000;
    BO.MaxQuantSteps = 500'000;
    BoundedSolver Bounded(BO, P.Ctx.get());
    Z3Solver Z3(P.Ctx->symbols());

    for (const VCSet *Set : {&OSet, &RSet})
      for (const VC &C : Set->VCs) {
        const BoolExpr *Q = vcQuery(*P.Ctx, C);
        VCOutcome BOut =
            dischargeVC(C, Q, Bounded, P.Ctx->symbols(), nullptr);
        if (BOut.Status == VCStatus::Unknown ||
            BOut.Status == VCStatus::SolverError)
          continue; // budget trip — no claim to check
        VCOutcome ZOut = dischargeVC(C, Q, Z3, P.Ctx->symbols(), nullptr);
        if (ZOut.Status == VCStatus::Unknown ||
            ZOut.Status == VCStatus::SolverError)
          continue;
        ++Decisive;
        Refuted += BOut.Status == VCStatus::Failed ? 1 : 0;
        EXPECT_EQ(BOut.Status, ZOut.Status)
            << "seed " << Seed << " VC #" << C.Id << " (" << C.Rule
            << "): bounded says " << vcStatusName(BOut.Status) << " ["
            << BOut.Detail << "], z3 says " << vcStatusName(ZOut.Status)
            << " [" << ZOut.Detail << "]\n"
            << Source;
      }
  }
  // The corpus must actually exercise both the agreement and the
  // injected refutations.
  EXPECT_GT(Decisive, 100u);
  EXPECT_GT(Refuted, 20u);
}

} // namespace
