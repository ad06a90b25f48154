//===- persistent_cache_tests.cpp - On-disk verdict cache -----------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
// Pins the persistent verdict cache (support/PersistentCache.h) at both
// layers:
//
//  * unit: round trips, append-across-processes, the never-persist-
//    Unknown rule, a `sat` entry's witness (its model codec, the empty
//    model, the supersede rule), verify-on-hit sampling and the
//    divergence alarm, and one test per corruption shape (truncated
//    header, a format-1 file, garbage trailer, partial final append, crc
//    flip, conflicting duplicates, malformed or misplaced model lines) —
//    each must load as a fully cold cache, never crash, never serve a
//    verdict, and recover by rewrite on the next flush;
//  * fault injection: the cache-read / cache-write sites (a valid file
//    loads cold; a flush tears the file and errors, and the torn file
//    again loads cold);
//  * end-to-end: cold vs warm `relaxc verify --cache-dir=` runs must
//    produce bit-identical reports on the shipped case studies
//    (including the modular, multi-procedure ones), their refuted
//    mutants and generated programs, with the warm run settling every
//    obligation from the cache (`queries: 0` under --solver-stats), a
//    refutation with the counterexample the cold run printed; and procedure
//    contracts must feed the cache key — two procedures with identical
//    bodies but different contracts never share a verdict.
//
// The PersistentCacheChaos suite only compares a cold and a warm run of
// the same driver against each other — no stats pins — so it stays green
// when CI arms the cache fault sites via RELAXC_FAULTS (the spawned
// drivers inherit the environment; this test binary itself never arms
// from it).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "GenProgram.h"
#include "TestUtil.h"

#include "sema/Sema.h"
#include "support/FaultInjection.h"
#include "support/PersistentCache.h"
#include "support/Subprocess.h"
#include "vcgen/Discharge.h"
#include "vcgen/UnaryVCGen.h"

#include <gtest/gtest.h>

#include <set>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <unistd.h>

using namespace relax;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// A fresh cache directory, recursively removed on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Name[] = "/tmp/relaxc_cache_XXXXXX";
    char *P = ::mkdtemp(Name);
    EXPECT_NE(P, nullptr);
    if (P)
      Path = P;
  }
  ~TempDir() {
    if (!Path.empty())
      std::filesystem::remove_all(Path);
  }
};

std::string cacheFile(const TempDir &D) { return D.Path + "/verdicts.rlxcache"; }

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Drops "relaxc: warning: ..." lines (a chaos-armed driver may warn that
/// the cache could not be saved; the report proper must still match).
std::string stripWarnings(const std::string &S) {
  std::istringstream In(S);
  std::string Out, Line;
  while (std::getline(In, Line))
    if (Line.find("relaxc: warning:") == std::string::npos)
      Out += Line + "\n";
  return Out;
}

struct RunResult {
  int Exit = -1;
  std::string Output; ///< stdout + stderr, merged
};

RunResult runDriver(const std::vector<std::string> &Args) {
  RunResult R;
  Subprocess P;
  Status S = P.spawn(relax::test::driverPath(), Args, /*MergeStderr=*/true);
  EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.message());
  if (!S.ok())
    return R;
  P.closeStdin();
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(P.readFd(), Buf, sizeof(Buf));
    if (N <= 0)
      break;
    R.Output.append(Buf, static_cast<size_t>(N));
  }
  R.Exit = P.waitForExit();
  return R;
}

/// Writes \p Source to a temp .rlx file; unlinked on destruction.
struct TempProgram {
  std::string Path;
  explicit TempProgram(const std::string &Source) {
    char Name[] = "/tmp/relaxc_cache_prog_XXXXXX";
    int Fd = ::mkstemp(Name);
    EXPECT_GE(Fd, 0);
    if (Fd < 0)
      return;
    ssize_t Ignored = ::write(Fd, Source.data(), Source.size());
    (void)Ignored;
    ::close(Fd);
    Path = Name;
  }
  ~TempProgram() {
    if (!Path.empty())
      ::unlink(Path.c_str());
  }
};

// A small program that fully verifies under the Z3-free bounded pipeline.
const char *VerifyingProgram = "int x;\nrequires (x >= 0 && x <= 2);\n"
                               "{ x = x + 1; assert x >= 1; }\n";
const char *BoundedPipeline = "--pipeline=simplify,bounded";

//===----------------------------------------------------------------------===//
// Unit: round trips and the never-persist rule
//===----------------------------------------------------------------------===//

TEST(PersistentCacheUnit, RoundTripAcrossInstances) {
  TempDir D;
  {
    PersistentCache C(D.Path, "config test");
    C.load(); // missing file: cold, not corrupt
    EXPECT_FALSE(C.stats().LoadCorrupt);
    EXPECT_EQ(C.stats().Loaded, 0u);
    EXPECT_FALSE(C.lookup("k1").has_value());
    C.insert("k1", SatResult::Sat);
    C.insert("k2", SatResult::Unsat);
    EXPECT_EQ(C.stats().Appended, 2u);
    Status S = C.flush();
    ASSERT_TRUE(S.ok()) << S.message();
  }
  PersistentCache C2(D.Path, "config test");
  C2.load();
  EXPECT_FALSE(C2.stats().LoadCorrupt);
  EXPECT_EQ(C2.stats().Loaded, 2u);
  ASSERT_TRUE(C2.lookup("k1").has_value());
  EXPECT_EQ(C2.lookup("k1")->R, SatResult::Sat);
  ASSERT_TRUE(C2.lookup("k2").has_value());
  EXPECT_EQ(C2.lookup("k2")->R, SatResult::Unsat);
  EXPECT_FALSE(C2.lookup("k3").has_value());
  EXPECT_EQ(C2.stats().Hits, 4u);
  EXPECT_EQ(C2.stats().Misses, 1u);
}

TEST(PersistentCacheUnit, SecondProcessAppendsToTheSameFile) {
  TempDir D;
  {
    PersistentCache C(D.Path, "cfg");
    C.load();
    C.insert("a", SatResult::Sat);
    ASSERT_TRUE(C.flush().ok());
  }
  {
    PersistentCache C(D.Path, "cfg");
    C.load();
    EXPECT_EQ(C.stats().Loaded, 1u);
    C.insert("b", SatResult::Unsat);
    ASSERT_TRUE(C.flush().ok()); // append path, not a rewrite
  }
  PersistentCache C(D.Path, "cfg");
  C.load();
  EXPECT_FALSE(C.stats().LoadCorrupt);
  EXPECT_EQ(C.stats().Loaded, 2u);
  EXPECT_TRUE(C.lookup("a").has_value());
  EXPECT_TRUE(C.lookup("b").has_value());
}

TEST(PersistentCacheUnit, UnknownIsNeverPersisted) {
  TempDir D;
  {
    PersistentCache C(D.Path, "cfg");
    C.load();
    C.insert("gaveup", SatResult::Unknown);
    EXPECT_EQ(C.stats().Appended, 0u);
    EXPECT_FALSE(C.lookup("gaveup").has_value());
    ASSERT_TRUE(C.flush().ok());
  }
  PersistentCache C(D.Path, "cfg");
  C.load();
  EXPECT_EQ(C.stats().Loaded, 0u);
}

TEST(PersistentCacheUnit, DuplicateInsertIsIdempotent) {
  TempDir D;
  PersistentCache C(D.Path, "cfg");
  C.load();
  C.insert("k", SatResult::Sat);
  C.insert("k", SatResult::Sat);
  EXPECT_EQ(C.stats().Appended, 1u);
  ASSERT_TRUE(C.flush().ok());
  PersistentCache C2(D.Path, "cfg");
  C2.load();
  EXPECT_EQ(C2.stats().Loaded, 1u);
}

//===----------------------------------------------------------------------===//
// Unit: a `sat` entry's witness
//===----------------------------------------------------------------------===//

/// A key that declares every variable witnessModel() names.
const char *WitnessKey = "config cfg\n"
                         "var array plain E\n"
                         "var array r A\n"
                         "var int o y\n"
                         "var int plain x'3\n"
                         "var int r y\n"
                         "formula x'3 < y<o>\n";

WireModel witnessModel(int64_t Shift = 0) {
  WireModel M;
  M.Ints.push_back({{"x'3", VarTag::Plain, VarKind::Int}, -17 + Shift});
  M.Ints.push_back({{"y", VarTag::Orig, VarKind::Int}, 0});
  M.Ints.push_back({{"y", VarTag::Rel, VarKind::Int}, 4});
  M.Arrays.push_back({{"E", VarTag::Plain, VarKind::Array}, {0, {}}});
  M.Arrays.push_back({{"A", VarTag::Rel, VarKind::Array}, {3, {-1, 0, 9}}});
  return M;
}

/// The model lines of \p M, for comparing models.
std::string modelText(const std::optional<WireModel> &M) {
  std::string Out = M ? "model\n" : "no model\n";
  if (M)
    appendModelLines(Out, *M);
  return Out;
}

TEST(PersistentCacheUnit, WitnessRoundTripsAcrossInstances) {
  TempDir D;
  {
    PersistentCache C(D.Path, "cfg");
    C.load();
    C.insert(WitnessKey, SatResult::Sat, witnessModel());
    C.insert("config cfg\nformula true\n", SatResult::Sat, WireModel());
    C.insert("no witness", SatResult::Sat);
    // An unsat has no counterexample to keep.
    C.insert("refuted", SatResult::Unsat, witnessModel());
    ASSERT_TRUE(C.flush().ok());
  }
  PersistentCache C(D.Path, "cfg");
  C.load();
  EXPECT_FALSE(C.stats().LoadCorrupt) << C.stats().LoadDetail;
  EXPECT_EQ(C.stats().Loaded, 4u);
  std::optional<PersistentCache::Entry> E = C.lookup(WitnessKey, true);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->R, SatResult::Sat);
  EXPECT_EQ(modelText(E->Witness), modelText(witnessModel()));
  // The empty model is a witness, not the lack of one.
  E = C.lookup("config cfg\nformula true\n", true);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(modelText(E->Witness), modelText(WireModel()));
  // A `sat` without a witness serves a lookup that does not want one.
  EXPECT_FALSE(C.lookup("no witness", true).has_value());
  ASSERT_TRUE(C.lookup("no witness").has_value());
  EXPECT_FALSE(C.lookup("no witness")->Witness.has_value());
  E = C.lookup("refuted", true);
  ASSERT_TRUE(E.has_value());
  EXPECT_FALSE(E->Witness.has_value());
  EXPECT_EQ(C.stats().Misses, 1u);
}

TEST(PersistentCacheUnit, LaterRecordSupersedesTheWitness) {
  TempDir D;
  {
    PersistentCache C(D.Path, "cfg");
    C.load();
    EXPECT_FALSE(C.insert(WitnessKey, SatResult::Sat).has_value());
    ASSERT_TRUE(C.flush().ok());
  }
  {
    // The witness-less entry is a miss for a lookup that wants one; the
    // recomputed entry supersedes it with an appended record.
    PersistentCache C(D.Path, "cfg");
    C.load();
    EXPECT_FALSE(C.lookup(WitnessKey, true).has_value());
    EXPECT_EQ(modelText(C.insert(WitnessKey, SatResult::Sat, witnessModel())),
              modelText(witnessModel()));
    // The first witness stays: later inserts get it back.
    EXPECT_EQ(
        modelText(C.insert(WitnessKey, SatResult::Sat, witnessModel(1))),
        modelText(witnessModel()));
    EXPECT_EQ(C.stats().Appended, 1u);
    ASSERT_TRUE(C.flush().ok());
  }
  PersistentCache C(D.Path, "cfg");
  C.load();
  EXPECT_FALSE(C.stats().LoadCorrupt) << C.stats().LoadDetail;
  EXPECT_EQ(C.stats().Loaded, 1u);
  std::optional<PersistentCache::Entry> E = C.lookup(WitnessKey, true);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(modelText(E->Witness), modelText(witnessModel()));

  // Spliced files: of two records with the same verdict, the later
  // one's witness wins; records with different verdicts load cold.
  auto FileWith = [](const TempDir &Dir, SatResult R,
                     std::optional<WireModel> W) {
    PersistentCache C(Dir.Path, "cfg");
    C.load();
    C.insert(WitnessKey, R, std::move(W));
    EXPECT_TRUE(C.flush().ok());
    return readFileBytes(cacheFile(Dir));
  };
  TempDir D1, D2, D3;
  std::string First = FileWith(D1, SatResult::Sat, witnessModel());
  std::string Second = FileWith(D2, SatResult::Sat, witnessModel(1));
  std::string Refuted = FileWith(D3, SatResult::Unsat, std::nullopt);
  size_t HeaderLen = First.find('\n') + 1;
  writeFileBytes(cacheFile(D1), First + Second.substr(HeaderLen));
  PersistentCache Later(D1.Path, "cfg");
  Later.load();
  EXPECT_FALSE(Later.stats().LoadCorrupt) << Later.stats().LoadDetail;
  E = Later.lookup(WitnessKey, true);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(modelText(E->Witness), modelText(witnessModel(1)));
  writeFileBytes(cacheFile(D1), First + Refuted.substr(HeaderLen));
  PersistentCache Conflict(D1.Path, "cfg");
  Conflict.load();
  EXPECT_TRUE(Conflict.stats().LoadCorrupt);
  EXPECT_FALSE(Conflict.lookup(WitnessKey).has_value());
}

//===----------------------------------------------------------------------===//
// Unit: procedure contracts feed the cache key
//===----------------------------------------------------------------------===//

// Two procedures with byte-identical bodies but different `ensures`
// clauses must produce disjoint cache keys: the key is built from the
// VC query formulas, and the contract appears in every summary
// (consequence) and call-site (summary instantiation) obligation. A
// body-only key would let a warm cache serve f's verdicts to g.
TEST(PersistentCacheUnit, DifferentContractsNeverShareKeys) {
  // Keys of f's own summary obligations only: main's obligations are
  // deliberately identical across the two programs (same call site, same
  // callee requires), and identical queries sharing a key is the cache
  // working as intended.
  auto KeysFor = [](const char *Source) {
    relax::test::ParsedProgram P = relax::test::parseProgram(Source);
    EXPECT_TRUE(P.ok()) << P.diagnostics();
    Sema SemaPass(*P.Prog, P.Diags);
    EXPECT_TRUE(SemaPass.run().has_value());
    std::set<std::string> Keys;
    const Procedure *Proc = P.Prog->procedure(P.Ctx->sym("f"));
    EXPECT_NE(Proc, nullptr);
    DiagnosticEngine Diags;
    UnaryVCGen Gen(*P.Ctx, *P.Prog, JudgmentKind::Original, Diags);
    Gen.genTriple(Proc->requiresClause() ? Proc->requiresClause()
                                         : P.Ctx->trueExpr(),
                  Proc->body(),
                  Proc->ensuresClause() ? Proc->ensuresClause()
                                        : P.Ctx->trueExpr());
    for (const VC &C : Gen.take().VCs)
      Keys.insert(persistentCacheKey("cfg", {vcQuery(*P.Ctx, C)},
                                     P.Ctx->symbols()));
    return Keys;
  };
  const char *A = "int x;\n"
                  "proc f() modifies (x) requires (x >= 0); "
                  "ensures (x >= 0); { x = x + 1; }\n"
                  "proc main() requires (x >= 0); { call f(); }";
  // Same bodies everywhere; only f's ensures differs.
  const char *B = "int x;\n"
                  "proc f() modifies (x) requires (x >= 0); "
                  "ensures (x >= 1); { x = x + 1; }\n"
                  "proc main() requires (x >= 0); { call f(); }";
  std::set<std::string> KA = KeysFor(A);
  std::set<std::string> KB = KeysFor(B);
  ASSERT_FALSE(KA.empty());
  ASSERT_FALSE(KB.empty());
  for (const std::string &K : KA)
    EXPECT_EQ(KB.count(K), 0u)
        << "shared cache key across different contracts:\n"
        << K;
}

//===----------------------------------------------------------------------===//
// Unit: learning knobs feed the config fingerprint
//===----------------------------------------------------------------------===//

// Learning changes which budget an identical query trips (propagation-
// skipped values are uncounted candidates), so configs that differ only
// in a conflict-driven-search knob must never share persistent-cache
// keys. Pin each knob separately: a fingerprint that dropped one would
// let a learning-on verdict satisfy a learning-off run.
TEST(PersistentCacheUnit, LearningKnobsNeverShareKeys) {
  PortfolioOptions Base;
  auto Fp = [&](auto Tweak) {
    PortfolioOptions O = Base;
    Tweak(O.Bounded);
    return portfolioConfigFingerprint(O, /*HaveSmtBackend=*/false);
  };
  std::string Ref = Fp([](BoundedSolverOptions &) {});
  std::string NoLearn = Fp([](BoundedSolverOptions &B) { B.Learning = false; });
  std::string NoRestart =
      Fp([](BoundedSolverOptions &B) { B.Restarts = false; });
  std::string Capped = Fp([](BoundedSolverOptions &B) { B.MaxNogoods = 7; });
  EXPECT_NE(Ref, NoLearn);
  EXPECT_NE(Ref, NoRestart);
  EXPECT_NE(Ref, Capped);
  EXPECT_NE(NoLearn, NoRestart);

  // And the fingerprint difference carries through to the on-disk key.
  AstContext Ctx;
  const BoolExpr *Q = Ctx.cmp(CmpOp::Gt, Ctx.var("x"), Ctx.intLit(0));
  EXPECT_NE(persistentCacheKey(Ref, {Q}, Ctx.symbols()),
            persistentCacheKey(NoLearn, {Q}, Ctx.symbols()));
}

//===----------------------------------------------------------------------===//
// Unit: verify-on-hit sampling and the divergence alarm
//===----------------------------------------------------------------------===//

TEST(PersistentCacheVerify, SampleIsDeterministicAndRateShaped) {
  // Pure function of (key, ppm): edge rates are exact, and a middle rate
  // must select a nontrivial subset.
  unsigned Sampled = 0;
  for (int I = 0; I != 200; ++I) {
    std::string Key = "key-" + std::to_string(I);
    EXPECT_FALSE(PersistentCache::sampledForVerify(Key, 0));
    EXPECT_TRUE(PersistentCache::sampledForVerify(Key, 1'000'000));
    bool S = PersistentCache::sampledForVerify(Key, 500'000);
    EXPECT_EQ(S, PersistentCache::sampledForVerify(Key, 500'000));
    Sampled += S;
  }
  EXPECT_GT(Sampled, 0u);
  EXPECT_LT(Sampled, 200u);
}

TEST(PersistentCacheVerify, SampledHitIsWithheldAndVerifiedOnReinsert) {
  TempDir D;
  {
    PersistentCache C(D.Path, "cfg");
    C.load();
    C.insert("k", SatResult::Sat);
    ASSERT_TRUE(C.flush().ok());
  }
  PersistentCache C(D.Path, "cfg", /*VerifyPpm=*/1'000'000);
  C.load();
  // The hit is declined so the caller recomputes...
  EXPECT_FALSE(C.lookup("k").has_value());
  EXPECT_EQ(C.stats().VerifySampled, 1u);
  EXPECT_EQ(C.stats().Hits, 0u);
  // ...and the matching recomputation closes the audit.
  C.insert("k", SatResult::Sat);
  EXPECT_EQ(C.stats().VerifiedHits, 1u);
  EXPECT_EQ(C.stats().Appended, 0u); // already stored, nothing fresh
}

TEST(PersistentCacheVerify, DivergenceFiresTheHandler) {
  TempDir D;
  {
    PersistentCache C(D.Path, "cfg");
    C.load();
    C.insert("k", SatResult::Sat);
    ASSERT_TRUE(C.flush().ok());
  }
  PersistentCache C(D.Path, "cfg", /*VerifyPpm=*/1'000'000);
  C.load();
  EXPECT_FALSE(C.lookup("k").has_value()); // sampled
  std::string SeenKey;
  SatResult SeenStored = SatResult::Unknown,
            SeenRecomputed = SatResult::Unknown;
  C.setDivergenceHandler(
      [&](const std::string &Key, SatResult Stored, SatResult Recomputed) {
        SeenKey = Key;
        SeenStored = Stored;
        SeenRecomputed = Recomputed;
      });
  C.insert("k", SatResult::Unsat); // contradicts the stored Sat
  EXPECT_EQ(SeenKey, "k");
  EXPECT_EQ(SeenStored, SatResult::Sat);
  EXPECT_EQ(SeenRecomputed, SatResult::Unsat);
  EXPECT_EQ(C.stats().VerifiedHits, 0u);
}

//===----------------------------------------------------------------------===//
// Unit: corruption shapes — cold, never a crash, never a verdict
//===----------------------------------------------------------------------===//

/// Writes a two-entry cache and returns its bytes.
std::string makeValidCache(const TempDir &D) {
  PersistentCache C(D.Path, "cfg");
  C.load();
  C.insert("k1", SatResult::Sat);
  C.insert("k2", SatResult::Unsat);
  EXPECT_TRUE(C.flush().ok());
  return readFileBytes(cacheFile(D));
}

/// Loads the (damaged) cache and checks the full cold contract, then
/// checks that the next flush rewrites a clean file.
void expectColdThenRecovers(const TempDir &D) {
  PersistentCache C(D.Path, "cfg");
  C.load();
  EXPECT_TRUE(C.stats().LoadCorrupt) << C.stats().LoadDetail;
  EXPECT_EQ(C.stats().Loaded, 0u);
  EXPECT_FALSE(C.lookup("k1").has_value()); // never serve from damage
  EXPECT_FALSE(C.lookup("k2").has_value());
  C.insert("fresh", SatResult::Sat);
  Status S = C.flush();
  ASSERT_TRUE(S.ok()) << S.message();

  PersistentCache C2(D.Path, "cfg");
  C2.load();
  EXPECT_FALSE(C2.stats().LoadCorrupt) << C2.stats().LoadDetail;
  EXPECT_EQ(C2.stats().Loaded, 1u);
  EXPECT_TRUE(C2.lookup("fresh").has_value());
}

TEST(PersistentCacheCorruption, TruncatedHeaderLoadsCold) {
  TempDir D;
  std::string Bytes = makeValidCache(D);
  writeFileBytes(cacheFile(D), Bytes.substr(0, 5));
  expectColdThenRecovers(D);
}

TEST(PersistentCacheCorruption, WrongHeaderLoadsCold) {
  TempDir D;
  makeValidCache(D);
  writeFileBytes(cacheFile(D), "relaxc-verdict-cache 999\njunk");
  expectColdThenRecovers(D);
}

TEST(PersistentCacheCorruption, GarbageTrailerLoadsCold) {
  TempDir D;
  std::string Bytes = makeValidCache(D);
  writeFileBytes(cacheFile(D), Bytes + "garbage that is no record");
  expectColdThenRecovers(D);
}

TEST(PersistentCacheCorruption, PartialFinalAppendLoadsCold) {
  TempDir D;
  std::string Bytes = makeValidCache(D);
  // A crash mid-append leaves half a record header...
  writeFileBytes(cacheFile(D), Bytes + std::string("\x40\x00\x00", 3));
  expectColdThenRecovers(D);
}

TEST(PersistentCacheCorruption, TruncatedRecordBodyLoadsCold) {
  TempDir D;
  std::string Bytes = makeValidCache(D);
  // ...or a full header whose promised body never made it to disk.
  std::string Frame("\xF0\x00\x00\x00", 4); // len=240, way past EOF
  Frame += std::string("\x12\x34\x56\x78", 4);
  Frame += "short";
  writeFileBytes(cacheFile(D), Bytes + Frame);
  expectColdThenRecovers(D);
}

TEST(PersistentCacheCorruption, CrcFlipLoadsCold) {
  TempDir D;
  std::string Bytes = makeValidCache(D);
  Bytes[Bytes.size() - 1] ^= 0x01; // flip a payload bit in the last record
  writeFileBytes(cacheFile(D), Bytes);
  expectColdThenRecovers(D);
}

TEST(PersistentCacheCorruption, ConflictingDuplicatesLoadCold) {
  // Two crc-valid records disagreeing about one key: the file as a whole
  // is untrustworthy, so nothing from it may be served. The conflicting
  // file is spliced from two separately valid caches (records are
  // position-independent past the header).
  TempDir D1, D2;
  std::string SatBytes, UnsatBytes, Header;
  {
    PersistentCache C(D1.Path, "cfg");
    C.load();
    C.insert("k1", SatResult::Sat);
    ASSERT_TRUE(C.flush().ok());
    SatBytes = readFileBytes(cacheFile(D1));
  }
  {
    PersistentCache C(D2.Path, "cfg");
    C.load();
    C.insert("k1", SatResult::Unsat);
    ASSERT_TRUE(C.flush().ok());
    UnsatBytes = readFileBytes(cacheFile(D2));
  }
  size_t HeaderLen = SatBytes.find('\n') + 1;
  ASSERT_EQ(SatBytes.substr(0, HeaderLen), UnsatBytes.substr(0, HeaderLen));
  writeFileBytes(cacheFile(D1), SatBytes + UnsatBytes.substr(HeaderLen));
  expectColdThenRecovers(D1);
}

TEST(PersistentCacheCorruption, EmptyFileLoadsCold) {
  TempDir D;
  makeValidCache(D);
  writeFileBytes(cacheFile(D), "");
  expectColdThenRecovers(D);
}

TEST(PersistentCacheCorruption, VersionOneFileLoadsColdAndIsRewritten) {
  // A file written before entries carried witnesses: its header names
  // format 1 (its model-less records are otherwise valid).
  TempDir D;
  std::string Bytes = makeValidCache(D);
  ASSERT_EQ(Bytes.rfind("relaxc-verdict-cache 2\n", 0), 0u);
  Bytes[std::strlen("relaxc-verdict-cache ")] = '1';
  writeFileBytes(cacheFile(D), Bytes);
  expectColdThenRecovers(D);
  EXPECT_EQ(readFileBytes(cacheFile(D)).rfind("relaxc-verdict-cache 2\n", 0),
            0u);
}

/// CRC-32 (zlib polynomial), as the cache frames its records.
uint32_t crc32(const std::string &Data) {
  uint32_t C = 0xFFFFFFFFu;
  for (unsigned char B : Data) {
    C ^= B;
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

/// One crc-valid record holding \p Payload.
std::string frameRecord(const std::string &Payload) {
  std::string Out;
  for (uint32_t V : {static_cast<uint32_t>(Payload.size()), crc32(Payload)})
    for (int Shift = 0; Shift != 32; Shift += 8)
      Out.push_back(static_cast<char>((V >> Shift) & 0xFF));
  return Out + Payload;
}

TEST(PersistentCacheCorruption, MalformedWitnessesLoadCold) {
  TempDir D;
  std::string Valid = makeValidCache(D);
  // A well-formed witness record loads, so the framing is right...
  writeFileBytes(cacheFile(D),
                 Valid + frameRecord("verdict sat model\nmodel-int o y 3\n" +
                                     std::string(WitnessKey)));
  {
    PersistentCache C(D.Path, "cfg");
    C.load();
    EXPECT_FALSE(C.stats().LoadCorrupt) << C.stats().LoadDetail;
    EXPECT_EQ(C.stats().Loaded, 3u);
  }
  // ...and each of these damages the file.
  for (const std::string &Payload : {
           // malformed model lines
           "verdict sat model\nmodel-int o y three\n" +
               std::string(WitnessKey),
           "verdict sat model\nmodel-int q y 3\n" + std::string(WitnessKey),
           "verdict sat model\nmodel-array r A 2 1\n" +
               std::string(WitnessKey),
           "verdict sat model\nmodel-int o y 3 4\n" + std::string(WitnessKey),
           // a model on an unsat record, or on a record without one
           "verdict unsat model\nmodel-int o y 3\n" + std::string(WitnessKey),
           "verdict unsat\nmodel-int o y 3\n" + std::string(WitnessKey),
           "verdict sat\nmodel-int o y 3\n" + std::string(WitnessKey),
           // a model variable the key does not declare
           "verdict sat model\nmodel-int o z 3\n" + std::string(WitnessKey),
           "verdict sat model\nmodel-int plain y 3\n" +
               std::string(WitnessKey),
           "verdict sat model\nmodel-array r y 0\n" + std::string(WitnessKey),
           // a witness with no key after it
           std::string("verdict sat model\nmodel-int o y 3\n"),
       }) {
    SCOPED_TRACE(Payload);
    writeFileBytes(cacheFile(D), Valid + frameRecord(Payload));
    expectColdThenRecovers(D);
  }
}

//===----------------------------------------------------------------------===//
// Unit: the cache-read / cache-write fault sites
//===----------------------------------------------------------------------===//

TEST(PersistentCacheFaults, InjectedReadFaultLoadsColdNotCrashed) {
  TempDir D;
  makeValidCache(D);
  {
    ScopedFaults F("seed=3,cache-read=1");
    ASSERT_TRUE(F.status().ok()) << F.status().message();
    PersistentCache C(D.Path, "cfg");
    C.load();
    EXPECT_TRUE(C.stats().LoadCorrupt);
    EXPECT_NE(C.stats().LoadDetail.find("cache-read"), std::string::npos)
        << C.stats().LoadDetail;
    EXPECT_FALSE(C.lookup("k1").has_value());
  }
  // The file itself was untouched: a fault-free load is fully warm.
  PersistentCache C(D.Path, "cfg");
  C.load();
  EXPECT_FALSE(C.stats().LoadCorrupt);
  EXPECT_EQ(C.stats().Loaded, 2u);
}

TEST(PersistentCacheFaults, InjectedWriteFaultTearsTheFileButStaysSound) {
  TempDir D;
  {
    PersistentCache C(D.Path, "cfg");
    C.load();
    C.insert("k1", SatResult::Sat);
    C.insert("k2", SatResult::Unsat);
    ScopedFaults F("seed=3,cache-write=1");
    ASSERT_TRUE(F.status().ok()) << F.status().message();
    Status S = C.flush();
    EXPECT_FALSE(S.ok());
    EXPECT_NE(S.message().find("cache-write"), std::string::npos)
        << S.message();
  }
  // The torn file must load cold (or be absent), and a clean rewrite
  // recovers — the standard corruption contract.
  PersistentCache C(D.Path, "cfg");
  C.load();
  EXPECT_EQ(C.stats().Loaded, 0u);
  EXPECT_FALSE(C.lookup("k1").has_value());
  C.insert("fresh", SatResult::Sat);
  ASSERT_TRUE(C.flush().ok());
  PersistentCache C2(D.Path, "cfg");
  C2.load();
  EXPECT_FALSE(C2.stats().LoadCorrupt);
  EXPECT_EQ(C2.stats().Loaded, 1u);
}

//===----------------------------------------------------------------------===//
// End-to-end: cold vs warm driver runs
//===----------------------------------------------------------------------===//

TEST(PersistentCacheDriver, CaseStudiesColdWarmBitIdentical) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  RELAXC_SKIP_WITHOUT_Z3();
  // The case studies verify; their mutants are refuted, and a refuted
  // obligation's entry carries the counterexample the cold run printed.
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const char *Ex : relax::test::CaseStudies)
    if (std::optional<std::string> Source = relax::test::slurpExample(Ex))
      Programs.emplace_back(Ex, *Source);
  ASSERT_EQ(Programs.size(), std::size(relax::test::CaseStudies));
  for (const relax::test::Mutation &M : relax::test::ExampleMutants)
    if (std::optional<std::string> Source = relax::test::mutantSource(M))
      Programs.emplace_back(relax::test::mutantName(M), *Source);
  for (const auto &[Name, Source] : Programs) {
    TempProgram P(Source);
    int Want = Name.find(" mutated to ") == std::string::npos ? 0 : 1;
    for (const char *Config : {"", "--pipeline=simplify,bounded,z3"}) {
      std::string Tag = Name + " [" + Config + "]";
      TempDir D;
      std::vector<std::string> Base = {"verify", P.Path,
                                       "--cache-dir=" + D.Path, "--verbose"};
      if (*Config)
        Base.push_back(Config);
      RunResult Cold = runDriver(Base);
      RunResult Warm = runDriver(Base);
      EXPECT_EQ(Cold.Exit, Want) << Tag << "\n" << Cold.Output;
      EXPECT_EQ(Warm.Exit, Cold.Exit) << Tag;
      EXPECT_EQ(Warm.Output, Cold.Output) << Tag;

      // A third (still warm) run with stats: every obligation settles
      // from the cache, so the portfolio never runs and nothing new is
      // appended.
      std::vector<std::string> WithStats = Base;
      WithStats.push_back("--solver-stats");
      RunResult Stats = runDriver(WithStats);
      EXPECT_EQ(Stats.Exit, Want) << Tag << "\n" << Stats.Output;
      EXPECT_NE(Stats.Output.find("queries: 0,"), std::string::npos)
          << Tag << "\n" << Stats.Output;
      EXPECT_TRUE(std::regex_search(
          Stats.Output,
          std::regex("persistent cache: [1-9][0-9]* entries loaded, "
                     "[1-9][0-9]* hits, 0 appended")))
          << Tag << "\n" << Stats.Output;
    }
  }
}

TEST(PersistentCacheDriver, WarmRunSettlesEverythingWithoutZ3) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(VerifyingProgram);
  TempDir D;
  std::vector<std::string> Base = {"verify", P.Path, BoundedPipeline,
                                   "--cache-dir=" + D.Path};
  RunResult Cold = runDriver(Base);
  EXPECT_EQ(Cold.Exit, 0) << Cold.Output;

  std::vector<std::string> WithStats = Base;
  WithStats.push_back("--solver-stats");
  RunResult Warm = runDriver(WithStats);
  EXPECT_EQ(Warm.Exit, 0) << Warm.Output;
  EXPECT_NE(Warm.Output.find("queries: 0,"), std::string::npos) << Warm.Output;
  EXPECT_TRUE(std::regex_search(
      Warm.Output, std::regex("persistent cache: [1-9][0-9]* entries loaded, "
                              "[1-9][0-9]* hits, 0 appended")))
      << Warm.Output;
}

TEST(PersistentCacheDriver, MissingParentDirectoriesAreCreated) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // A --cache-dir= two levels below an existing directory: the first run
  // creates the whole path, so the second settles everything from disk.
  TempProgram P(VerifyingProgram);
  TempDir D;
  std::vector<std::string> Base = {"verify", P.Path, BoundedPipeline,
                                   "--cache-dir=" + D.Path + "/a/b"};
  RunResult Cold = runDriver(Base);
  EXPECT_EQ(Cold.Exit, 0) << Cold.Output;
  EXPECT_EQ(Cold.Output.find("cannot create cache directory"),
            std::string::npos)
      << Cold.Output;

  std::vector<std::string> WithStats = Base;
  WithStats.push_back("--solver-stats");
  RunResult Warm = runDriver(WithStats);
  EXPECT_EQ(Warm.Exit, 0) << Warm.Output;
  EXPECT_NE(Warm.Output.find("queries: 0,"), std::string::npos) << Warm.Output;
}

TEST(PersistentCacheDriver, GeneratedProgramsColdWarmBitIdentical) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  // Mixed-verdict corpus (Proved / Failed / budget-tripped Unknown all
  // occur): identity must hold for every exit code, and gave-ups must
  // recompute on the warm run without changing the report.
  for (uint64_t Seed : {7u, 21u, 99u}) {
    relax::test::ProgramGen Gen(Seed);
    TempProgram P(Gen.gen());
    TempDir D;
    std::vector<std::string> Base = {"verify", P.Path, BoundedPipeline,
                                     "--cache-dir=" + D.Path, "--verbose"};
    RunResult Cold = runDriver(Base);
    RunResult Warm = runDriver(Base);
    EXPECT_EQ(Warm.Exit, Cold.Exit) << "seed " << Seed << "\n" << Cold.Output;
    EXPECT_EQ(Warm.Output, Cold.Output) << "seed " << Seed;
  }
  // Same pin over the modular corpus: per-procedure summary obligations
  // and call-site instantiations round-trip through the cache too.
  relax::test::ProgramGen::Options GO;
  GO.Procedures = 2;
  for (uint64_t Seed : {3u, 17u, 58u}) {
    relax::test::ProgramGen Gen(Seed, GO);
    TempProgram P(Gen.gen());
    TempDir D;
    std::vector<std::string> Base = {"verify", P.Path, BoundedPipeline,
                                     "--cache-dir=" + D.Path, "--verbose"};
    RunResult Cold = runDriver(Base);
    RunResult Warm = runDriver(Base);
    EXPECT_EQ(Warm.Exit, Cold.Exit)
        << "modular seed " << Seed << "\n" << Cold.Output;
    EXPECT_EQ(Warm.Output, Cold.Output)
        << "modular seed " << Seed;
  }
  // Under the default configuration (Z3 alone), over the mixed corpus's
  // generated programs: refuted asserts and convergence checks print the
  // cold run's counterexamples from the cache.
  if (!relax::test::haveZ3())
    return;
  std::optional<std::vector<std::pair<std::string, std::string>>> Corpus =
      relax::test::mixedCorpus();
  ASSERT_TRUE(Corpus.has_value());
  size_t Seeds = 0;
  for (const auto &[Name, Source] : *Corpus) {
    if (Name.rfind("seed ", 0) != 0)
      continue;
    ++Seeds;
    TempProgram P(Source);
    TempDir D;
    std::vector<std::string> Base = {"verify", P.Path, "--cache-dir=" + D.Path,
                                     "--verbose"};
    RunResult Cold = runDriver(Base);
    RunResult Warm = runDriver(Base);
    EXPECT_EQ(Warm.Exit, Cold.Exit) << Name << "\n" << Cold.Output;
    EXPECT_EQ(Warm.Output, Cold.Output) << Name;
  }
  EXPECT_EQ(Seeds, 50u);
}

TEST(PersistentCacheDriver, CorruptedCacheDegradesToColdRun) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(VerifyingProgram);
  TempDir D;
  std::vector<std::string> Base = {"verify", P.Path, BoundedPipeline,
                                   "--cache-dir=" + D.Path, "--verbose"};
  RunResult Cold = runDriver(Base);
  EXPECT_EQ(Cold.Exit, 0) << Cold.Output;

  // Truncate the cache mid-file: the next run must behave exactly like a
  // cold one (same report, same exit code, no crash, no error)...
  std::string Bytes = readFileBytes(cacheFile(D));
  ASSERT_GT(Bytes.size(), 10u);
  writeFileBytes(cacheFile(D), Bytes.substr(0, 10));
  RunResult Recover = runDriver(Base);
  EXPECT_EQ(Recover.Exit, Cold.Exit) << Recover.Output;
  EXPECT_EQ(Recover.Output, Cold.Output);

  // ...and it rewrites the file, so the run after that is warm again.
  std::vector<std::string> WithStats = Base;
  WithStats.push_back("--solver-stats");
  RunResult Warm = runDriver(WithStats);
  EXPECT_EQ(Warm.Exit, 0) << Warm.Output;
  EXPECT_TRUE(std::regex_search(
      Warm.Output, std::regex("persistent cache: [1-9][0-9]* entries loaded, "
                              "[1-9][0-9]* hits, 0 appended")))
      << Warm.Output;
}

TEST(PersistentCacheDriver, CacheVerifySamplingAuditsEveryHit) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(VerifyingProgram);
  TempDir D;
  RunResult Cold = runDriver({"verify", P.Path, BoundedPipeline,
                              "--cache-dir=" + D.Path, "--verbose"});
  EXPECT_EQ(Cold.Exit, 0) << Cold.Output;

  // ppm=1000000: every hit is withheld, recomputed, and checked. The
  // report must not change, and every sampled entry must verify.
  RunResult Audit = runDriver({"verify", P.Path, BoundedPipeline,
                               "--cache-dir=" + D.Path, "--verbose",
                               "--cache-verify=1000000", "--solver-stats"});
  EXPECT_EQ(Audit.Exit, 0) << Audit.Output;
  std::smatch M;
  ASSERT_TRUE(std::regex_search(
      Audit.Output, M,
      std::regex("([0-9]+) verify-sampled \\(([0-9]+) verified\\)")))
      << Audit.Output;
  EXPECT_EQ(M[1].str(), M[2].str()) << Audit.Output; // all sampled verified
  EXPECT_NE(M[1].str(), "0") << Audit.Output;
}

//===----------------------------------------------------------------------===//
// Chaos: safe under RELAXC_FAULTS cache sites in the environment
//===----------------------------------------------------------------------===//

// These tests assert only that a cold and a warm run agree — whatever the
// armed fault rates do to the cache (failed loads, torn writes), the
// report and exit code must be those of a fault-free run. Warnings about
// an unsaved cache are allowed; crashes and changed verdicts are not.

TEST(PersistentCacheChaos, ColdWarmAgreeOnVerifyingProgram) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P(VerifyingProgram);
  TempDir D;
  std::vector<std::string> Base = {"verify", P.Path, BoundedPipeline,
                                   "--cache-dir=" + D.Path, "--verbose"};
  RunResult Cold = runDriver(Base);
  RunResult Warm = runDriver(Base);
  EXPECT_EQ(Cold.Exit, 0) << Cold.Output;
  EXPECT_EQ(Warm.Exit, Cold.Exit) << Warm.Output;
  EXPECT_EQ(stripWarnings(Warm.Output),
            stripWarnings(Cold.Output));
}

TEST(PersistentCacheChaos, ColdWarmAgreeOnRefutedProgram) {
  RELAXC_SKIP_WITHOUT_DRIVER();
  TempProgram P("int x;\nrequires (x == 0);\n{ assert x == 1; }\n");
  TempDir D;
  std::vector<std::string> Base = {"verify", P.Path, BoundedPipeline,
                                   "--cache-dir=" + D.Path};
  RunResult Cold = runDriver(Base);
  RunResult Warm = runDriver(Base);
  EXPECT_EQ(Cold.Exit, 1) << Cold.Output;
  EXPECT_EQ(Warm.Exit, Cold.Exit) << Warm.Output;
  EXPECT_EQ(stripWarnings(Warm.Output),
            stripWarnings(Cold.Output));
}

} // namespace
