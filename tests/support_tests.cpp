//===- support_tests.cpp - Unit tests for the support library -----------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/Hashing.h"
#include "support/HugePageHeap.h"
#include "support/Interner.h"
#include "support/Random.h"
#include "support/SourceManager.h"
#include "support/Status.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

using namespace relax;

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, AllocatesAlignedMemory) {
  Arena A;
  for (size_t Align : {1, 2, 4, 8, 16, 64}) {
    void *P = A.allocate(10, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u);
  }
}

TEST(Arena, MakeConstructsObjects) {
  Arena A;
  struct Point {
    int X, Y;
    Point(int X, int Y) : X(X), Y(Y) {}
  };
  Point *P = A.make<Point>(3, 4);
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
}

TEST(Arena, LargeAllocationsGetTheirOwnSlab) {
  Arena A;
  void *P = A.allocate(1 << 20, 8);
  ASSERT_NE(P, nullptr);
  // Followup small allocations still work.
  void *Q = A.allocate(16, 8);
  ASSERT_NE(Q, nullptr);
  EXPECT_GE(A.bytesAllocated(), (1u << 20) + 16u);
}

TEST(Arena, CopyArrayCopiesContent) {
  Arena A;
  int Data[] = {1, 2, 3};
  int *Copy = A.copyArray(Data, 3);
  Data[0] = 99;
  EXPECT_EQ(Copy[0], 1);
  EXPECT_EQ(Copy[2], 3);
}

TEST(Arena, CopyEmptyArrayReturnsNull) {
  Arena A;
  int *Copy = A.copyArray<int>(nullptr, 0);
  EXPECT_EQ(Copy, nullptr);
}

TEST(Arena, ManySmallAllocationsSpanSlabs) {
  Arena A;
  std::set<void *> Seen;
  for (int I = 0; I < 10000; ++I)
    Seen.insert(A.allocate(64, 8));
  EXPECT_EQ(Seen.size(), 10000u);
}

//===----------------------------------------------------------------------===//
// Interner
//===----------------------------------------------------------------------===//

TEST(Interner, SameTextSameSymbol) {
  Interner I;
  EXPECT_EQ(I.intern("x"), I.intern("x"));
  EXPECT_NE(I.intern("x"), I.intern("y"));
}

TEST(Interner, ResolvesText) {
  Interner I;
  Symbol S = I.intern("hello");
  EXPECT_EQ(I.text(S), "hello");
}

TEST(Interner, DefaultSymbolIsInvalid) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
  Interner I;
  EXPECT_TRUE(I.intern("a").isValid());
}

TEST(Interner, FreshAvoidsCollisions) {
  Interner I;
  Symbol X = I.intern("x");
  Symbol F1 = I.fresh(X);
  Symbol F2 = I.fresh(X);
  EXPECT_NE(F1, X);
  EXPECT_NE(F2, X);
  EXPECT_NE(F1, F2);
}

TEST(Interner, FreshOfFreshStaysShort) {
  Interner I;
  Symbol X = I.intern("x");
  Symbol F = I.fresh(X);
  Symbol FF = I.fresh(F);
  // The freshness suffix is replaced, not stacked.
  EXPECT_EQ(I.text(FF).find("''"), std::string_view::npos);
}

TEST(Interner, FreshAvoidsPreexistingNames) {
  Interner I;
  I.intern("x'1");
  Symbol F = I.fresh(I.intern("x"));
  EXPECT_NE(I.text(F), "x'1");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsErrors) {
  DiagnosticEngine D;
  D.warning(SourceLoc(1, 1), "w");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(2, 3), "e");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
}

TEST(Diagnostics, RendersLocationAndSeverity) {
  DiagnosticEngine D;
  D.setFileName("foo.rlx");
  D.error(SourceLoc(7, 9), "bad thing");
  EXPECT_EQ(D.render(), "foo.rlx:7:9: error: bad thing\n");
}

TEST(Diagnostics, RendersWithoutLocation) {
  DiagnosticEngine D;
  D.setFileName("f");
  D.note(SourceLoc(), "context");
  EXPECT_EQ(D.render(), "f: note: context\n");
}

TEST(Diagnostics, RollbackRemovesDiagnosticsAndErrorCount) {
  DiagnosticEngine D;
  D.error(SourceLoc(1, 1), "keep");
  size_t CP = D.checkpoint();
  D.error(SourceLoc(2, 2), "drop");
  D.warning(SourceLoc(3, 3), "drop too");
  D.rollback(CP);
  EXPECT_EQ(D.diagnostics().size(), 1u);
  EXPECT_EQ(D.errorCount(), 1u);
}

//===----------------------------------------------------------------------===//
// SourceManager
//===----------------------------------------------------------------------===//

TEST(SourceManager, MapsOffsetsToLineColumn) {
  SourceManager SM;
  SM.setBuffer("t", "ab\ncde\nf");
  EXPECT_EQ(SM.locForOffset(0), SourceLoc(1, 1));
  EXPECT_EQ(SM.locForOffset(1), SourceLoc(1, 2));
  EXPECT_EQ(SM.locForOffset(3), SourceLoc(2, 1));
  EXPECT_EQ(SM.locForOffset(5), SourceLoc(2, 3));
  EXPECT_EQ(SM.locForOffset(7), SourceLoc(3, 1));
}

TEST(SourceManager, LineTextStripsNewline) {
  SourceManager SM;
  SM.setBuffer("t", "ab\ncde\r\nf");
  EXPECT_EQ(SM.lineText(1), "ab");
  EXPECT_EQ(SM.lineText(2), "cde");
  EXPECT_EQ(SM.lineText(3), "f");
  EXPECT_EQ(SM.lineText(4), "");
}

TEST(SourceManager, LoadMissingFileFails) {
  SourceManager SM;
  Status S = SM.loadFile("/nonexistent/path/abc.rlx");
  EXPECT_FALSE(S.ok());
}

//===----------------------------------------------------------------------===//
// Status / Result
//===----------------------------------------------------------------------===//

TEST(Status, SuccessAndError) {
  EXPECT_TRUE(Status::success().ok());
  Status E = Status::error("boom");
  EXPECT_FALSE(E.ok());
  EXPECT_EQ(E.message(), "boom");
}

TEST(ResultT, HoldsValueOrError) {
  Result<int> V(42);
  ASSERT_TRUE(V.ok());
  EXPECT_EQ(*V, 42);
  Result<int> E = Result<int>::error("nope");
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.message(), "nope");
}

TEST(ResultT, TakeMovesValue) {
  Result<std::string> R(std::string("abc"));
  std::string S = std::move(R).take();
  EXPECT_EQ(S, "abc");
}

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 A(7), B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64, RangeIsInclusive) {
  SplitMix64 R(1);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(SplitMix64, BoolProbabilityRoughlyHonored) {
  SplitMix64 R(3);
  int Trues = 0;
  for (int I = 0; I < 10000; ++I)
    Trues += R.nextBool(1, 4) ? 1 : 0;
  EXPECT_GT(Trues, 2000);
  EXPECT_LT(Trues, 3000);
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(Hashing, MixSpreadsSmallInputs) {
  std::set<uint64_t> Out;
  for (uint64_t I = 0; I < 1000; ++I)
    Out.insert(hashMix(I));
  EXPECT_EQ(Out.size(), 1000u);
}

TEST(Hashing, CombineIsOrderSensitive) {
  uint64_t A = hashCombine(hashCombine(0, 1), 2);
  uint64_t B = hashCombine(hashCombine(0, 2), 1);
  EXPECT_NE(A, B);
}

//===----------------------------------------------------------------------===//
// HugePageHeap
//===----------------------------------------------------------------------===//

namespace {

/// The bytes of one of the two hash tables Z3_mk_context_rc mallocs.
constexpr size_t Z3TableBytes = 8519688;

/// Runs in a forked child: reserves the heap twice, mallocs and writes a
/// Z3-table-sized block, and exits 0 when the block's middle byte lies in
/// a mapping advised for huge pages. The middle, not the first byte: the
/// block may start below the reserve's first 2 MiB boundary.
[[noreturn]] void mallocZ3TableAndExit() {
  reserveHugePageHeap();
  reserveHugePageHeap(); // a second call is harmless
  auto *Block = static_cast<unsigned char *>(std::malloc(Z3TableBytes));
  if (!Block) {
    std::fprintf(stderr, "malloc failed\n");
    std::_Exit(1);
  }
  std::memset(Block, 0x5a, Z3TableBytes);
  uintptr_t Middle = reinterpret_cast<uintptr_t>(Block) + Z3TableBytes / 2;
  for (const relax::test::Mapping &M :
       relax::test::readSmaps("/proc/self/smaps")) {
    if (Middle < M.Begin || Middle >= M.End)
      continue;
    if (M.hasFlag("hg"))
      std::_Exit(0);
    std::fprintf(stderr, "the block's middle lies in %s (VmFlags:%s)\n",
                 M.Name.empty() ? "an anonymous mapping" : M.Name.c_str(),
                 M.VmFlags.c_str());
    std::_Exit(1);
  }
  std::fprintf(stderr, "no mapping holds the block's middle\n");
  std::_Exit(1);
}

} // namespace

TEST(HugePageHeap, AZ3TableLandsInAHugePageAdvisedMapping) {
  RELAXC_SKIP_WITHOUT_HUGE_PAGES();
  // In a forked child, so this suite's own heap is left alone. The kernel
  // may still back the mapping with small pages, so the pin is the
  // advice (VmFlags `hg`), not AnonHugePages.
  EXPECT_EXIT(mallocZ3TableAndExit(), ::testing::ExitedWithCode(0), "");
}
