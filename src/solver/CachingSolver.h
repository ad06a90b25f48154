//===- CachingSolver.h - Result-caching solver wrapper -------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoizes checkSat results keyed by the structural hashes of the query's
/// formulas. The verifier re-discharges many identical side conditions
/// (convergence checks, repeated invariant obligations), so the cache cuts
/// solver load substantially (measured in bench/solver_ablation).
///
/// Hash-consing makes the key computation a cached field read per formula,
/// and every cached entry keeps its (canonicalized) query so a hit is
/// verified by pointer/structural equality — a 64-bit collision can no
/// longer alias two different queries to one result. Queries are
/// canonicalized by sorting on structural hash, so permuted-but-identical
/// obligation sets hit the same entry. Hit/miss/collision counters feed
/// the ablation benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SOLVER_CACHINGSOLVER_H
#define RELAXC_SOLVER_CACHINGSOLVER_H

#include "ast/Structural.h"
#include "solver/Solver.h"
#include "support/Hashing.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

namespace relax {

/// A settled verdict as the result caches keep it. A `sat` may carry a
/// witness: the model a model query returned for the query, which a
/// failed validity obligation prints as its counterexample.
struct CachedVerdict {
  SatResult R = SatResult::Unknown;
  std::optional<Model> Witness;
};

/// A verified sat-result memo table, shared by CachingSolver and the
/// parallel VC discharger (which guards it with a mutex).
class SolverResultCache {
public:
  /// Canonical form of a query: the conjunction is order-insensitive, so
  /// the formulas are sorted by structural hash (pointer as tie-break —
  /// stable for the cache's lifetime since hash-consed nodes never move).
  /// Permuted-but-identical obligation sets thus share one entry. A
  /// foreign-context duplicate whose hash collides with a sibling may sort
  /// differently and miss; that only costs a hit, never correctness,
  /// because every lookup is verified by sameQuery below.
  static std::vector<const BoolExpr *>
  canonicalize(const std::vector<const BoolExpr *> &Formulas) {
    std::vector<const BoolExpr *> C(Formulas);
    std::sort(C.begin(), C.end(), [](const BoolExpr *A, const BoolExpr *B) {
      uint64_t HA = structuralHash(A), HB = structuralHash(B);
      if (HA != HB)
        return HA < HB;
      return std::less<const BoolExpr *>()(A, B);
    });
    return C;
  }

  /// Key over the canonicalized query.
  static uint64_t keyOf(const std::vector<const BoolExpr *> &Canonical) {
    uint64_t Key = 0xcafef00dULL;
    for (const BoolExpr *F : Canonical)
      Key = hashCombine(Key, structuralHash(F));
    return Key;
  }

  CachedVerdict insert(const std::vector<const BoolExpr *> &Formulas,
                       CachedVerdict V) {
    return insertCanonical(canonicalize(Formulas), std::move(V));
  }

  /// The cached verdict of an already-canonicalized query, so a
  /// miss-then-insert caller sorts the query once, not twice. With
  /// \p WantWitness, a `sat` that carries no witness is a miss: the
  /// caller recomputes it, and its insert supplies the witness.
  std::optional<CachedVerdict>
  lookupCanonical(const std::vector<const BoolExpr *> &Canonical,
                  bool WantWitness = false) {
    auto It = Cache.find(keyOf(Canonical));
    if (It == Cache.end()) {
      ++Misses;
      return std::nullopt;
    }
    for (const Entry &E : It->second)
      if (sameQuery(E.Formulas, Canonical)) {
        if (WantWitness && E.V.R == SatResult::Sat && !E.V.Witness) {
          ++Misses;
          return std::nullopt;
        }
        ++Hits;
        return E.V;
      }
    // 64-bit key matched a different query: a genuine hash collision.
    ++Collisions;
    ++Misses;
    return std::nullopt;
  }

  /// Returns the entry as stored. One already present keeps its verdict
  /// and witness (a racing insert in the parallel path computed the same
  /// verdict); it only gains a witness it lacked.
  CachedVerdict insertCanonical(std::vector<const BoolExpr *> Canonical,
                                CachedVerdict V) {
    std::vector<Entry> &Bucket = Cache[keyOf(Canonical)];
    for (Entry &E : Bucket)
      if (sameQuery(E.Formulas, Canonical)) {
        if (!E.V.Witness)
          E.V.Witness = std::move(V.Witness);
        return E.V;
      }
    Bucket.push_back(Entry{std::move(Canonical), std::move(V)});
    return Bucket.back().V;
  }

  uint64_t hitCount() const { return Hits; }
  uint64_t missCount() const { return Misses; }
  uint64_t collisionCount() const { return Collisions; }

private:
  struct Entry {
    std::vector<const BoolExpr *> Formulas;
    CachedVerdict V;
  };

  static bool sameQuery(const std::vector<const BoolExpr *> &A,
                        const std::vector<const BoolExpr *> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I != A.size(); ++I)
      // Pointer equality for same-context (hash-consed) formulas; the
      // structural walk only runs for foreign-context nodes.
      if (A[I] != B[I] && !structurallyEqual(A[I], B[I]))
        return false;
    return true;
  }

  std::unordered_map<uint64_t, std::vector<Entry>> Cache;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Collisions = 0;
};

/// Wraps an underlying solver with a sat-result cache. Model-producing
/// queries always pass through (models are not cached).
class CachingSolver : public Solver {
public:
  explicit CachingSolver(Solver &Underlying) : Underlying(Underlying) {}

  const char *name() const override { return Underlying.name(); }

  Result<SatResult>
  checkSat(const std::vector<const BoolExpr *> &Formulas) override {
    ++Queries;
    std::vector<const BoolExpr *> Canonical =
        SolverResultCache::canonicalize(Formulas);
    if (std::optional<CachedVerdict> Cached = Cache.lookupCanonical(Canonical))
      return Cached->R;
    Result<SatResult> R = Underlying.checkSat(Formulas);
    // Deadline gave-ups are time-dependent, not verdicts about the query;
    // caching one would freeze "ran out of time" into "unknowable".
    if (R.ok() && !Underlying.lastQueryDeadlined())
      Cache.insertCanonical(std::move(Canonical), CachedVerdict{*R, {}});
    return R;
  }

  Result<SatResult>
  checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                    const VarRefSet &Vars, Model &ModelOut) override {
    // Model queries bypass the cache entirely (models are not cached), so
    // they are counted apart from Queries: folding them in would deflate
    // the reported hit rate with queries the cache never saw.
    ++ModelPassThroughs;
    return Underlying.checkSatWithModel(Formulas, Vars, ModelOut);
  }

  void setDeadline(const Deadline &D) override { Underlying.setDeadline(D); }

  bool lastQueryDeadlined() const override {
    return Underlying.lastQueryDeadlined();
  }

  uint64_t hitCount() const { return Cache.hitCount(); }
  uint64_t missCount() const { return Cache.missCount(); }
  uint64_t collisionCount() const { return Cache.collisionCount(); }
  /// Model queries forwarded uncached (surfaced in `--solver-stats`).
  uint64_t modelPassThroughCount() const { return ModelPassThroughs; }

private:
  Solver &Underlying;
  SolverResultCache Cache;
  uint64_t ModelPassThroughs = 0;
};

} // namespace relax

#endif // RELAXC_SOLVER_CACHINGSOLVER_H
