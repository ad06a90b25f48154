//===- Z3Solver.h - Z3 backend --------------------------------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates assertion-logic formulas to Z3 over linear integer arithmetic
/// plus the theory of arrays and decides them with the native Z3 API.
///
/// Encoding:
///  * scalar `x` / `x<o>` / `x<r>`  ->  Int constants `x`, `x!o`, `x!r`;
///  * array `a` (per tag)           ->  Array(Int,Int) constant `a!arr`
///                                      plus an Int length `a!len` with an
///                                      implicit `a!len >= 0` axiom;
///  * `store(a, i, v)`              ->  Z3 store; lengths pass through;
///  * `a == b`                      ->  array equality /\ length equality;
///  * `exists` over arrays binds both the content and the length.
///
/// Any z3::exception is caught at this boundary and converted to a Status.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SOLVER_Z3SOLVER_H
#define RELAXC_SOLVER_Z3SOLVER_H

#include "solver/Solver.h"

#include <memory>
#include <mutex>
#include <vector>

/// Set by the build system; defaults to "available" for builds that do not
/// go through CMake. When 0, Z3Solver compiles to a stub whose every query
/// reports a backend error.
#ifndef RELAXC_HAVE_Z3
#define RELAXC_HAVE_Z3 1
#endif

namespace relax {

/// Options for the Z3 backend.
struct Z3SolverOptions {
  /// Per-query timeout; an armed query deadline caps it by the time it
  /// leaves.
  unsigned TimeoutMs = 30000;
  /// Cap on extracted array lengths (models with larger lengths are
  /// truncated; the oracle never requests arrays this large).
  int64_t MaxExtractedArrayLen = 4096;
};

/// A mutex-guarded free list of z3::contexts that outlive the solvers
/// that use them, so a long-lived process (the `--serve` daemon) pays for
/// a context once, not once per request. A Z3Solver built with a pool
/// leases a context on its first query, building one only when the list
/// is empty, and hands it back when it is destroyed: after its
/// translation memos and its z3::solver are gone, so nothing keyed by
/// one AstContext's nodes and no assertion outlives the solver. A
/// context whose query threw a z3::exception is destroyed instead. The
/// list keeps at most MaxIdle contexts; a context handed back past that
/// is destroyed.
///
/// Z3's models depend on the context's history, so a counterexample
/// found on a leased context can differ from a fresh context's; its
/// verdict cannot.
class Z3ContextPool {
public:
  explicit Z3ContextPool(size_t MaxIdle);
  ~Z3ContextPool();
  Z3ContextPool(const Z3ContextPool &) = delete;
  Z3ContextPool &operator=(const Z3ContextPool &) = delete;

  /// The contexts in the free list now.
  size_t idle() const;

  struct Context; ///< a z3::context; hides z3++.h

private:
  friend class Z3Solver;
  /// An idle context, or null when none is.
  std::unique_ptr<Context> lease();
  void giveBack(std::unique_ptr<Context> C);

  const size_t MaxIdle;
  mutable std::mutex M;
  std::vector<std::unique_ptr<Context>> Free;
};

/// Decision procedure backed by the native Z3 API.
///
/// Holds a reference to the interner that produced the formulas' symbols
/// (variable names are mangled into Z3 constant names).
///
/// One z3::context serves the solver from its first query (or SMT-LIB
/// dump) to its destruction, with translation memos keyed by hash-consed
/// node identity; consequently an instance must only be fed formulas
/// from one live AstContext, and is not safe for concurrent use — the
/// parallel verifier builds one instance per worker. Without a pool the
/// solver builds that context and tears it down, so a solver that is
/// never queried never builds one. A process's first context costs
/// 4–6 ms to build on the main thread, whose heap `main` advises onto
/// huge pages (support/HugePageHeap.h), and 9–11 ms without that
/// advice, as on any other thread (a scheduler slot k >= 1 builds in a
/// glibc thread arena, which the advice does not reach); a later one
/// costs 1–2 ms, and tearing one down up to 1.5 ms. With a pool it leases a
/// context, warm from earlier solvers, and hands it back (see
/// Z3ContextPool). contextStats() says which it did. Queries run in
/// push/pop scopes on Z3's incremental SMT core, under a timeout
/// written to the context before each check.
class Z3Solver : public Solver {
public:
  /// \p Pool, when set, supplies the context and outlives the solver.
  explicit Z3Solver(const Interner &Syms,
                    Z3SolverOptions Opts = Z3SolverOptions(),
                    Z3ContextPool *Pool = nullptr);
  ~Z3Solver() override;

  const char *name() const override { return "z3"; }

  Result<SatResult>
  checkSat(const std::vector<const BoolExpr *> &Formulas) override;

  Result<SatResult>
  checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                    const VarRefSet &Vars, Model &ModelOut) override;

  /// Renders the conjunction of \p Formulas (plus the implicit
  /// length-nonnegativity axioms) as an SMT-LIB 2 script, for debugging
  /// generated VCs or handing them to another solver. Freshened names
  /// (`x'1`) are quoted as `|x'1|`, so every script parses back.
  Result<std::string>
  toSmtLib(const std::vector<const BoolExpr *> &Formulas);

  bool lastQueryDeadlined() const override { return LastDeadlined; }

  /// Whether the solver built its context (and in how long) or leased
  /// it; all zero before its first query.
  SolverContextStats contextStats() const override { return Contexts; }

  /// How many z3::contexts Z3Solvers have built in this process so far,
  /// leased ones counted once (always 0 without Z3).
  static uint64_t contextsBuilt();

private:
  struct Impl; // hides z3++.h from users of this header
  /// Builds or leases the context on first use.
  Impl &impl();
  const Interner &Syms;
  Z3SolverOptions Opts;
  Z3ContextPool *Pool;
  std::unique_ptr<Impl> P;
  SolverContextStats Contexts;
  /// The most recent query gave up on the installed deadline (expired on
  /// entry, or z3 answered unknown after its capped per-query timeout).
  bool LastDeadlined = false;
};

} // namespace relax

#endif // RELAXC_SOLVER_Z3SOLVER_H
