//===- Solver.h - Decision procedure interface ---------------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision-procedure interface the verifier and the solver-backed
/// oracles program against, together with the model representation.
///
/// Logic semantics notes (shared by every backend and by the formula
/// evaluator, and matched by the dynamic semantics where observable):
///  * integers are unbounded in the logic; the evaluator uses int64 and the
///    workloads stay far from the edges (checked by tests);
///  * `/` and `%` follow the SMT-LIB Euclidean convention (the remainder is
///    always non-negative); the interpreter implements the same convention;
///  * arrays are total integer functions paired with a length constant;
///    array equality is function equality plus length equality. Dynamic
///    array values only expose indices in [0, len); out-of-bounds access is
///    a dynamic `wr` error, and the VC generator emits bounds obligations,
///    so the difference between total and in-bounds equality is never
///    observable in verified programs.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SOLVER_SOLVER_H
#define RELAXC_SOLVER_SOLVER_H

#include "logic/FormulaOps.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace relax {

/// Outcome of a satisfiability query.
enum class SatResult { Sat, Unsat, Unknown };

/// Returns "sat" / "unsat" / "unknown".
const char *satResultName(SatResult R);

/// The backend names `--solver=` accepts. The driver validates against
/// this list instead of silently falling through to a default backend.
const std::vector<const char *> &knownSolverNames();

/// True when \p Name names a known backend.
bool isKnownSolverName(std::string_view Name);

/// Renders the known names as "z3, bounded" for diagnostics.
std::string knownSolverNamesForDiagnostics();

/// A concrete array value in a model.
struct ArrayModelValue {
  int64_t Length = 0;
  std::vector<int64_t> Elems; ///< Elems.size() == Length

  friend bool operator==(const ArrayModelValue &A,
                         const ArrayModelValue &B) {
    return A.Length == B.Length && A.Elems == B.Elems;
  }
};

/// A (partial) assignment of concrete values to logical variables.
struct Model {
  std::map<VarRef, int64_t> Ints;
  std::map<VarRef, ArrayModelValue> Arrays;

  bool empty() const { return Ints.empty() && Arrays.empty(); }
};

/// Renders a model for diagnostics: `x<o> = 3, A<r> = [1, 2]`.
std::string formatModel(const Interner &Syms, const Model &M);

/// The solver contexts a backend got for its queries: built by the
/// backend itself, or leased warm from a pool. Only the Z3 backend has
/// one; the portfolio sums its tiers' (`--solver-stats`).
struct SolverContextStats {
  uint64_t Built = 0;
  uint64_t Leased = 0;
  double BuildMillis = 0; ///< wall time spent building the Built ones

  void merge(const SolverContextStats &O) {
    Built += O.Built;
    Leased += O.Leased;
    BuildMillis += O.BuildMillis;
  }
};

/// Abstract decision procedure over the assertion logic.
class Solver {
public:
  virtual ~Solver();

  /// A short backend name for reports ("z3", "bounded").
  virtual const char *name() const = 0;

  /// Decides satisfiability of the conjunction of \p Formulas.
  virtual Result<SatResult>
  checkSat(const std::vector<const BoolExpr *> &Formulas) = 0;

  /// Like checkSat; on Sat additionally extracts values for \p Vars into
  /// \p ModelOut (variables absent from the formula get default values).
  virtual Result<SatResult>
  checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                    const VarRefSet &Vars, Model &ModelOut) = 0;

  /// Number of checkSat queries served (statistics; includes cache misses
  /// only when wrapped in a CachingSolver).
  uint64_t queryCount() const { return Queries; }

  /// Which component answered the most recent query. Plain backends
  /// settle everything themselves; the tiered portfolio overrides this to
  /// name the settling tier, and the verifier records it per obligation
  /// (surfaced by `--explain`).
  virtual const char *settledBy() const { return name(); }

  /// Give-up trail of the most recent query (empty for plain backends):
  /// one entry per portfolio tier that escalated, with its reason.
  virtual std::string giveUpTrail() const { return std::string(); }

  /// Installs the deadline subsequent queries must respect. Backends that
  /// can stop mid-search (the bounded solver) poll it; the portfolio
  /// checks it between tiers and forwards it to the active backend;
  /// wrappers (CachingSolver) forward to the wrapped solver. The default
  /// just stores it, which is sufficient for backends whose queries are
  /// already bounded by their own timeouts (Z3).
  virtual void setDeadline(const Deadline &D) { QueryDeadline = D; }

  /// True when the most recent query gave up *because the deadline
  /// expired*. Such verdicts are time-dependent: callers must never
  /// insert them into any result cache (a rerun with more budget must be
  /// free to do better), and the discharge layer reports them with
  /// reason "deadline".
  virtual bool lastQueryDeadlined() const { return false; }

  /// Conflicts (failed conjunct checks) the bounded search hit while
  /// answering the most recent query. Backends without a bounded search
  /// report 0; the portfolio reports the sum across whatever bounded
  /// tiers the query touched. Purely observational — surfaced per
  /// obligation by `--explain`.
  virtual uint64_t lastQueryBoundedConflicts() const { return 0; }

  /// The context this backend built or leased so far (statistics; none
  /// for backends without one).
  virtual SolverContextStats contextStats() const { return {}; }

  //===--------------------------------------------------------------------===//
  // Derived helpers
  //===--------------------------------------------------------------------===//

  /// Decides validity of \p F: valid iff ¬F is unsatisfiable. Unknown
  /// satisfiability maps to an error (the verifier treats it as "not
  /// proved").
  Result<bool> isValid(AstContext &Ctx, const BoolExpr *F);

  /// Decides the entailment P |= Q, i.e. validity of P ==> Q, as
  /// unsatisfiability of P /\ ¬Q.
  Result<bool> entails(AstContext &Ctx, const BoolExpr *P, const BoolExpr *Q);

protected:
  uint64_t Queries = 0;
  Deadline QueryDeadline;
};

} // namespace relax

#endif // RELAXC_SOLVER_SOLVER_H
