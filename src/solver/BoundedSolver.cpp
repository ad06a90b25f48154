//===- BoundedSolver.cpp - Propagating small-domain backend -------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "solver/BoundedSolver.h"

#include "logic/FormulaOps.h"
#include "solver/FormulaProgram.h"
#include "support/Casting.h"
#include "support/FaultInjection.h"
#include "support/IntMath.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <type_traits>

using namespace relax;

namespace {

//===----------------------------------------------------------------------===//
// Domains
//===----------------------------------------------------------------------===//

/// The bounded array domain (shared with the quantifier evaluators; see
/// ArrayDomain in FormulaEval.h — one definition of the order).
ArrayDomain arrayDomain(const BoundedSolverOptions &Opts) {
  return ArrayDomain(Opts.MaxArrayLen, Opts.ArrayElemLo, Opts.ArrayElemHi);
}

/// Number of values in one variable's bounded domain.
uint64_t domainSize(const VarRef &V, const BoundedSolverOptions &Opts) {
  if (V.Kind == VarKind::Int)
    return Opts.IntHi >= Opts.IntLo
               ? static_cast<uint64_t>(Opts.IntHi - Opts.IntLo) + 1
               : 0;
  return arrayDomain(Opts).size();
}

//===----------------------------------------------------------------------===//
// Conjunct splitting
//===----------------------------------------------------------------------===//

/// A conjunct is a (formula, negated) pair — negation is tracked as a flag
/// so ¬(P → Q), ¬(P ∨ Q), and ¬¬P split without building AST nodes (the
/// factories are not thread-safe, and solver queries may run on discharge
/// workers).
struct ConjunctRef {
  const BoolExpr *F;
  bool Negated;
};

/// Splits \p F (under \p Negated) into conjuncts; sets \p False when a
/// constant-false conjunct appears.
void splitConjuncts(const BoolExpr *F, bool Negated,
                    std::vector<ConjunctRef> &Out, bool &False) {
  switch (F->kind()) {
  case BoolExpr::Kind::BoolLit:
    if (cast<BoolLitExpr>(F)->value() == Negated)
      False = true;
    return; // constant-true conjuncts fold away
  case BoolExpr::Kind::Not:
    splitConjuncts(cast<NotExpr>(F)->sub(), !Negated, Out, False);
    return;
  case BoolExpr::Kind::Logical: {
    const auto *L = cast<LogicalExpr>(F);
    if (L->op() == LogicalOp::And && !Negated) {
      splitConjuncts(L->lhs(), false, Out, False);
      splitConjuncts(L->rhs(), false, Out, False);
      return;
    }
    if (L->op() == LogicalOp::Or && Negated) {
      splitConjuncts(L->lhs(), true, Out, False);
      splitConjuncts(L->rhs(), true, Out, False);
      return;
    }
    if (L->op() == LogicalOp::Implies && Negated) {
      splitConjuncts(L->lhs(), false, Out, False);
      splitConjuncts(L->rhs(), true, Out, False);
      return;
    }
    break;
  }
  default:
    break;
  }
  Out.push_back(ConjunctRef{F, Negated});
}

//===----------------------------------------------------------------------===//
// Search plan
//===----------------------------------------------------------------------===//

/// A domain-narrowing rule extracted from a comparison conjunct with a
/// bare variable on one side: `v REL <expr>` (after normalizing negation
/// and side, REL ∈ {==, <=, <, >=, >}). Once every variable the other
/// side reads is assigned, the conjunct confines `v` to a contiguous
/// index range — a single value for `==` — so the search iterates only
/// that range instead of scanning values the conjunct check would reject
/// one by one. Array rules are the `==` case between two array variables.
struct ForcedRule {
  bool IsArray = false;
  CmpOp Rel = CmpOp::Eq;     ///< relation of `target Rel rhs`; never Ne
  uint32_t Target = 0;       ///< canonical order position being narrowed
  const Expr *Rhs = nullptr; ///< int rule: the bounding expression
  uint32_t OtherArr = 0;     ///< array rule: position of the equal array
  /// Every variable the rhs reads, with its canonical order position.
  std::vector<std::pair<VarRef, uint32_t>> RhsVars;
};

/// One compiled conjunct with its support resolved to variable-order
/// positions.
struct PlannedConjunct {
  const BoolExpr *F = nullptr;
  bool Negated = false;
  std::shared_ptr<const FormulaProgram> Prog;
  std::vector<uint32_t> IntArgPos; ///< order position per program int input
  std::vector<uint32_t> ArrArgPos; ///< order position per array input
  /// Sorted, deduped canonical order positions of every input the program
  /// reads — the compile-time support mask. The program's input lists are
  /// built on first reference, so this is exactly the evaluated slice:
  /// when the conjunct fails, these (and only these) assignments fed the
  /// failure, which is what makes them a sound nogood.
  std::vector<uint32_t> Support;
  /// `Support` as a bitset over canonical order positions, for O(words)
  /// conflict-cause unions during backjumping.
  std::vector<uint64_t> SupportMask;
  /// Forced-value rules this conjunct yields (at most two: either side of
  /// an equality may be the bare variable).
  std::vector<ForcedRule> Forced;
};

/// Everything the search needs, built once per query on the calling
/// thread. Immutable during the (possibly parallel) search.
struct SearchPlan {
  std::vector<PlannedConjunct> Conjuncts;
  std::vector<VarRef> Order;
  /// Conjunct indices to check after assigning the variable at each order
  /// position (each conjunct appears exactly once, at the position of its
  /// last support variable).
  std::vector<std::vector<uint32_t>> ChecksAt;
  /// Conjuncts with no free variables, checked once before the search.
  std::vector<uint32_t> RootChecks;
  /// Order positions [0, NumConstrained) carry conjunct support variables;
  /// [NumConstrained, Order.size()) are the unconstrained extras. Restart
  /// reordering only permutes constrained positions (minus the top), so
  /// the search still reaches the extras only after every conjunct passed.
  uint32_t NumConstrained = 0;
  bool TriviallyFalse = false;
  bool HasForced = false; ///< any conjunct carries a forced-value rule
};

SearchPlan buildPlan(const std::vector<const BoolExpr *> &Formulas,
                     const VarRefSet &ExtraVars, AstContext *Ctx) {
  SearchPlan Plan;

  std::vector<ConjunctRef> Refs;
  for (const BoolExpr *F : Formulas)
    splitConjuncts(F, /*Negated=*/false, Refs, Plan.TriviallyFalse);
  if (Plan.TriviallyFalse)
    return Plan;

  // Dedupe pointer-identical conjuncts (hash-consing makes structural
  // duplicates pointer-identical), keeping first-occurrence order.
  std::vector<ConjunctRef> Unique;
  for (const ConjunctRef &R : Refs) {
    bool Seen = false;
    for (const ConjunctRef &U : Unique)
      if (U.F == R.F && U.Negated == R.Negated) {
        Seen = true;
        break;
      }
    if (!Seen)
      Unique.push_back(R);
  }

  FormulaProgramCache *Cache = Ctx ? &Ctx->formulaProgramCache() : nullptr;
  for (const ConjunctRef &R : Unique) {
    PlannedConjunct C;
    C.F = R.F;
    C.Negated = R.Negated;
    C.Prog = FormulaProgram::compile(R.F, Cache);
    Plan.Conjuncts.push_back(std::move(C));
  }

  // Variable order: conjuncts sorted by support size (stable, so equal
  // sizes keep query order) contribute their variables first — small
  // conjuncts become checkable after few assignments, which is where the
  // prefix pruning comes from. Extra (unconstrained) variables go last:
  // the search only reaches them once every conjunct already passed.
  std::vector<uint32_t> BySupport(Plan.Conjuncts.size());
  for (uint32_t I = 0; I != BySupport.size(); ++I)
    BySupport[I] = I;
  std::stable_sort(BySupport.begin(), BySupport.end(),
                   [&](uint32_t A, uint32_t B) {
                     return Plan.Conjuncts[A].Prog->supportSize() <
                            Plan.Conjuncts[B].Prog->supportSize();
                   });

  std::map<VarRef, uint32_t> Pos;
  auto Place = [&](const VarRef &V) {
    if (Pos.count(V))
      return;
    Pos[V] = static_cast<uint32_t>(Plan.Order.size());
    Plan.Order.push_back(V);
  };
  for (uint32_t CI : BySupport) {
    for (const VarRef &V : Plan.Conjuncts[CI].Prog->intInputs())
      Place(V);
    for (const VarRef &V : Plan.Conjuncts[CI].Prog->arrayInputs())
      Place(V);
  }
  Plan.NumConstrained = static_cast<uint32_t>(Plan.Order.size());
  for (const VarRef &V : ExtraVars)
    Place(V);

  // Resolve conjunct arguments and attach each conjunct to the depth of
  // its last support variable.
  Plan.ChecksAt.assign(Plan.Order.size(), {});
  for (uint32_t CI = 0; CI != Plan.Conjuncts.size(); ++CI) {
    PlannedConjunct &C = Plan.Conjuncts[CI];
    uint32_t Depth = 0;
    bool HasVars = false;
    for (const VarRef &V : C.Prog->intInputs()) {
      uint32_t P = Pos.at(V);
      C.IntArgPos.push_back(P);
      Depth = std::max(Depth, P);
      HasVars = true;
    }
    for (const VarRef &V : C.Prog->arrayInputs()) {
      uint32_t P = Pos.at(V);
      C.ArrArgPos.push_back(P);
      Depth = std::max(Depth, P);
      HasVars = true;
    }
    C.Support = C.IntArgPos;
    C.Support.insert(C.Support.end(), C.ArrArgPos.begin(), C.ArrArgPos.end());
    std::sort(C.Support.begin(), C.Support.end());
    C.Support.erase(std::unique(C.Support.begin(), C.Support.end()),
                    C.Support.end());
    C.SupportMask.assign((Plan.Order.size() + 63) / 64, 0);
    for (uint32_t P : C.Support)
      C.SupportMask[P / 64] |= uint64_t(1) << (P % 64);

    // Domain-narrowing rules: a comparison with a bare variable on one
    // side confines that variable once the other side's inputs are
    // assigned. The target must be in the compiled program's support —
    // a folded-away occurrence would make domain narrowing unsound —
    // and the other side must not read the target. Both orientations are
    // recorded; which rules apply under the epoch's variable order is
    // decided by the worker.
    auto AddIntRule = [&](const Expr *Bare, const Expr *Other, CmpOp Rel) {
      const auto *VE = dyn_cast<VarExpr>(Bare);
      if (!VE)
        return;
      auto TIt = Pos.find(VarRef{VE->name(), VE->tag(), VarKind::Int});
      if (TIt == Pos.end() ||
          !std::binary_search(C.Support.begin(), C.Support.end(), TIt->second))
        return;
      ForcedRule R;
      R.Rel = Rel;
      R.Target = TIt->second;
      R.Rhs = Other;
      for (const VarRef &RV : freeVars(Other)) {
        auto It = Pos.find(RV);
        if (It == Pos.end())
          return; // reads a variable outside the search order
        if (It->second == R.Target)
          return; // self-referential: does not determine the target
        R.RhsVars.emplace_back(RV, It->second);
      }
      C.Forced.push_back(std::move(R));
    };
    // ¬(v Op e) and the var-on-the-right mirror image, as relations on v.
    auto Flip = [](CmpOp Op) {
      switch (Op) {
      case CmpOp::Eq:
        return CmpOp::Ne;
      case CmpOp::Ne:
        return CmpOp::Eq;
      case CmpOp::Lt:
        return CmpOp::Ge;
      case CmpOp::Le:
        return CmpOp::Gt;
      case CmpOp::Gt:
        return CmpOp::Le;
      case CmpOp::Ge:
        return CmpOp::Lt;
      }
      return Op;
    };
    auto Mirror = [](CmpOp Op) {
      switch (Op) {
      case CmpOp::Lt:
        return CmpOp::Gt;
      case CmpOp::Le:
        return CmpOp::Ge;
      case CmpOp::Gt:
        return CmpOp::Lt;
      case CmpOp::Ge:
        return CmpOp::Le;
      default:
        return Op;
      }
    };
    if (C.F->kind() == BoolExpr::Kind::Cmp) {
      const auto *Cmp = cast<CmpExpr>(C.F);
      CmpOp Eff = C.Negated ? Flip(Cmp->op()) : Cmp->op();
      if (Eff != CmpOp::Ne) { // != excludes one value: not contiguous
        AddIntRule(Cmp->lhs(), Cmp->rhs(), Eff);
        AddIntRule(Cmp->rhs(), Cmp->lhs(), Mirror(Eff));
      }
    } else if (C.F->kind() == BoolExpr::Kind::ArrayCmp) {
      const auto *AC = cast<ArrayCmpExpr>(C.F);
      const auto *L = dyn_cast<ArrayRefExpr>(AC->lhs());
      const auto *Rr = dyn_cast<ArrayRefExpr>(AC->rhs());
      if (AC->isEquality() != C.Negated && L && Rr) {
        auto LIt = Pos.find(VarRef{L->name(), L->tag(), VarKind::Array});
        auto RIt = Pos.find(VarRef{Rr->name(), Rr->tag(), VarKind::Array});
        if (LIt != Pos.end() && RIt != Pos.end() &&
            LIt->second != RIt->second) {
          auto AddArrRule = [&](uint32_t Tgt, const VarRef &OV,
                                uint32_t Other) {
            if (!std::binary_search(C.Support.begin(), C.Support.end(), Tgt))
              return;
            ForcedRule R;
            R.IsArray = true;
            R.Target = Tgt;
            R.OtherArr = Other;
            R.RhsVars.emplace_back(OV, Other);
            C.Forced.push_back(std::move(R));
          };
          AddArrRule(LIt->second, RIt->first, RIt->second);
          AddArrRule(RIt->second, LIt->first, LIt->second);
        }
      }
    }
    Plan.HasForced = Plan.HasForced || !C.Forced.empty();

    if (HasVars)
      Plan.ChecksAt[Depth].push_back(CI);
    else
      Plan.RootChecks.push_back(CI);
  }
  // Within a depth, check the smallest-support conjunct first: when
  // several conjuncts reject a value, the one with the fewest inputs
  // yields the most general conflict cause (smallest nogood, deepest
  // backjump). Stable, so equal sizes keep query order — deterministic.
  for (std::vector<uint32_t> &Cs : Plan.ChecksAt)
    std::stable_sort(Cs.begin(), Cs.end(), [&](uint32_t A, uint32_t B) {
      return Plan.Conjuncts[A].Support.size() <
             Plan.Conjuncts[B].Support.size();
    });
  return Plan;
}

//===----------------------------------------------------------------------===//
// Restart schedule
//===----------------------------------------------------------------------===//

/// Conflicts allowed in the first restart epoch; later epochs scale it by
/// the Luby sequence. Purely a function of conflict counts — no clocks —
/// so restart points are deterministic.
constexpr uint64_t RestartUnit = 256;

/// The Luby sequence 1, 1, 2, 1, 1, 2, 4, ... (1-based).
uint64_t luby(uint64_t I) {
  for (;;) {
    uint64_t K = 1;
    while ((uint64_t(1) << K) - 1 < I)
      ++K;
    if ((uint64_t(1) << K) - 1 == I)
      return uint64_t(1) << (K - 1);
    I -= (uint64_t(1) << (K - 1)) - 1;
  }
}

//===----------------------------------------------------------------------===//
// Search worker
//===----------------------------------------------------------------------===//

/// Per-thread search state: one executor and input scratch per conjunct,
/// plus the value of every order position. The plan is shared read-only.
///
/// The conflict-driven layer lives entirely inside one worker and resets
/// at every top-variable value boundary, so each top-value subtree is a
/// pure function of (plan, top value, options) — the property the Jobs
/// chunk replay relies on. Values are indexed by *canonical* order
/// position (`IntVal`/`ArrVal` never move under reordering, keeping the
/// pre-bound `ArrScratch` pointers valid); a permutation layer
/// (`Perm`/`DepthOf`) maps search depth to canonical position. Within one
/// epoch the search assigns depths in a fixed order, so a nogood's
/// literals sorted by depth give a static two-watched scheme: the
/// second-deepest literal is the watch (trigger) and the deepest is the
/// forced target — assigning the trigger depth its literal value, with
/// every shallower literal already holding, forbids the target value
/// before any conjunct program runs.
class SearchWorker {
public:
  enum class Status : uint8_t { Sat, Exhausted, Budget, Deadline, Restart };
  struct Outcome {
    Status St = Status::Exhausted;
    uint64_t Count = 0; ///< assignments attempted in this chunk
    uint64_t Steps = 0; ///< quantifier-body evaluations in this chunk
    bool StepTrip = false; ///< Budget status came from the step budget
    Model Witness;      ///< populated when St == Sat
    BoundedSearchStats Search; ///< this chunk's conflict-driven counters
  };

  SearchWorker(const SearchPlan &Plan, const BoundedSolverOptions &Opts,
               const FormulaEvalOptions &EvalOpts,
               const Deadline &DL = Deadline())
      : Plan(Plan), Opts(Opts), EvalOpts(EvalOpts), DL(DL),
        Dom(arrayDomain(Opts)), IntVal(Plan.Order.size()),
        ArrVal(Plan.Order.size()),
        NumVars(static_cast<uint32_t>(Plan.Order.size())) {
    Budget.MaxSteps = Opts.MaxQuantSteps;
    Execs.reserve(Plan.Conjuncts.size());
    IntScratch.resize(Plan.Conjuncts.size());
    ArrScratch.resize(Plan.Conjuncts.size());
    for (size_t I = 0; I != Plan.Conjuncts.size(); ++I) {
      const PlannedConjunct &C = Plan.Conjuncts[I];
      Execs.emplace_back(*C.Prog);
      IntScratch[I].resize(C.IntArgPos.size());
      // ArrVal never reallocates, so the argument pointers are fixed for
      // the worker's lifetime — bind them once instead of copying array
      // values on every conjunct check.
      for (uint32_t Pos : C.ArrArgPos)
        ArrScratch[I].push_back(&ArrVal[Pos]);
    }
    Learn = Opts.Learning && NumVars > 1;
    UseRestarts = Learn && Opts.Restarts;
    Perm.resize(NumVars);
    DepthOf.resize(NumVars);
    for (uint32_t I = 0; I != NumVars; ++I)
      Perm[I] = DepthOf[I] = I;
    Checks = &Plan.ChecksAt;
    if (Learn) {
      ValIdx.assign(NumVars, 0);
      WatchAt.resize(NumVars);
      ForbidCount.resize(NumVars);
      ForbidTrail.resize(NumVars);
      Activity.assign(NumVars, 0.0);
      MaskWords = (NumVars + 63) / 64;
      Cause.assign(NumVars, std::vector<uint64_t>(MaskWords, 0));
      ForbidEverCause.assign(NumVars, std::vector<uint64_t>(MaskWords, 0));
      rebuildForcedAt();
    }
  }

  /// Evaluates the variable-free conjuncts (once, before any search).
  /// A step-budget trip during a root check surfaces as `tripped()`.
  bool checkRoots() {
    for (uint32_t CI : Plan.RootChecks)
      if (!checkConjunct(CI) || Budget.Tripped)
        return false;
    return true;
  }

  bool tripped() const { return Budget.Tripped; }
  uint64_t steps() const { return Budget.Steps; }

  /// Searches the subtree where the top variable takes domain indices in
  /// [\p TopLo, \p TopHi). Requires a non-empty order.
  Outcome run(uint64_t TopLo, uint64_t TopHi) {
    Outcome Out;
    Out.St = topLoop(TopLo, TopHi, Out);
    Out.Steps = Budget.Steps;
    Out.Search = Stats;
    return Out;
  }

private:
  const SearchPlan &Plan;
  const BoundedSolverOptions &Opts;
  const FormulaEvalOptions &EvalOpts;
  Deadline DL;
  ArrayDomain Dom;
  std::vector<int64_t> IntVal;
  std::vector<ArrayModelValue> ArrVal;
  std::vector<FormulaProgram::Executor> Execs;
  std::vector<std::vector<int64_t>> IntScratch;
  std::vector<std::vector<const ArrayModelValue *>> ArrScratch;
  uint32_t NumVars;
  uint64_t Count = 0;
  EvalBudget Budget;

  bool Learn = false;       ///< learning active (Opts.Learning, >1 var)
  bool UseRestarts = false; ///< Luby restarts active (implies Learn)

  /// Depth → canonical order position and its inverse. Identity except in
  /// restart-permuted epochs; Perm[0] is always 0 (the chunked top var).
  std::vector<uint32_t> Perm, DepthOf;
  /// Conjuncts to check per depth under the current order: points at
  /// Plan.ChecksAt in canonical epochs, at PermChecks after a reorder.
  const std::vector<std::vector<uint32_t>> *Checks;
  std::vector<std::vector<uint32_t>> PermChecks;
  bool Permuted = false;  ///< current epoch order differs from canonical
  bool Canonical = false; ///< canonical re-search: restarts suppressed

  /// Canonical-position → current domain index, valid for assigned depths.
  std::vector<uint64_t> ValIdx;

  /// A nogood literal (canonical position, domain index); a nogood is a
  /// conjunction of literals some conjunct falsifies. Literals are kept
  /// sorted by current depth; the top variable never appears (the store is
  /// top-value-local, so its literal is constant).
  struct NgLit {
    uint32_t Var;
    uint64_t Val;
  };
  struct Nogood {
    std::vector<NgLit> Lits;
    double Act = 0.0; ///< compaction priority: creation recency + hits
  };
  std::vector<Nogood> Store;
  std::vector<NgLit> NgScratch;
  /// Per depth, per trigger domain index: store indices of nogoods whose
  /// trigger (second-deepest) literal is that (depth, value) pair. Keyed
  /// by value so an assignment only touches nogoods it can actually fire
  /// (a flat per-depth list degrades to a full-store scan per assignment
  /// once the store grows). Inner vectors are sized lazily, like
  /// ForbidCount.
  std::vector<std::vector<std::vector<uint32_t>>> WatchAt;
  /// Per depth: how many active nogoods forbid each domain index (sized
  /// lazily on first forbid in an epoch). A nonzero count skips the value.
  std::vector<std::vector<uint32_t>> ForbidCount;
  /// Forbids to undo when the depth that created them changes value.
  struct ForbidRef {
    uint32_t Depth;
    uint64_t Val;
  };
  std::vector<std::vector<ForbidRef>> ForbidTrail;

  /// Backjump cause analysis. `Cause[D]` accumulates, as a bitset over
  /// canonical positions, every variable the exhaustion of depth D's
  /// domain depended on: failing conjuncts' supports, forbidding nogoods'
  /// literals, and child exhaust causes. A parent whose own variable is
  /// absent from its child's cause skips the rest of its domain — each
  /// remaining value would reproduce the identical dead subtree.
  /// `ForbidEverCause[D]` over-approximates the literal set of every
  /// nogood that forbade a value at D this epoch (monotone, cleared at
  /// epoch boundaries), standing in for per-value cause tracking.
  uint32_t MaskWords = 0;
  std::vector<std::vector<uint64_t>> Cause;
  std::vector<std::vector<uint64_t>> ForbidEverCause;

  /// The domain-narrowing rules active at each depth under the current
  /// order: every rule whose target sits at that depth with all rhs
  /// variables assigned strictly shallower. Applied in plan order —
  /// deterministic — with their ranges intersected.
  struct ForcedRef {
    uint32_t CI = 0;
    uint32_t Rule = 0;
  };
  std::vector<std::vector<ForcedRef>> ForcedAt;
  Model ForcedScratch; ///< rhs evaluation model, rebuilt per narrowed depth

  std::vector<double> Activity; ///< per canonical position, VSIDS-style
  double ActInc = 1.0;

  uint64_t ConflictsHere = 0; ///< conflicts since the last restart
  uint64_t RestartLimit = RestartUnit;
  uint64_t LubyIdx = 0;

  uint64_t Work = 0; ///< deadline-poll units since the last poll
  BoundedSearchStats Stats;

  bool checkConjunct(uint32_t CI) {
    const PlannedConjunct &C = Plan.Conjuncts[CI];
    std::vector<int64_t> &IntIn = IntScratch[CI];
    for (size_t I = 0; I != C.IntArgPos.size(); ++I)
      IntIn[I] = IntVal[C.IntArgPos[I]];
    bool R = Execs[CI].run(IntIn.data(), ArrScratch[CI].data(), EvalOpts,
                           &Budget);
    return C.Negated ? !R : R;
  }

  /// Deadline poll on a *work* counter: one unit per attempted candidate,
  /// per propagation-skipped value, and per watch-list entry traversed.
  /// With learning off the counter equals the candidate count, preserving
  /// the pre-learning 4096-candidate poll cadence; with learning on, runs
  /// that skip candidates wholesale still reach the clock at the same
  /// rate (the skipped work is exactly what a candidate-count poll fails
  /// to charge). The deadline-poll fault site forces an expiry so tests
  /// can pin the cadence without racing a real clock.
  bool chargeWork(uint64_t Units) {
    Work += Units;
    if (Work < 4096)
      return false;
    Work = 0;
    if (FaultRegistry::shouldFail(FaultSite::DeadlinePoll))
      return true;
    return DL.expired();
  }

  /// Iterates the top variable's chunk. Learned state never survives a top
  /// value change: each subtree search starts from a clean store.
  Status topLoop(uint64_t Lo, uint64_t Hi, Outcome &Out) {
    const VarRef &V = Plan.Order[0];
    const bool Leaf = NumVars == 1;
    bool Contig = false;
    for (uint64_t Index = Lo; Index != Hi; ++Index) {
      if (++Count > Opts.MaxCandidates) {
        Out.Count = Count;
        return Status::Budget;
      }
      if (chargeWork(1)) {
        Out.Count = Count;
        return Status::Deadline;
      }
      if (Stats.MaxTrailDepth < 1)
        Stats.MaxTrailDepth = 1;
      if (V.Kind == VarKind::Int)
        IntVal[0] = Opts.IntLo + static_cast<int64_t>(Index);
      else if (Contig)
        Dom.advance(ArrVal[0]);
      else
        ArrVal[0] = Dom.valueAt(Index);
      Contig = true;

      bool Pruned = false;
      for (uint32_t CI : Plan.ChecksAt[0]) {
        bool Holds = checkConjunct(CI);
        if (Budget.Tripped) {
          Out.Count = Count;
          Out.StepTrip = true;
          return Status::Budget;
        }
        if (!Holds) {
          Pruned = true;
          break;
        }
      }
      if (Pruned) {
        ++Stats.Conflicts; // top-level conflicts are counted, never learned
        continue;
      }
      if (Leaf) {
        captureWitness(Out.Witness);
        Out.Count = Count;
        return Status::Sat;
      }
      if (Learn)
        resetLearning();
      Status St = searchSubtree(Out);
      if (St != Status::Exhausted)
        return St;
    }
    Out.Count = Count;
    return Status::Exhausted;
  }

  /// Drives one top value's subtree: descend with learning, honoring
  /// restart requests (epoch rebuilds under activity order) and re-running
  /// in canonical order when a witness was found under a permuted one.
  Status searchSubtree(Outcome &Out) {
    for (;;) {
      Status St = descend(1, 0, domainSize(Plan.Order[Perm[1]], Opts), Out);
      if (St == Status::Restart) {
        ++Stats.Restarts;
        ++LubyIdx;
        compactStoreIfFull();
        rebuildEpoch(/*IdentityOrder=*/false);
        continue;
      }
      if (St == Status::Sat && Permuted) {
        // The witness was found under a restart-permuted order, so it need
        // not be the lexicographically-first model. Re-search in canonical
        // order with every learned nogood kept: nogoods only exclude
        // assignments some conjunct falsifies, so the model just found
        // still exists and the re-search stops at the canonical first
        // witness — bit-identical to the non-learning search's answer.
        Canonical = true;
        rebuildEpoch(/*IdentityOrder=*/true);
        continue;
      }
      return St;
    }
  }

  Status descend(uint32_t Depth, uint64_t Lo, uint64_t Hi, Outcome &Out) {
    const uint32_t VId = Perm[Depth];
    const VarRef &V = Plan.Order[VId];
    const bool Leaf = Depth + 1 == NumVars;
    bool Contig = false;
    bool ForcedHere = false;
    if (Learn) {
      std::fill(Cause[Depth].begin(), Cause[Depth].end(), 0);
      if (!ForcedAt[Depth].empty()) {
        // Domain-narrowing rules: comparison conjuncts over strictly
        // shallower assignments confine this variable to a contiguous
        // index range (one value per equality), so iterate only the
        // intersection. Every narrowed-out value is a unit propagation
        // whose cause is the rule conjunct's support. The conjuncts
        // themselves still run on the surviving values, so an evaluator
        // mismatch could only lose witnesses, never admit false ones —
        // and the differential suite pins witness identity against the
        // non-propagating odometer.
        const int64_t H0 = static_cast<int64_t>(Hi);
        int64_t NLo = static_cast<int64_t>(Lo), NHi = H0;
        for (const ForcedRef &FR : ForcedAt[Depth]) {
          const PlannedConjunct &FC = Plan.Conjuncts[FR.CI];
          const ForcedRule &R = FC.Forced[FR.Rule];
          orCause(Depth, FC.SupportMask);
          if (chargeWork(1)) {
            Out.Count = Count;
            return Status::Deadline;
          }
          int64_t VIdx; // rhs value as a 0-based index, clamped to [-1,H0]
          if (R.IsArray) {
            VIdx = static_cast<int64_t>(arrayIndexOf(ArrVal[R.OtherArr]));
          } else {
            ForcedScratch.Ints.clear();
            ForcedScratch.Arrays.clear();
            for (const auto &RV : R.RhsVars) {
              if (RV.first.Kind == VarKind::Int)
                ForcedScratch.Ints[RV.first] = IntVal[RV.second];
              else
                ForcedScratch.Arrays[RV.first] = ArrVal[RV.second];
            }
            int64_t Val = evalExpr(R.Rhs, ForcedScratch);
            if (Val < Opts.IntLo)
              VIdx = -1; // below the domain; comparisons saturate
            else if (Val - Opts.IntLo >= H0)
              VIdx = H0; // above the domain
            else
              VIdx = Val - Opts.IntLo;
          }
          switch (R.Rel) {
          case CmpOp::Eq:
            NLo = std::max(NLo, VIdx);
            NHi = std::min(NHi, VIdx + 1);
            break;
          case CmpOp::Le:
            NHi = std::min(NHi, VIdx + 1);
            break;
          case CmpOp::Lt:
            NHi = std::min(NHi, VIdx);
            break;
          case CmpOp::Ge:
            NLo = std::max(NLo, VIdx);
            break;
          case CmpOp::Gt:
            NLo = std::max(NLo, VIdx + 1);
            break;
          default:
            break; // Ne is never stored
          }
          if (NLo >= NHi)
            break;
        }
        if (NLo >= NHi) {
          // Narrowed to nothing: every value dies, with the rule
          // conjuncts' supports as the exhaust cause.
          Stats.UnitPropagations += Hi - Lo;
          Lo = Hi = 0;
        } else {
          const uint64_t Width = static_cast<uint64_t>(NHi - NLo);
          Stats.UnitPropagations += (Hi - Lo) - Width;
          // A range pinned to a single value resolves by propagation
          // alone: like nogood-skipped values it never charges the
          // candidate (decision) budget — deadline-poll and
          // quantifier-step budgets still see the work.
          ForcedHere = Width == 1 && Width != Hi - Lo;
          Lo = static_cast<uint64_t>(NLo);
          Hi = static_cast<uint64_t>(NHi);
        }
      }
    }
    for (uint64_t Index = Lo; Index != Hi; ++Index) {
      if (Learn) {
        // Retract forbids tied to this depth's previous value, then skip
        // the value outright if an active nogood forbids it: every full
        // assignment under it falsifies that nogood's conjunct, so the
        // skip drops no witness and is not counted as a candidate. It is
        // charged to the deadline poll, though — skipping is the work.
        undoForbids(Depth);
        const std::vector<uint32_t> &FC = ForbidCount[Depth];
        if (Index < FC.size() && FC[Index] != 0) {
          ++Stats.UnitPropagations;
          // The forbid's cause: over-approximated by every variable any
          // forbid placed on this depth has depended on this epoch —
          // still a sound exhaust explanation (superset of the union).
          orCause(Depth, ForbidEverCause[Depth]);
          Contig = false;
          if (chargeWork(1)) {
            Out.Count = Count;
            return Status::Deadline;
          }
          continue;
        }
      }
      if (!ForcedHere && ++Count > Opts.MaxCandidates) {
        Out.Count = Count;
        return Status::Budget;
      }
      if (chargeWork(1)) {
        Out.Count = Count;
        return Status::Deadline;
      }
      if (Stats.MaxTrailDepth < Depth + 1)
        Stats.MaxTrailDepth = Depth + 1;
      if (V.Kind == VarKind::Int)
        IntVal[VId] = Opts.IntLo + static_cast<int64_t>(Index);
      else if (Contig)
        Dom.advance(ArrVal[VId]); // decode once, then step in domain order
      else
        ArrVal[VId] = Dom.valueAt(Index);
      Contig = true;

      if (Learn) {
        ValIdx[VId] = Index;
        if (chargeWork(propagate(Depth, Index))) {
          Out.Count = Count;
          return Status::Deadline;
        }
      }

      bool Pruned = false;
      uint32_t FailedCI = 0;
      for (uint32_t CI : (*Checks)[Depth]) {
        bool Holds = checkConjunct(CI);
        if (Budget.Tripped) {
          // The step budget tripped mid-evaluation; the conjunct's value
          // is meaningless and the search must give up here.
          Out.Count = Count;
          Out.StepTrip = true;
          return Status::Budget;
        }
        if (!Holds) {
          Pruned = true;
          FailedCI = CI;
          break;
        }
      }
      if (Pruned) { // the entire subtree under this prefix is dead
        ++Stats.Conflicts;
        if (Learn) {
          orCause(Depth, Plan.Conjuncts[FailedCI].SupportMask);
          learnFrom(FailedCI, Depth, Index);
          if (UseRestarts && !Canonical && ++ConflictsHere >= RestartLimit) {
            Out.Count = Count;
            return Status::Restart;
          }
        }
        continue;
      }

      if (Leaf) {
        captureWitness(Out.Witness);
        Out.Count = Count;
        return Status::Sat;
      }
      Status St =
          descend(Depth + 1, 0, domainSize(Plan.Order[Perm[Depth + 1]], Opts),
                  Out);
      if (St != Status::Exhausted)
        return St;
      if (Learn) {
        // Conflict-directed backjump: the child reports which variables
        // its exhaustion depended on (its own bit already cleared). If
        // this variable is not among them, every remaining value here
        // yields the identical dead subtree — skip them all. Sound
        // because each child value died through conjunct supports or
        // nogood literals, none of which read this variable.
        const std::vector<uint64_t> &ChildCause = Cause[Depth + 1];
        orCause(Depth, ChildCause);
        if (!maskTest(ChildCause, VId)) {
          ++Stats.Backjumps;
          if (chargeWork(1)) {
            Out.Count = Count;
            return Status::Deadline;
          }
          break;
        }
      }
    }
    if (Learn) {
      undoForbids(Depth);
      Cause[Depth][VId / 64] &= ~(uint64_t(1) << (VId % 64));
    }
    Out.Count = Count;
    return Status::Exhausted;
  }

  //===--------------------------------------------------------------------===//
  // Nogood store, forbids, propagation
  //===--------------------------------------------------------------------===//

  void orCause(uint32_t Depth, const std::vector<uint64_t> &Src) {
    std::vector<uint64_t> &D = Cause[Depth];
    for (uint32_t I = 0; I != MaskWords; ++I)
      D[I] |= Src[I];
  }

  static bool maskTest(const std::vector<uint64_t> &M, uint32_t VId) {
    return (M[VId / 64] >> (VId % 64)) & 1;
  }

  /// Forbids domain index \p Val at \p TgtDepth until the depth that
  /// deduced it (\p AtDepth, strictly shallower) changes value.
  void forbid(uint32_t TgtDepth, uint64_t Val, uint32_t AtDepth) {
    bumpForbid(TgtDepth, Val);
    ForbidTrail[AtDepth].push_back(ForbidRef{TgtDepth, Val});
  }

  /// Forbids for the rest of the epoch (unit nogoods: no context to
  /// retract on — the only other literal is the fixed top value).
  void forbidForEpoch(uint32_t TgtDepth, uint64_t Val) {
    bumpForbid(TgtDepth, Val);
  }

  void bumpForbid(uint32_t TgtDepth, uint64_t Val) {
    std::vector<uint32_t> &FC = ForbidCount[TgtDepth];
    if (FC.empty())
      FC.assign(domainSize(Plan.Order[Perm[TgtDepth]], Opts), 0);
    ++FC[Val];
  }

  /// Registers store entry \p NgIdx under its trigger literal's
  /// (depth, value) watch bucket.
  void watchNogood(uint32_t NgIdx, const NgLit &Trigger) {
    uint32_t D = DepthOf[Trigger.Var];
    std::vector<std::vector<uint32_t>> &ByVal = WatchAt[D];
    if (ByVal.empty())
      ByVal.resize(domainSize(Plan.Order[Perm[D]], Opts));
    ByVal[Trigger.Val].push_back(NgIdx);
  }

  void undoForbids(uint32_t Depth) {
    std::vector<ForbidRef> &T = ForbidTrail[Depth];
    if (T.empty())
      return;
    for (const ForbidRef &F : T)
      --ForbidCount[F.Depth][F.Val];
    T.clear();
  }

  /// Runs the nogoods watching \p Depth after it was assigned domain index
  /// \p Index: any nogood whose trigger matches and whose shallower
  /// literals all hold forbids its (strictly deeper) target value on this
  /// depth's trail. Returns the watch-list entries traversed, as deadline
  /// -poll work.
  uint64_t propagate(uint32_t Depth, uint64_t Index) {
    const std::vector<std::vector<uint32_t>> &ByVal = WatchAt[Depth];
    if (Index >= ByVal.size())
      return 0;
    const std::vector<uint32_t> &WL = ByVal[Index];
    for (uint32_t NgIdx : WL) {
      Nogood &Ng = Store[NgIdx];
      size_t K = Ng.Lits.size();
      bool Holds = true;
      for (size_t I = 0; I + 2 < K; ++I)
        if (ValIdx[Ng.Lits[I].Var] != Ng.Lits[I].Val) {
          Holds = false;
          break;
        }
      if (!Holds)
        continue;
      const NgLit &Tgt = Ng.Lits[K - 1];
      uint32_t TgtDepth = DepthOf[Tgt.Var];
      forbid(TgtDepth, Tgt.Val, Depth);
      // Record the forbid's dependencies for backjump cause analysis (a
      // monotone per-epoch over-approximation; see the skip path).
      std::vector<uint64_t> &FE = ForbidEverCause[TgtDepth];
      for (const NgLit &L : Ng.Lits)
        FE[L.Var / 64] |= uint64_t(1) << (L.Var % 64);
      Ng.Act += ActInc;
    }
    return WL.size();
  }

  /// Records the failing conjunct's support as a nogood: the assigned
  /// values of every support variable except the chunk-fixed top one.
  /// Bumps activity for the conflict variables (VSIDS: the increment
  /// grows, implicitly decaying older bumps), immediately forbids the
  /// failing value while its trigger context holds (so the combination
  /// cannot re-fail before backtracking), and stores the nogood for
  /// watched propagation across restart epochs unless the store is full.
  void learnFrom(uint32_t CI, uint32_t Depth, uint64_t Index) {
    const PlannedConjunct &C = Plan.Conjuncts[CI];
    NgScratch.clear();
    for (uint32_t VId : C.Support) {
      if (VId == 0)
        continue;
      Activity[VId] += ActInc;
      NgScratch.push_back(NgLit{VId, ValIdx[VId]});
    }
    ActInc *= (1.0 / 0.95);
    if (ActInc > 1e100)
      rescaleActivities();
    if (NgScratch.empty())
      return; // supported by the top var alone; the top loop owns it
    std::sort(NgScratch.begin(), NgScratch.end(),
              [&](const NgLit &A, const NgLit &B) {
                return DepthOf[A.Var] < DepthOf[B.Var];
              });
    if (NgScratch.size() == 1) {
      forbidForEpoch(Depth, Index);
    } else {
      forbid(Depth, Index, DepthOf[NgScratch[NgScratch.size() - 2].Var]);
      std::vector<uint64_t> &FE = ForbidEverCause[Depth];
      for (const NgLit &L : NgScratch)
        FE[L.Var / 64] |= uint64_t(1) << (L.Var % 64);
    }
    if (Opts.MaxNogoods != 0 && Store.size() >= Opts.MaxNogoods)
      return; // full: keep the forbid, skip the store
    if (NgScratch.size() >= 2)
      watchNogood(static_cast<uint32_t>(Store.size()),
                  NgScratch[NgScratch.size() - 2]);
    Store.push_back(Nogood{NgScratch, ActInc});
    ++Stats.LearnedNogoods;
  }

  void rescaleActivities() {
    for (double &A : Activity)
      A *= 1e-100;
    for (Nogood &Ng : Store)
      Ng.Act *= 1e-100;
    ActInc *= 1e-100;
  }

  //===--------------------------------------------------------------------===//
  // Epochs
  //===--------------------------------------------------------------------===//

  /// Drops all learned state at a top-variable value boundary. Everything
  /// the conflict-driven machinery knows derives from the current top
  /// value's subtree, which makes each subtree a pure function of
  /// (plan, top value, options) — the property the Jobs chunk replay and
  /// the shard tier rely on for bit-identical verdicts.
  void resetLearning() {
    Store.clear();
    for (uint32_t D = 0; D != NumVars; ++D) {
      WatchAt[D].clear();
      ForbidCount[D].clear();
      ForbidTrail[D].clear();
      std::fill(ForbidEverCause[D].begin(), ForbidEverCause[D].end(), 0);
    }
    std::fill(Activity.begin(), Activity.end(), 0.0);
    ActInc = 1.0;
    LubyIdx = 0;
    ConflictsHere = 0;
    RestartLimit = RestartUnit;
    Canonical = false;
    if (Permuted)
      applyIdentityOrder();
  }

  void applyIdentityOrder() {
    for (uint32_t I = 0; I != NumVars; ++I)
      Perm[I] = DepthOf[I] = I;
    Checks = &Plan.ChecksAt;
    Permuted = false;
    rebuildForcedAt();
  }

  /// Recomputes which domain-narrowing rules fire at each depth under
  /// the current Perm/DepthOf.
  void rebuildForcedAt() {
    ForcedAt.assign(NumVars, {});
    if (!Plan.HasForced)
      return;
    for (uint32_t CI = 0; CI != Plan.Conjuncts.size(); ++CI) {
      const PlannedConjunct &C = Plan.Conjuncts[CI];
      for (uint32_t RI = 0; RI != C.Forced.size(); ++RI) {
        const ForcedRule &R = C.Forced[RI];
        uint32_t D = DepthOf[R.Target];
        if (D == 0)
          continue; // the top depth is the chunked loop
        bool Applies = true;
        for (const auto &RV : R.RhsVars)
          if (DepthOf[RV.second] >= D) {
            Applies = false;
            break;
          }
        if (Applies)
          ForcedAt[D].push_back(ForcedRef{CI, RI});
      }
    }
  }

  /// Inverse of ArrayDomain::valueAt for this worker's domain: lengths
  /// ascending (all values of length L precede length L+1's block), then
  /// element digits least-significant first over [ElemLo, ElemHi].
  uint64_t arrayIndexOf(const ArrayModelValue &A) const {
    uint64_t Span = Dom.ElemHi >= Dom.ElemLo
                        ? static_cast<uint64_t>(Dom.ElemHi - Dom.ElemLo) + 1
                        : 0;
    uint64_t Idx = 0, Pow = 1;
    for (int64_t K = 0; K != A.Length; ++K) {
      Idx += Pow;
      Idx += static_cast<uint64_t>(A.Elems[K] - Dom.ElemLo) * Pow;
      Pow *= Span;
    }
    return Idx;
  }

  /// Starts a new search epoch after a restart (activity order) or for the
  /// canonical re-search (identity order): reorders the constrained inner
  /// variables, recomputes which depth checks each conjunct, re-sorts
  /// every stored nogood under the new order, and reinstalls watches and
  /// epoch forbids. Support-completeness survives any permutation because
  /// a conjunct is re-attached at the maximum depth of its support.
  void rebuildEpoch(bool IdentityOrder) {
    ConflictsHere = 0;
    RestartLimit = RestartUnit * luby(LubyIdx + 1);
    if (IdentityOrder) {
      applyIdentityOrder();
    } else {
      // Constrained variables (minus the fixed top) by activity, most
      // active first; ties and untouched variables keep canonical order
      // (stable sort), and unconstrained extras keep their tail positions.
      std::vector<uint32_t> Inner;
      for (uint32_t VId = 1; VId < Plan.NumConstrained; ++VId)
        Inner.push_back(VId);
      std::stable_sort(Inner.begin(), Inner.end(),
                       [&](uint32_t A, uint32_t B) {
                         return Activity[A] > Activity[B];
                       });
      Perm[0] = 0;
      for (uint32_t I = 0; I != Inner.size(); ++I)
        Perm[1 + I] = Inner[I];
      for (uint32_t VId = Plan.NumConstrained; VId < NumVars; ++VId)
        Perm[VId] = VId;
      Permuted = false;
      for (uint32_t I = 0; I != NumVars; ++I) {
        DepthOf[Perm[I]] = I;
        if (Perm[I] != I)
          Permuted = true;
      }
      if (!Permuted) {
        Checks = &Plan.ChecksAt;
        rebuildForcedAt();
      } else {
        PermChecks.assign(NumVars, {});
        for (uint32_t CI = 0; CI != Plan.Conjuncts.size(); ++CI) {
          const PlannedConjunct &C = Plan.Conjuncts[CI];
          if (C.Support.empty())
            continue; // variable-free: a root check, not depth-attached
          uint32_t D = 0;
          for (uint32_t VId : C.Support)
            D = std::max(D, DepthOf[VId]);
          PermChecks[D].push_back(CI);
        }
        // Same smallest-support-first discipline as the canonical plan.
        for (std::vector<uint32_t> &Cs : PermChecks)
          std::stable_sort(Cs.begin(), Cs.end(),
                           [&](uint32_t A, uint32_t B) {
                             return Plan.Conjuncts[A].Support.size() <
                                    Plan.Conjuncts[B].Support.size();
                           });
        Checks = &PermChecks;
        rebuildForcedAt();
      }
    }
    for (uint32_t D = 0; D != NumVars; ++D) {
      WatchAt[D].clear();
      ForbidCount[D].clear();
      ForbidTrail[D].clear();
      std::fill(ForbidEverCause[D].begin(), ForbidEverCause[D].end(), 0);
    }
    for (uint32_t I = 0; I != Store.size(); ++I) {
      Nogood &Ng = Store[I];
      std::sort(Ng.Lits.begin(), Ng.Lits.end(),
                [&](const NgLit &A, const NgLit &B) {
                  return DepthOf[A.Var] < DepthOf[B.Var];
                });
      if (Ng.Lits.size() == 1)
        forbidForEpoch(DepthOf[Ng.Lits[0].Var], Ng.Lits[0].Val);
      else
        watchNogood(I, Ng.Lits[Ng.Lits.size() - 2]);
    }
  }

  /// At a restart with a full store, keeps the most active half (stable:
  /// ties keep older nogoods — deterministic). The dropped forbids die
  /// with the epoch the caller is about to rebuild.
  void compactStoreIfFull() {
    if (Opts.MaxNogoods == 0 || Store.size() < Opts.MaxNogoods)
      return;
    std::vector<uint32_t> Idx(Store.size());
    for (uint32_t I = 0; I != Idx.size(); ++I)
      Idx[I] = I;
    std::stable_sort(Idx.begin(), Idx.end(), [&](uint32_t A, uint32_t B) {
      return Store[A].Act > Store[B].Act;
    });
    size_t Keep = std::max<size_t>(1, Opts.MaxNogoods / 2);
    Idx.resize(Keep);
    std::sort(Idx.begin(), Idx.end()); // keep insertion order
    std::vector<Nogood> Next;
    Next.reserve(Keep);
    for (uint32_t I : Idx)
      Next.push_back(std::move(Store[I]));
    Stats.EvictedNogoods += Store.size() - Next.size();
    Store.swap(Next);
  }

  void captureWitness(Model &W) {
    for (size_t I = 0; I != Plan.Order.size(); ++I) {
      const VarRef &V = Plan.Order[I];
      if (V.Kind == VarKind::Int)
        W.Ints[V] = IntVal[I];
      else
        W.Arrays[V] = ArrVal[I];
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Search
//===----------------------------------------------------------------------===//

SatResult BoundedSolver::search(const std::vector<const BoolExpr *> &Formulas,
                                const VarRefSet &ExtraVars, Model *ModelOut) {
  // Clear stale entries from a reused caller Model up front, so non-Sat
  // verdicts never leave a previous witness behind.
  if (ModelOut) {
    ModelOut->Ints.clear();
    ModelOut->Arrays.clear();
  }

  FormulaEvalOptions EvalOpts;
  EvalOpts.IntLo = Opts.IntLo;
  EvalOpts.IntHi = Opts.IntHi;
  EvalOpts.MaxArrayLen = Opts.MaxArrayLen;
  EvalOpts.ArrayElemLo = Opts.ArrayElemLo;
  EvalOpts.ArrayElemHi = Opts.ArrayElemHi;

  SatResult Exhausted =
      Opts.ExhaustionMeansUnsat ? SatResult::Unsat : SatResult::Unknown;
  LastStop = StopReason::Decided;
  LastQueryConflicts = 0;

  if (QueryDeadline.expired()) {
    LastStop = StopReason::Deadline;
    return SatResult::Unknown;
  }

  SearchPlan Plan = buildPlan(Formulas, ExtraVars, Ctx);
  if (Plan.TriviallyFalse)
    return Exhausted;

  size_t N = Plan.Order.size();
  if (N == 0) {
    // One (empty) candidate: the conjuncts are all variable-free.
    ++Candidates;
    SearchWorker Root(Plan, Opts, EvalOpts, QueryDeadline);
    bool Hold = Root.checkRoots();
    QuantSteps += Root.steps();
    if (Root.tripped()) {
      LastStop = StopReason::StepBudget;
      return SatResult::Unknown;
    }
    return Hold ? SatResult::Sat : Exhausted;
  }

  // The root checks run once on this thread; their quantifier steps stay
  // charged to Main's budget, so chunk 0 (which reuses Main) continues the
  // exact sequential counter.
  SearchWorker Main(Plan, Opts, EvalOpts, QueryDeadline);
  if (!Main.checkRoots()) {
    QuantSteps += Main.steps();
    if (Main.tripped()) {
      LastStop = StopReason::StepBudget;
      return SatResult::Unknown;
    }
    return Exhausted;
  }

  uint64_t TopDomain = domainSize(Plan.Order[0], Opts);
  if (TopDomain == 0)
    return Exhausted;

  // Chunk the top variable's domain contiguously across the workers. Every
  // chunk searches independently with the full candidate budget; the
  // replay below reconstructs the sequential verdict exactly, so Jobs
  // never changes the answer, the witness, or a budget trip.
  uint64_t Chunks = std::min<uint64_t>(std::max(1u, Opts.Jobs), TopDomain);
  std::vector<SearchWorker::Outcome> Outcomes(Chunks);
  auto ChunkLo = [&](uint64_t I) { return TopDomain * I / Chunks; };

  // Chunks 1..C-1 go to spawned workers; chunk 0 runs on this thread,
  // reusing Main's executors (with Chunks == 1 this is simply the
  // sequential path, no threads involved).
  std::vector<std::thread> Pool;
  Pool.reserve(Chunks - 1);
  for (uint64_t I = 1; I != Chunks; ++I)
    Pool.emplace_back([&, I] {
      SearchWorker W(Plan, Opts, EvalOpts, QueryDeadline);
      Outcomes[I] = W.run(ChunkLo(I), ChunkLo(I + 1));
    });
  Outcomes[0] = Main.run(0, ChunkLo(1));
  for (std::thread &T : Pool)
    T.join();

  for (const SearchWorker::Outcome &O : Outcomes) {
    Candidates += O.Count;
    QuantSteps += O.Steps;
    SearchStats.merge(O.Search);
    LastQueryConflicts += O.Search.Conflicts;
  }

  // A deadline trip anywhere means the query ran out of time; the verdict
  // is Unknown regardless of what other chunks found (which chunk trips
  // first is time-dependent, so no replay can make this deterministic —
  // that is exactly why deadline verdicts are never cached or pinned).
  for (const SearchWorker::Outcome &O : Outcomes)
    if (O.St == SearchWorker::Status::Deadline) {
      LastStop = StopReason::Deadline;
      return SatResult::Unknown;
    }

  // Replay the chunks in domain order. Chunk searches are independent, so
  // each chunk's candidate and quantifier-step counts are identical to
  // what a sequential run would spend inside it; accumulating the counts
  // in order therefore reproduces the sequential budget checks, and
  // taking the first Sat reproduces the sequential first witness. (A Sat
  // chunk's counts stop at its witness, so "the sequential run trips
  // before reaching this chunk's witness" is decidable from the sums.)
  uint64_t CumCand = 0, CumSteps = 0;
  for (const SearchWorker::Outcome &O : Outcomes) {
    if (CumCand + O.Count > Opts.MaxCandidates) {
      // A sequential run trips inside this chunk. When both budgets would
      // trip in the same chunk the candidate budget is reported; the
      // verdict (Unknown) never depends on the choice.
      LastStop = StopReason::CandidateBudget;
      return SatResult::Unknown;
    }
    if (Opts.MaxQuantSteps != 0 && CumSteps + O.Steps > Opts.MaxQuantSteps) {
      LastStop = StopReason::StepBudget;
      return SatResult::Unknown;
    }
    if (O.St == SearchWorker::Status::Budget) {
      // Defensive: a local trip always exceeds the cumulative budget too.
      LastStop = O.StepTrip ? StopReason::StepBudget
                            : StopReason::CandidateBudget;
      return SatResult::Unknown;
    }
    CumCand += O.Count;
    CumSteps += O.Steps;
    if (O.St == SearchWorker::Status::Sat) {
      if (ModelOut)
        *ModelOut = O.Witness;
      return SatResult::Sat;
    }
  }
  return Exhausted;
}

//===----------------------------------------------------------------------===//
// Text form
//===----------------------------------------------------------------------===//

namespace {

/// Calls \p F(key, field) for every field of the text form, in its fixed
/// order: the one list of the configuration's fields outside the struct.
template <typename OptionsT, typename Fn>
void forEachField(OptionsT &O, Fn &&F) {
  F("lo", O.IntLo);
  F("hi", O.IntHi);
  F("alen", O.MaxArrayLen);
  F("elo", O.ArrayElemLo);
  F("ehi", O.ArrayElemHi);
  F("cands", O.MaxCandidates);
  F("steps", O.MaxQuantSteps);
  F("exhaust", O.ExhaustionMeansUnsat);
  F("jobs", O.Jobs);
  F("learn", O.Learning);
  F("restarts", O.Restarts);
  F("nogoods", O.MaxNogoods);
}

/// Parses one field value: 0 or 1 for a flag, else a strict decimal that
/// must fit the field's type.
template <typename T> bool parseField(std::string_view V, T &Out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (V != "0" && V != "1")
      return false;
    Out = V == "1";
    return true;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return parseDecimal(V, Out);
  } else {
    uint64_t N = 0;
    if (!parseDecimal(V, N) || N > std::numeric_limits<T>::max())
      return false;
    Out = static_cast<T>(N);
    return true;
  }
}

} // namespace

std::string relax::formatBoundedOptions(const BoundedSolverOptions &Opts) {
  std::string Out;
  forEachField(Opts, [&](const char *Key, const auto &V) {
    if (!Out.empty())
      Out += ' ';
    Out += Key;
    Out += '=';
    Out += std::to_string(V);
  });
  return Out;
}

Result<BoundedSolverOptions>
relax::parseBoundedOptions(std::string_view Text) {
  BoundedSolverOptions O;
  std::string_view Rest = Text;
  std::string Err;
  forEachField(O, [&](const char *Key, auto &V) {
    size_t Sp = std::min(Rest.find(' '), Rest.size());
    std::string_view Tok = Rest.substr(0, Sp);
    Rest.remove_prefix(std::min(Sp + 1, Rest.size()));
    size_t KeyLen = std::strlen(Key);
    if (Err.empty() && (Tok.substr(0, KeyLen) != Key ||
                        Tok.substr(KeyLen, 1) != "=" ||
                        !parseField(Tok.substr(KeyLen + 1), V)))
      Err = "bad field '" + std::string(Tok) + "' (expected " + Key +
            "=<value>)";
  });
  // Only the printed form is accepted: no extra fields, spaces or zeros.
  if (Err.empty() && formatBoundedOptions(O) != Text)
    Err = "'" + std::string(Text) + "' is not in the printed form";
  if (Err.empty() && (O.Jobs < 1 || O.Jobs > 1024))
    Err = "jobs must be 1..1024, got " + std::to_string(O.Jobs);
  if (!Err.empty())
    return Result<BoundedSolverOptions>::error("bad bounded options: " + Err);
  return O;
}

//===----------------------------------------------------------------------===//
// Solver interface
//===----------------------------------------------------------------------===//

Result<SatResult>
BoundedSolver::checkSat(const std::vector<const BoolExpr *> &Formulas) {
  ++Queries;
  return search(Formulas, VarRefSet(), nullptr);
}

Result<SatResult>
BoundedSolver::checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                                 const VarRefSet &Vars, Model &ModelOut) {
  ++Queries;
  return search(Formulas, Vars, &ModelOut);
}
