//===- Z3Solver.cpp - Z3 backend ----------------------------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "solver/Z3Solver.h"

#include "support/Casting.h"

#if RELAXC_HAVE_Z3

#include <z3++.h>

#include <atomic>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>

using namespace relax;

namespace {

/// Mangles a VarRef into a Z3 constant name.
std::string mangle(const Interner &Syms, Symbol Name, VarTag Tag,
                   const char *Suffix = "") {
  std::string Out(Syms.text(Name));
  Out += Suffix;
  switch (Tag) {
  case VarTag::Plain:
    break;
  case VarTag::Orig:
    Out += "!o";
    break;
  case VarTag::Rel:
    Out += "!r";
    break;
  }
  return Out;
}

/// Translation state. One Translator lives as long as its Z3Solver: the
/// z3::context is expensive to construct, and keeping it allows the
/// node-identity-keyed term caches below, which are sound because
/// hash-consed AST nodes are immutable and unique for their structure
/// within the AstContext the solver serves.
class Translator {
public:
  Translator(z3::context &C, const Interner &Syms) : C(C), Syms(Syms) {}

  /// The `len >= 0` axioms for every array mentioned so far.
  const std::vector<z3::expr> &lengthAxioms() const { return LenAxioms; }

  z3::expr intConst(Symbol Name, VarTag Tag) {
    return C.int_const(mangle(Syms, Name, Tag).c_str());
  }

  z3::expr arrayConst(Symbol Name, VarTag Tag) {
    z3::sort ArrSort = C.array_sort(C.int_sort(), C.int_sort());
    return C.constant(mangle(Syms, Name, Tag, "!arr").c_str(), ArrSort);
  }

  z3::expr lenConst(Symbol Name, VarTag Tag) {
    std::string N = mangle(Syms, Name, Tag, "!len");
    z3::expr L = C.int_const(N.c_str());
    if (SeenLens.insert(N).second)
      LenAxioms.push_back(L >= 0);
    return L;
  }

  z3::expr trExpr(const Expr *E) {
    if (auto It = ExprCache.find(E); It != ExprCache.end())
      return It->second;
    z3::expr Out = trExprUncached(E);
    ExprCache.emplace(E, Out);
    return Out;
  }

  z3::expr trArray(const ArrayExpr *A) {
    if (auto It = ArrayCache.find(A); It != ArrayCache.end())
      return It->second;
    z3::expr Out = trArrayUncached(A);
    ArrayCache.emplace(A, Out);
    return Out;
  }

  z3::expr trFormula(const BoolExpr *B) {
    if (auto It = BoolCache.find(B); It != BoolCache.end())
      return It->second;
    z3::expr Out = trFormulaUncached(B);
    BoolCache.emplace(B, Out);
    return Out;
  }

private:
  z3::expr trExprUncached(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      return C.int_val(cast<IntLitExpr>(E)->value());
    case Expr::Kind::Var: {
      const auto *V = cast<VarExpr>(E);
      return intConst(V->name(), V->tag());
    }
    case Expr::Kind::ArrayRead: {
      const auto *R = cast<ArrayReadExpr>(E);
      return z3::select(trArray(R->base()), trExpr(R->index()));
    }
    case Expr::Kind::ArrayLen:
      return trArrayLen(cast<ArrayLenExpr>(E)->base());
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      z3::expr L = trExpr(B->lhs());
      z3::expr R = trExpr(B->rhs());
      switch (B->op()) {
      case BinaryOp::Add:
        return L + R;
      case BinaryOp::Sub:
        return L - R;
      case BinaryOp::Mul:
        return L * R;
      case BinaryOp::Div:
        return L / R; // SMT-LIB div (Euclidean)
      case BinaryOp::Mod:
        return z3::mod(L, R);
      }
      break;
    }
    }
    return C.int_val(0);
  }

  z3::expr trArrayUncached(const ArrayExpr *A) {
    switch (A->kind()) {
    case ArrayExpr::Kind::Ref: {
      const auto *R = cast<ArrayRefExpr>(A);
      // Touch the length so its axiom is emitted.
      (void)lenConst(R->name(), R->tag());
      return arrayConst(R->name(), R->tag());
    }
    case ArrayExpr::Kind::Store: {
      const auto *S = cast<ArrayStoreExpr>(A);
      return z3::store(trArray(S->base()), trExpr(S->index()),
                       trExpr(S->value()));
    }
    }
    return arrayConst(Symbol(), VarTag::Plain); // unreachable
  }

  /// Lengths are preserved by store, so the length of any array expression
  /// is the length of the root reference.
  z3::expr trArrayLen(const ArrayExpr *A) {
    const ArrayExpr *Root = A;
    while (const auto *S = dyn_cast<ArrayStoreExpr>(Root))
      Root = S->base();
    const auto *R = cast<ArrayRefExpr>(Root);
    return lenConst(R->name(), R->tag());
  }

  z3::expr trFormulaUncached(const BoolExpr *B) {
    switch (B->kind()) {
    case BoolExpr::Kind::BoolLit:
      return C.bool_val(cast<BoolLitExpr>(B)->value());
    case BoolExpr::Kind::Cmp: {
      const auto *Cm = cast<CmpExpr>(B);
      z3::expr L = trExpr(Cm->lhs());
      z3::expr R = trExpr(Cm->rhs());
      switch (Cm->op()) {
      case CmpOp::Lt:
        return L < R;
      case CmpOp::Le:
        return L <= R;
      case CmpOp::Gt:
        return L > R;
      case CmpOp::Ge:
        return L >= R;
      case CmpOp::Eq:
        return L == R;
      case CmpOp::Ne:
        return L != R;
      }
      break;
    }
    case BoolExpr::Kind::ArrayCmp: {
      const auto *Cm = cast<ArrayCmpExpr>(B);
      z3::expr Contents = trArray(Cm->lhs()) == trArray(Cm->rhs());
      z3::expr Lens = trArrayLen(Cm->lhs()) == trArrayLen(Cm->rhs());
      z3::expr Eq = Contents && Lens;
      return Cm->isEquality() ? Eq : !Eq;
    }
    case BoolExpr::Kind::Logical: {
      const auto *L = cast<LogicalExpr>(B);
      z3::expr A = trFormula(L->lhs());
      z3::expr R = trFormula(L->rhs());
      switch (L->op()) {
      case LogicalOp::And:
        return A && R;
      case LogicalOp::Or:
        return A || R;
      case LogicalOp::Implies:
        return z3::implies(A, R);
      case LogicalOp::Iff:
        return A == R;
      }
      break;
    }
    case BoolExpr::Kind::Not:
      return !trFormula(cast<NotExpr>(B)->sub());
    case BoolExpr::Kind::Exists: {
      const auto *E = cast<ExistsExpr>(B);
      if (E->varKind() == VarKind::Int) {
        z3::expr V = intConst(E->var(), E->tag());
        return z3::exists(V, trFormula(E->body()));
      }
      // Arrays: bind both the content map and the length.
      z3::expr Arr = arrayConst(E->var(), E->tag());
      z3::expr Len = C.int_const(
          mangle(Syms, E->var(), E->tag(), "!len").c_str());
      z3::expr Body = Len >= 0 && trFormula(E->body());
      z3::expr_vector Bound(C);
      Bound.push_back(Arr);
      Bound.push_back(Len);
      return z3::exists(Bound, Body);
    }
    }
    return C.bool_val(false);
  }

  z3::context &C;
  const Interner &Syms;
  std::vector<z3::expr> LenAxioms;
  std::set<std::string> SeenLens;
  // Identity-keyed translation memos (valid for the lifetime of the
  // AstContext whose hash-consed nodes this solver serves).
  std::unordered_map<const Expr *, z3::expr> ExprCache;
  std::unordered_map<const ArrayExpr *, z3::expr> ArrayCache;
  std::unordered_map<const BoolExpr *, z3::expr> BoolCache;
};

std::optional<int64_t> evalInt(z3::model &M, const z3::expr &E) {
  z3::expr V = M.eval(E, /*model_completion=*/true);
  int64_t Out = 0;
  if (V.is_numeral_i64(Out))
    return Out;
  return std::nullopt;
}

} // namespace

struct Z3Solver::Impl {
  // One context + translator + incremental solver from this Z3Solver's
  // first query to its destruction: constructing a z3::context (~12 ms)
  // and a fresh z3::solver used to dominate small-query discharge time,
  // while a push/pop scope on a persistent solver costs microseconds
  // (bench/solver_ablation measures the difference). The persistent
  // context also lets translated terms be memoized across queries.
  //
  // The solver is Z3's incremental SMT core (`simple`), which is what the
  // default solver runs every push/pop query on anyway; the default one
  // also builds its whole default tactic on its first check (8-14 ms, vs
  // under 2 ms for the core). Its timeout is the context's `timeout`,
  // written before every check: that write costs well under a
  // microsecond, where setting a solver's params costs ~2 ms.
  z3::context C;
  Translator T;
  std::optional<z3::solver> S;

  explicit Impl(const Interner &Syms) : T(C, Syms) {
    ContextsBuilt.fetch_add(1, std::memory_order_relaxed);
  }

  static inline std::atomic<uint64_t> ContextsBuilt{0};

  z3::solver &solver() {
    if (!S)
      S.emplace(C, z3::solver::simple());
    return *S;
  }

  /// After a z3::exception the solver's scope stack is unknown; drop it so
  /// the next query starts from a fresh one.
  void resetSolver() { S.reset(); }
};

namespace {

/// Pops one scope on destruction — keeps the persistent solver balanced on
/// every exit path of a query.
struct ScopedPush {
  z3::solver &S;
  explicit ScopedPush(z3::solver &S) : S(S) { S.push(); }
  ~ScopedPush() {
    try {
      S.pop();
    } catch (const z3::exception &) {
      // Unbalanced solver; the owner resets it on the error path.
    }
  }
};

/// Quotes every symbol holding a `'` (freshened names such as
/// `variant'1!o`) as `|variant'1!o|`. Z3 prints them bare, and SMT-LIB
/// parsers, Z3's own included, reject the character in a simple symbol.
/// Quoted symbols, strings and comments pass through untouched.
std::string quotePrimedSymbols(const std::string &Script) {
  auto IsSymbolChar = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) ||
           std::string_view("~!@$%^&*_-+=<>.?/'").find(C) !=
               std::string_view::npos;
  };
  std::string Out;
  Out.reserve(Script.size());
  for (size_t I = 0; I != Script.size();) {
    char C = Script[I];
    size_t E = I + 1;
    bool Quote = false;
    if (C == '|' || C == '"' || C == ';') {
      E = Script.find(C == ';' ? '\n' : C, E);
      E = E == std::string::npos ? Script.size() : E + 1;
    } else if (IsSymbolChar(C)) {
      while (E != Script.size() && IsSymbolChar(Script[E]))
        ++E;
      Quote = std::string_view(Script.data() + I, E - I).find('\'') !=
              std::string_view::npos;
    }
    if (Quote)
      Out += '|';
    Out.append(Script, I, E - I);
    if (Quote)
      Out += '|';
    I = E;
  }
  return Out;
}

} // namespace

Z3Solver::Z3Solver(const Interner &Syms, Z3SolverOptions Opts)
    : Syms(Syms), Opts(Opts) {}
Z3Solver::~Z3Solver() = default;

uint64_t Z3Solver::contextsBuilt() { return Impl::ContextsBuilt.load(); }

Z3Solver::Impl &Z3Solver::impl() {
  if (!P)
    P = std::make_unique<Impl>(Syms);
  return *P;
}

Result<std::string>
Z3Solver::toSmtLib(const std::vector<const BoolExpr *> &Formulas) {
  try {
    // A fresh Translator per dump: the script must contain exactly this
    // query's declarations and length axioms, not the axioms accumulated
    // by the persistent query translator.
    Impl &Z = impl();
    z3::solver S(Z.C);
    Translator T(Z.C, Syms);
    for (const BoolExpr *F : Formulas)
      S.add(T.trFormula(F));
    for (const z3::expr &Axiom : T.lengthAxioms())
      S.add(Axiom);
    return quotePrimedSymbols(S.to_smt2());
  } catch (const z3::exception &E) {
    return Result<std::string>::error(std::string("z3 error: ") + E.msg());
  }
}

Result<SatResult>
Z3Solver::checkSat(const std::vector<const BoolExpr *> &Formulas) {
  Model Ignored;
  return checkSatWithModel(Formulas, VarRefSet(), Ignored);
}

Result<SatResult>
Z3Solver::checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                            const VarRefSet &Vars, Model &ModelOut) {
  ++Queries;
  // Clear stale entries from a reused caller Model up front, so non-Sat
  // verdicts never leave a previous witness behind.
  ModelOut = Model();
  LastDeadlined = false;
  if (QueryDeadline.expired()) {
    LastDeadlined = true;
    return SatResult::Unknown;
  }
  try {
    Impl &Z = impl();
    // Cap the per-query timeout by the time the deadline leaves, so a
    // query started just before expiry cannot overrun by a full
    // Opts.TimeoutMs. Building the context can eat a short budget, and
    // Z3 reads a 0 timeout as none, so a deadline with under a
    // millisecond left settles here. The cap rounds the truncated
    // remainder up: a capped check that times out returns only after the
    // deadline has expired, and so is reported as a deadline gave-up.
    unsigned EffTimeoutMs = Opts.TimeoutMs;
    if (QueryDeadline.armed()) {
      int64_t Left = QueryDeadline.remainingMs();
      if (Left == 0) {
        LastDeadlined = true;
        return SatResult::Unknown;
      }
      if (Left < static_cast<int64_t>(EffTimeoutMs))
        EffTimeoutMs = static_cast<unsigned>(Left + 1);
    }
    Z.C.set("timeout", std::to_string(EffTimeoutMs).c_str());
    z3::solver &S = Z.solver();
    ScopedPush Scope(S);

    for (const BoolExpr *F : Formulas)
      S.add(Z.T.trFormula(F));
    // All accumulated length axioms are added: `a!len >= 0` over an array
    // the query never mentions is a satisfiable constraint on a fresh
    // constant and cannot change the verdict.
    for (const z3::expr &Axiom : Z.T.lengthAxioms())
      S.add(Axiom);

    switch (S.check()) {
    case z3::unsat:
      return SatResult::Unsat;
    case z3::unknown:
      LastDeadlined = QueryDeadline.expired();
      return SatResult::Unknown;
    case z3::sat:
      break;
    }

    z3::model M = S.get_model();
    for (const VarRef &V : Vars) {
      if (V.Kind == VarKind::Int) {
        z3::expr E = Z.T.intConst(V.Name, V.Tag);
        ModelOut.Ints[V] = evalInt(M, E).value_or(0);
        continue;
      }
      z3::expr Arr = Z.T.arrayConst(V.Name, V.Tag);
      z3::expr Len = Z.T.lenConst(V.Name, V.Tag);
      int64_t N = evalInt(M, Len).value_or(0);
      if (N < 0)
        N = 0;
      if (N > Opts.MaxExtractedArrayLen)
        N = Opts.MaxExtractedArrayLen;
      ArrayModelValue AV;
      AV.Length = N;
      AV.Elems.reserve(static_cast<size_t>(N));
      for (int64_t I = 0; I != N; ++I)
        AV.Elems.push_back(
            evalInt(M, z3::select(Arr, Z.C.int_val(I))).value_or(0));
      ModelOut.Arrays[V] = AV;
    }
    return SatResult::Sat;
  } catch (const z3::exception &E) {
    if (P)
      P->resetSolver();
    return Result<SatResult>::error(std::string("z3 error: ") + E.msg());
  }
}

#else // !RELAXC_HAVE_Z3

//===----------------------------------------------------------------------===//
// Stub backend: keeps the library linkable when z3 is unavailable
// (RELAXC_ENABLE_Z3=OFF). Every query reports a backend error, which the
// verifier surfaces as VCStatus::SolverError.
//===----------------------------------------------------------------------===//

using namespace relax;

namespace {
const char *NoZ3Message =
    "z3 backend not built (configure with RELAXC_ENABLE_Z3=ON); "
    "use --solver=bounded";
} // namespace

struct Z3Solver::Impl {};

Z3Solver::Z3Solver(const Interner &Syms, Z3SolverOptions Opts)
    : Syms(Syms), Opts(Opts) {}
Z3Solver::~Z3Solver() = default;

uint64_t Z3Solver::contextsBuilt() { return 0; }

Result<std::string>
Z3Solver::toSmtLib(const std::vector<const BoolExpr *> &) {
  return Result<std::string>::error(NoZ3Message);
}

Result<SatResult>
Z3Solver::checkSat(const std::vector<const BoolExpr *> &) {
  ++Queries;
  return Result<SatResult>::error(NoZ3Message);
}

Result<SatResult>
Z3Solver::checkSatWithModel(const std::vector<const BoolExpr *> &,
                            const VarRefSet &, Model &) {
  ++Queries;
  return Result<SatResult>::error(NoZ3Message);
}

#endif // RELAXC_HAVE_Z3
