//===- FormulaProgram.h - Compiled formula evaluation programs -----*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a hash-consed `BoolExpr` once into a flat post-order evaluation
/// program, so the bounded backend evaluates candidates without re-walking
/// the tree. Pointer identity of hash-consed subterms drives common
/// subexpression elimination: a subformula shared N times in the tree
/// compiles to one instruction and evaluates once per candidate.
///
/// Programs read their variables from caller-supplied input arrays (one
/// slot per free variable, split by kind), write into three register banks
/// (ints, bools, array values), and are immutable after compilation — one
/// compiled program may be executed concurrently from many threads, each
/// thread owning its own `Executor` (the mutable register state).
///
/// Existential quantifiers compile to nested subprograms over the body;
/// the `Exists` instruction enumerates the bound variable's domain and runs
/// the subprogram, feeding non-bound inputs through from the parent's
/// inputs. Evaluation semantics match `evalFormula` exactly (total
/// functions, Euclidean division, out-of-range reads yield 0).
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SOLVER_FORMULAPROGRAM_H
#define RELAXC_SOLVER_FORMULAPROGRAM_H

#include "ast/AstContext.h"
#include "solver/FormulaEval.h"

#include <memory>
#include <vector>

namespace relax {

/// A flat, post-order evaluation program for one formula.
class FormulaProgram {
public:
  /// One evaluation step. Registers are bank-local indices; which bank
  /// `Dst`/`A`/`B`/`C` address is determined by the opcode.
  struct Inst {
    enum class Op : uint8_t {
      IntConst,   ///< Ints[Dst] = Imm
      IntInput,   ///< Ints[Dst] = IntIn[A]
      ArrayInput, ///< Arrs[Dst] = ArrIn[A]
      ArrayStore, ///< Arrs[Dst] = store(Arrs[A], Ints[B], Ints[C])
      ArrayRead,  ///< Ints[Dst] = Arrs[A][Ints[B]] (0 out of range)
      ArrayLen,   ///< Ints[Dst] = Arrs[A].Length
      IntBinary,  ///< Ints[Dst] = Ints[A] <Sub: BinaryOp> Ints[B]
      BoolConst,  ///< Bools[Dst] = Imm != 0
      Cmp,        ///< Bools[Dst] = evalCmpOp(Sub, Ints[A], Ints[B])
      ArrayCmp,   ///< Bools[Dst] = (Arrs[A] == Arrs[B]) == (Sub != 0)
      Logical,    ///< Bools[Dst] = <Sub: LogicalOp>(Bools[A], Bools[B])
      Not,        ///< Bools[Dst] = !Bools[A]
      Exists,     ///< Bools[Dst] = ∃ bound value: SubPrograms[A] (see below)
    };
    Op K;
    uint8_t Sub = 0;
    uint32_t Dst = 0;
    uint32_t A = 0;
    uint32_t B = 0;
    uint32_t C = 0;
    int64_t Imm = 0;
  };

  /// Where one subprogram input reads its value during an Exists
  /// enumeration: the enumerated bound variable itself, or a slot of the
  /// parent program's input array of the same kind.
  struct SubInput {
    bool FromBound = false;
    uint32_t ParentSlot = 0;
  };

  /// A compiled quantifier body plus the input wiring for enumerating it.
  struct SubProgram {
    std::shared_ptr<const FormulaProgram> Body;
    VarRef Bound;
    std::vector<SubInput> IntSources; ///< parallel to Body->intInputs()
    std::vector<SubInput> ArrSources; ///< parallel to Body->arrayInputs()
  };

  /// Compiles \p Root. When \p Cache is non-null, the root and every
  /// quantifier body are looked up / recorded there, keyed by node
  /// identity (sound for hash-consed nodes; see AstContext).
  static std::shared_ptr<const FormulaProgram>
  compile(const BoolExpr *Root, FormulaProgramCache *Cache = nullptr);

  /// The free scalar / array variables the program reads, in first-use
  /// order. Callers supply one value per entry to Executor::run.
  const std::vector<VarRef> &intInputs() const { return IntIns; }
  const std::vector<VarRef> &arrayInputs() const { return ArrIns; }

  /// Number of distinct variables the program reads — the bounded
  /// planner's support-size ordering key.
  size_t supportSize() const { return IntIns.size() + ArrIns.size(); }

  /// Appends every variable the program reads (ints, then arrays) to
  /// \p Out. Input slots are allocated on first reference during
  /// compilation, so this is the exact evaluated slice — a variable whose
  /// occurrences all folded away claims no slot — which is what makes the
  /// set a sound conflict support: when the program returns false, only
  /// these variables fed the failure.
  void supportVars(std::vector<VarRef> &Out) const;

  const std::vector<Inst> &instructions() const { return Code; }
  const std::vector<SubProgram> &subPrograms() const { return Subs; }

  /// Mutable evaluation state for one program: the register banks and the
  /// (lazily built) executors of quantifier subprograms. One Executor per
  /// thread; the program itself is shared and immutable.
  class Executor {
  public:
    explicit Executor(const FormulaProgram &P);

    /// Evaluates the program. \p IntIn holds one value and \p ArrIn one
    /// pointer per intInputs() / arrayInputs() entry (pointers, so hot
    /// callers bind array variables without copying a value per check);
    /// \p Opts bounds quantifier enumeration (matching evalFormula).
    /// \p Budget, when non-null, is charged one step per quantifier-body
    /// evaluation; once it trips the run aborts and the returned boolean
    /// is meaningless — check `Budget->Tripped` after every run.
    bool run(const int64_t *IntIn, const ArrayModelValue *const *ArrIn,
             const FormulaEvalOptions &Opts, EvalBudget *Budget = nullptr);

  private:
    const FormulaProgram &P;
    std::vector<int64_t> Ints;
    std::vector<uint8_t> Bools;
    std::vector<ArrayModelValue> Arrs;
    /// Per-subprogram executor and input scratch, built on first use.
    struct SubState {
      std::unique_ptr<Executor> Exec;
      std::vector<int64_t> IntIn;
      std::vector<const ArrayModelValue *> ArrIn;
      ArrayModelValue BoundArr; ///< storage for an enumerated array
    };
    std::vector<SubState> SubStates;

    bool runExists(const Inst &I, const int64_t *IntIn,
                   const ArrayModelValue *const *ArrIn,
                   const FormulaEvalOptions &Opts, EvalBudget *Budget);
  };

  /// Convenience: compiles (uncached) and evaluates under a Model.
  /// Equivalent to evalFormula; used by the property tests.
  static bool evaluateOnce(const BoolExpr *Root, const Model &M,
                           const FormulaEvalOptions &Opts);

private:
  friend class FormulaProgramCompiler;
  FormulaProgram() = default;

  std::vector<Inst> Code;
  std::vector<SubProgram> Subs;
  std::vector<VarRef> IntIns;
  std::vector<VarRef> ArrIns;
  uint32_t NumIntRegs = 0;
  uint32_t NumBoolRegs = 0;
  uint32_t NumArrRegs = 0;
  /// Register holding the final result (always a bool register).
  uint32_t ResultReg = 0;
};

} // namespace relax

#endif // RELAXC_SOLVER_FORMULAPROGRAM_H
