//===- Verifier.h - End-to-end verification driver ------------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the full pipeline for one annotated program: sema, the |-o VC pass,
/// the |-r VC pass (which internally re-proves diverge bodies under |-o and
/// |-i), and solver discharging. A program whose two passes both verify
/// enjoys the paper's end-to-end guarantees:
///
///  * Original Progress Modulo Assumptions (Lemma 2),
///  * Soundness of Relational Assertions   (Theorem 6),
///  * Relative Relaxed Progress            (Theorem 7),
///  * Relaxed Progress                     (Theorem 8),
///  * Relaxed Progress Modulo Original Assumptions (Corollary 9).
///
/// Discharging goes through the `DischargeScheduler` (vcgen/Discharge.h)
/// on one path: with `Options::Portfolio` set, the tiered portfolio
/// (simplify → budgeted bounded → SMT, with the final tier optionally
/// sharded onto a worker-process pool via `PortfolioOptions::Pool`),
/// fanned out over a work-stealing pool of `Jobs` slots; without it, the
/// constructor-supplied solver alone. Verdicts and report ordering are
/// independent of the schedule, the process count, and the pool size.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_VCGEN_VERIFIER_H
#define RELAXC_VCGEN_VERIFIER_H

#include "sema/Sema.h"
#include "vcgen/Discharge.h"
#include "vcgen/RelationalVCGen.h"

#include <memory>

namespace relax {

/// The full verification report for a program.
struct VerifyReport {
  bool SemaOk = false;
  /// Structural rule violations found during VC generation (e.g. a diverge
  /// frame over a modified variable); reported via the DiagnosticEngine.
  bool GenErrors = false;
  /// |-o pass: every procedure's {requires} body {ensures} summary.
  JudgmentReport Original;
  /// |-r pass: every procedure's {rrequires} body {rensures} summary,
  /// plus |-i summaries for procedures reachable from calls under plain
  /// `diverge` annotations. Each VC's Proc field names its procedure.
  JudgmentReport Relaxed;

  /// Theorem 8 preconditions: both passes verified.
  bool verified() const {
    return SemaOk && !GenErrors && Original.allProved() &&
           Relaxed.allProved();
  }

  size_t totalVCs() const {
    return Original.Outcomes.size() + Relaxed.Outcomes.size();
  }

  /// The `relaxc verify` exit code (pinned by driver_cli_tests): 0
  /// verified; 2 on a static error; 1 when any obligation was refuted;
  /// 3 when the run fell short only because a solver gave up or
  /// errored — so scripts can tell "the program is wrong" from "the
  /// solver was too weak" without parsing output.
  int exitStatus() const {
    if (verified())
      return 0;
    if (!SemaOk || GenErrors)
      return 2;
    return Original.count(VCStatus::Failed) + Relaxed.count(VCStatus::Failed)
               ? 1
               : 3;
  }
};

/// Verification pipeline driver.
///
/// VC generation is sequential (it builds hash-consed nodes, which is not
/// thread-safe); discharging is delegated to a DischargeScheduler whose
/// result cache and statistics span both judgment passes of one run().
class Verifier {
public:
  struct Options {
    VCGenOptions GenOpts;
    bool RunOriginal = true;
    bool RunRelaxed = true;
    /// Number of discharge slots (see DischargeScheduler::Config::Jobs);
    /// without a Portfolio, discharge runs on one.
    unsigned Jobs = 1;
    /// Tier chain for the portfolio pipeline. When set, discharging runs
    /// through per-slot PortfolioSolvers and the constructor-supplied
    /// solver is not consulted.
    std::optional<PortfolioOptions> Portfolio;
    /// Final-tier SMT backend factory for the portfolio; null degrades
    /// the z3 tier to bounded-at-full-domain.
    PortfolioSolver::BackendFactory SmtFactory;
    /// When non-null, the run's discharge statistics (per-tier settled /
    /// escalated counts, cache hits, work counters) are merged here.
    DischargeStats *StatsOut = nullptr;
    /// Global deadline (`--timeout-ms`) for the whole run; unarmed means
    /// none. Obligations past it settle as gave-ups with reason
    /// "deadline" — a bounded run always produces a complete report.
    Deadline GlobalDeadline;
    /// Per-VC timeout in milliseconds (`--vc-timeout-ms`); < 0 disables.
    int64_t VcTimeoutMs = -1;
    /// On-disk verdict cache (`--cache-dir=`) fronting the scheduler's
    /// shared result cache; not owned, may be null. The caller loads it
    /// before run() and flushes it after.
    PersistentCache *PCache = nullptr;
  };

  Verifier(AstContext &Ctx, const Program &Prog, Solver &S,
           DiagnosticEngine &Diags)
      : Ctx(Ctx), Prog(Prog), TheSolver(S), Diags(Diags) {}

  /// Runs sema + both passes + discharging.
  VerifyReport run(Options Opts);
  VerifyReport run() { return run(Options{}); }

  /// One judgment pass's obligations in report order: procedures in
  /// declaration order, each contributing its |-o summary (\p Pass =
  /// Original), or its |-i summary where \p Info requires one followed
  /// by its |-r summary (\p Pass = Relaxed). run() discharges exactly
  /// these sets; `relaxc dump-vcs` prints them.
  static VCSet passVCs(AstContext &Ctx, const Program &Prog,
                       const SemaInfo &Info, JudgmentKind Pass,
                       DiagnosticEngine &Diags, const VCGenOptions &GenOpts);

  /// The relational precondition actually used for the *entry* procedure:
  /// its rrequires clause, or (by default) "both executions start from the
  /// same state satisfying the unary precondition":
  /// identity /\ injo(requires) /\ injr(requires).
  /// The per-procedure generalization is relax::effectiveRelRequires in
  /// logic/FormulaOps.h; run() uses that for every procedure.
  const BoolExpr *effectiveRelRequires();

private:
  AstContext &Ctx;
  const Program &Prog;
  Solver &TheSolver;
  DiagnosticEngine &Diags;
};

/// Renders a human-readable report.
std::string renderReport(const VerifyReport &Report, const Interner &Syms,
                         bool Verbose = false);

} // namespace relax

#endif // RELAXC_VCGEN_VERIFIER_H
