//===- Verifier.cpp - End-to-end verification driver --------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "vcgen/Verifier.h"

#include "ast/Printer.h"

#include <cstdio>

using namespace relax;

const BoolExpr *Verifier::effectiveRelRequires() {
  const Procedure *E = Prog.entry();
  if (!E)
    return Ctx.trueExpr();
  return relax::effectiveRelRequires(Ctx, Prog, *E);
}

VerifyReport Verifier::run(Options Opts) {
  VerifyReport Report;

  // One scheduler for the whole run: obligations duplicated between the
  // |-o and |-r passes (convergence/safety side conditions) share its
  // result cache, and its statistics span both passes.
  DischargeScheduler::Config SchedCfg;
  SchedCfg.Jobs = Opts.Jobs;
  SchedCfg.Portfolio = Opts.Portfolio;
  SchedCfg.SmtFactory = Opts.SmtFactory;
  SchedCfg.Global = Opts.GlobalDeadline;
  SchedCfg.VcTimeoutMs = Opts.VcTimeoutMs;
  SchedCfg.PCache = Opts.PCache;
  DischargeScheduler Sched(Ctx, std::move(SchedCfg));

  Sema SemaPass(Prog, Diags);
  std::optional<SemaInfo> Info = SemaPass.run();
  if (!Info)
    return Report;
  Report.SemaOk = true;

  unsigned ErrorsBeforeGen = Diags.errorCount();

  if (Opts.RunOriginal) {
    Report.Original.Judgment = JudgmentKind::Original;
    Sched.discharge(passVCs(Ctx, Prog, *Info, JudgmentKind::Original, Diags,
                            Opts.GenOpts),
                    Report.Original, TheSolver);
  }

  if (Opts.RunRelaxed) {
    Report.Relaxed.Judgment = JudgmentKind::Relaxed;
    Sched.discharge(passVCs(Ctx, Prog, *Info, JudgmentKind::Relaxed, Diags,
                            Opts.GenOpts),
                    Report.Relaxed, TheSolver);
  }

  Report.GenErrors = Diags.errorCount() > ErrorsBeforeGen;
  if (Opts.StatsOut)
    Opts.StatsOut->merge(Sched.stats());
  return Report;
}

VCSet Verifier::passVCs(AstContext &Ctx, const Program &Prog,
                        const SemaInfo &Info, JudgmentKind Pass,
                        DiagnosticEngine &Diags, const VCGenOptions &GenOpts) {
  // Modular summary-based verification: every procedure's body is
  // verified exactly once against its own contracts; call sites
  // instantiate the callee's summary (assert requires, havoc the frame,
  // assume ensures) instead of inlining the body. Procedures are visited
  // in declaration order, so obligation ids are deterministic.
  auto UnaryTriple = [&](JudgmentKind K, const Procedure &P,
                         const std::string &Name) {
    UnaryVCGen Gen(Ctx, Prog, K, Diags, GenOpts);
    Gen.setProcName(Name);
    Gen.genTriple(P.requiresClause() ? P.requiresClause() : Ctx.trueExpr(),
                  P.body(),
                  P.ensuresClause() ? P.ensuresClause() : Ctx.trueExpr());
    return Gen.take();
  };

  VCSet All;
  for (const Procedure &P : Prog.procedures()) {
    std::string Name = procDisplayName(P, Ctx.symbols());
    if (Pass == JudgmentKind::Original) {
      All.append(UnaryTriple(JudgmentKind::Original, P, Name));
      continue;
    }
    // A procedure reachable from a call under a plain `diverge`
    // annotation also runs solo in the relaxed execution, so its
    // summary must additionally hold under the intermediate judgment
    // |-i (where `relax` havocs and `assume` carries an obligation).
    if (Info.needsIntermediate(P))
      All.append(UnaryTriple(JudgmentKind::Intermediate, P, Name));
    const BoolExpr *RelPre = relax::effectiveRelRequires(Ctx, Prog, P);
    const BoolExpr *RelPost =
        P.relEnsuresClause() ? P.relEnsuresClause() : Ctx.trueExpr();
    RelationalVCGen Gen(Ctx, Prog, Diags, GenOpts);
    Gen.setProcName(Name);
    Gen.genTriple(RelPre, P.body(), RelPost);
    All.append(Gen.take());
  }
  return All;
}

std::string relax::renderReport(const VerifyReport &Report,
                                const Interner &Syms, bool Verbose) {
  Printer P(Syms);
  std::string Out;
  auto RenderJudgment = [&](const JudgmentReport &J, const char *Title) {
    Out += Title;
    Out += ": ";
    Out += std::to_string(J.Outcomes.size()) + " VCs, " +
           std::to_string(J.count(VCStatus::Proved)) + " proved, " +
           std::to_string(J.count(VCStatus::Failed)) + " failed, " +
           std::to_string(J.count(VCStatus::Unknown) +
                          J.count(VCStatus::SolverError)) +
           " undecided";
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " (%.1f ms)", J.TotalMillis);
    Out += Buf;
    Out += "\n";
    for (const VCOutcome &O : J.Outcomes) {
      bool Bad = O.Status != VCStatus::Proved;
      if (!Bad && !Verbose)
        continue;
      Out += "  [";
      Out += vcStatusName(O.Status);
      Out += "] ";
      // Per-procedure attribution; elided for "main" so the legacy
      // single-body report shape is unchanged.
      if (!O.Condition.Proc.empty() && O.Condition.Proc != "main")
        Out += O.Condition.Proc + ": ";
      Out += O.Condition.Rule;
      if (O.Condition.Loc.isValid())
        Out += " at line " + std::to_string(O.Condition.Loc.Line);
      Out += ": " + O.Condition.Description;
      if (!O.Detail.empty())
        Out += " — " + O.Detail;
      Out += "\n";
      if (Bad || Verbose) {
        Out += "      " + P.print(O.Condition.Formula) + "\n";
      }
    }
  };
  if (!Report.SemaOk) {
    Out += "semantic analysis failed; verification not attempted\n";
    return Out;
  }
  RenderJudgment(Report.Original, "|-o (axiomatic original semantics)");
  RenderJudgment(Report.Relaxed, "|-r (axiomatic relaxed semantics)");
  Out += Report.verified()
             ? "VERIFIED: the relaxed program satisfies its acceptability "
               "properties\n"
             : "NOT VERIFIED\n";
  return Out;
}
