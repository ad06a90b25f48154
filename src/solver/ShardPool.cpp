//===- ShardPool.cpp - Out-of-process discharge shards ------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "solver/ShardPool.h"

#include "ast/Printer.h"
#include "logic/FormulaOps.h"
#include "support/FaultInjection.h"
#include "support/IntMath.h"
#include "support/Random.h"
#include "support/Transport.h"

#include <algorithm>
#include <map>
#include <thread>

#include <signal.h>

using namespace relax;

//===----------------------------------------------------------------------===//
// Wire codecs
//===----------------------------------------------------------------------===//

namespace {

const char *RequestMagic = "relax-shard-request 2";
const char *ResponseMagic = "relax-shard-response 1";

/// Trails and error messages must stay single-line on the wire.
std::string oneLine(std::string S) {
  for (char &C : S)
    if (C == '\n' || C == '\r')
      C = ' ';
  return S;
}

/// Iterates \p Payload line by line, calling \p OnLine(directive, rest).
/// Stops and returns the error on the first diagnosed line.
template <typename Fn> Status forEachLine(std::string_view Payload, Fn OnLine) {
  size_t Pos = 0;
  while (Pos < Payload.size()) {
    size_t NL = Payload.find('\n', Pos);
    std::string_view Line = Payload.substr(
        Pos, NL == std::string_view::npos ? std::string_view::npos : NL - Pos);
    Pos = NL == std::string_view::npos ? Payload.size() : NL + 1;
    if (Line.empty())
      continue;
    std::string_view Rest = Line;
    std::string_view Directive = nextWireToken(Rest);
    if (Status S = OnLine(Directive, Rest, Line); !S.ok())
      return S;
  }
  return Status::success();
}

} // namespace

std::string relax::serializeShardRequest(const ShardRequest &R) {
  std::string Out = RequestMagic;
  Out += "\npipeline " + R.Pipeline;
  Out += "\nbounded " + formatBoundedOptions(R.Bounded);
  Out += "\nstep-factor " + std::to_string(R.FinalBoundedStepFactor);
  Out += std::string("\nwant-model ") + (R.WantModel ? "1" : "0");
  for (const auto &[Name, Kind] : R.Vars)
    Out += std::string("\nvar ") + varKindWord(Kind) + " " + Name;
  for (const WireVar &V : R.ModelVars)
    Out += std::string("\nmodel-var ") + varKindWord(V.Kind) + " " +
           varTagWord(V.Tag) + " " + V.Name;
  for (const std::string &F : R.Formulas)
    Out += "\nformula " + oneLine(F);
  Out += "\n";
  return Out;
}

Result<ShardRequest> relax::parseShardRequest(std::string_view Payload) {
  using R = Result<ShardRequest>;
  ShardRequest Req;
  Req.Pipeline.clear();
  bool SawMagic = false, SawBounded = false;

  Status S = forEachLine(Payload, [&](std::string_view D, std::string_view Rest,
                                      std::string_view Line) -> Status {
    if (!SawMagic) {
      if (Line != RequestMagic)
        return Status::error("bad request header '" + std::string(Line) +
                             "' (expected '" + RequestMagic + "')");
      SawMagic = true;
      return Status::success();
    }
    if (D == "pipeline") {
      Req.Pipeline = std::string(Rest);
      return Status::success();
    }
    if (D == "bounded") {
      Result<BoundedSolverOptions> B = parseBoundedOptions(Rest);
      if (!B.ok())
        return B.status();
      Req.Bounded = *B;
      SawBounded = true;
      return Status::success();
    }
    if (D == "step-factor") {
      if (!parseDecimal(Rest, Req.FinalBoundedStepFactor))
        return Status::error("bad step-factor '" + std::string(Rest) + "'");
      return Status::success();
    }
    if (D == "want-model") {
      if (Rest != "0" && Rest != "1")
        return Status::error("bad want-model value '" + std::string(Rest) +
                             "' (expected 0 or 1)");
      Req.WantModel = Rest == "1";
      return Status::success();
    }
    if (D == "var") {
      VarKind K;
      if (!parseVarKindWord(nextWireToken(Rest), K))
        return Status::error("bad var-kind in '" + std::string(Line) + "'");
      std::string_view Name = nextWireToken(Rest);
      if (Name.empty())
        return Status::error("missing var name in '" + std::string(Line) +
                             "'");
      Req.Vars.emplace_back(std::string(Name), K);
      return Status::success();
    }
    if (D == "model-var") {
      WireVar V;
      if (!parseVarKindWord(nextWireToken(Rest), V.Kind) ||
          !parseVarTagWord(nextWireToken(Rest), V.Tag))
        return Status::error("bad model-var in '" + std::string(Line) + "'");
      std::string_view Name = nextWireToken(Rest);
      if (Name.empty())
        return Status::error("missing model-var name in '" +
                             std::string(Line) + "'");
      V.Name = std::string(Name);
      Req.ModelVars.push_back(std::move(V));
      return Status::success();
    }
    if (D == "formula") {
      Req.Formulas.emplace_back(Rest);
      return Status::success();
    }
    return Status::error("unknown request directive '" + std::string(D) + "'");
  });
  if (!S.ok())
    return R(S);
  if (!SawMagic)
    return R::error("empty request payload");
  if (Req.Pipeline.empty())
    return R::error("request is missing its pipeline line");
  if (!SawBounded)
    return R::error("request is missing its bounded line");
  if (Req.Formulas.empty())
    return R::error("request carries no formulas");
  return Req;
}

std::string relax::serializeShardResponse(const ShardResponse &R) {
  std::string Out = ResponseMagic;
  if (R.IsError) {
    Out += "\nverdict error\nerror " + oneLine(R.Error) + "\n";
    return Out;
  }
  Out += std::string("\nverdict ") + satResultName(R.Verdict);
  if (!R.SettledBy.empty())
    Out += "\nsettled-by " + oneLine(R.SettledBy);
  if (!R.Trail.empty())
    Out += "\ntrail " + oneLine(R.Trail);
  Out += "\n";
  appendModelLines(Out, R.Model);
  return Out;
}

Result<ShardResponse> relax::parseShardResponse(std::string_view Payload) {
  using R = Result<ShardResponse>;
  ShardResponse Resp;
  bool SawMagic = false, SawVerdict = false;

  Status S = forEachLine(Payload, [&](std::string_view D, std::string_view Rest,
                                      std::string_view Line) -> Status {
    if (!SawMagic) {
      if (Line != ResponseMagic)
        return Status::error("bad response header '" + std::string(Line) +
                             "' (expected '" + ResponseMagic + "')");
      SawMagic = true;
      return Status::success();
    }
    if (D == "verdict") {
      std::string_view V = nextWireToken(Rest);
      SawVerdict = true;
      if (V == "sat")
        Resp.Verdict = SatResult::Sat;
      else if (V == "unsat")
        Resp.Verdict = SatResult::Unsat;
      else if (V == "unknown")
        Resp.Verdict = SatResult::Unknown;
      else if (V == "error")
        Resp.IsError = true;
      else
        return Status::error("unknown verdict '" + std::string(V) + "'");
      return Status::success();
    }
    if (D == "error") {
      Resp.Error = std::string(Rest);
      return Status::success();
    }
    if (D == "settled-by") {
      Resp.SettledBy = std::string(Rest);
      return Status::success();
    }
    if (D == "trail") {
      Resp.Trail = std::string(Rest);
      return Status::success();
    }
    if (isModelDirective(D))
      return parseModelLine(D, Rest, Line, Resp.Model);
    return Status::error("unknown response directive '" + std::string(D) +
                         "'");
  });
  if (!S.ok())
    return R(S);
  if (!SawMagic)
    return R::error("empty response payload");
  if (!SawVerdict)
    return R::error("response is missing its verdict");
  if (Resp.IsError && Resp.Error.empty())
    Resp.Error = "worker reported an unspecified error";
  return Resp;
}

//===----------------------------------------------------------------------===//
// ShardPool
//===----------------------------------------------------------------------===//

Result<std::unique_ptr<ShardPool>> ShardPool::create(ShardPoolOptions Opts) {
  using R = Result<std::unique_ptr<ShardPool>>;
  if (Opts.Shards == 0)
    return R::error("a shard pool needs at least one worker");
  if (Opts.WorkerExe.empty())
    return R::error("no worker executable configured for the shard pool");
  // Belt and braces next to the per-spawn handler in Subprocess: the pool
  // outlives individual workers, and a worker dying mid-write must
  // surface as a frame error on this side, never a SIGPIPE kill.
  ::signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<ShardPool> P(new ShardPool(std::move(Opts)));
  for (unsigned I = 0; I != P->Opts.Shards; ++I) {
    P->Slots.push_back(std::make_unique<Slot>());
    // A failed initial spawn is tolerated: the slot stays Healthy with no
    // process, and the first borrower retries through the respawn path
    // (spending budget there). Creation only fails on misconfiguration,
    // checked above — not on transient spawn trouble.
    (void)P->spawnWorker(*P->Slots.back());
  }
  return R(std::move(P));
}

ShardPool::~ShardPool() = default; // Subprocess dtors reap the workers

Status ShardPool::spawnWorker(Slot &S) {
  if (FaultRegistry::shouldFail(FaultSite::WorkerSpawn))
    return Status::error("injected worker-spawn fault");
  return S.Proc.spawn(Opts.WorkerExe, Opts.WorkerArgs);
}

void ShardPool::noteFailureLocked(Slot &S) {
  ++Failures;
  ++S.ConsecutiveFailures;
  if (!S.Proc.running() && S.Respawns >= Opts.MaxRespawnsPerWorker) {
    // No process and no budget to make one: terminal.
    S.Health = WorkerHealth::Dead;
  } else if (S.ConsecutiveFailures >= Opts.CircuitBreakerThreshold) {
    // Trip the breaker: the slot sits out a (growing) quarantine, then
    // exactly one borrower probes it. One bad worker thus costs each
    // request at most one failed attempt instead of failing all of them.
    uint64_t Ms =
        std::min<uint64_t>(static_cast<uint64_t>(Opts.QuarantineBaseMs)
                               << std::min(S.Quarantines, 20u),
                           Opts.QuarantineMaxMs);
    S.Health = WorkerHealth::Quarantined;
    S.ProbeAt =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
    ++S.Quarantines;
    ++QuarantinesTotal;
  }
  bool AllDead = true;
  for (const auto &W : Slots)
    AllDead = AllDead && W->Health == WorkerHealth::Dead;
  if (AllDead)
    DegradedFlag = true;
}

bool ShardPool::degraded() const {
  std::lock_guard<std::mutex> L(M);
  return DegradedFlag;
}

void ShardPool::noteFallback() {
  std::lock_guard<std::mutex> L(M);
  ++DegradedFallbacks;
}

void ShardPool::terminateWorker(unsigned I) {
  std::lock_guard<std::mutex> L(M);
  if (I < Slots.size())
    Slots[I]->Proc.terminate();
}

PoolStats ShardPool::stats() const {
  std::lock_guard<std::mutex> L(M);
  PoolStats S;
  S.Requests = Requests;
  S.Attempts = Attempts;
  S.Respawns = Respawns;
  S.Failures = Failures;
  S.Quarantines = QuarantinesTotal;
  S.DegradedFallbacks = DegradedFallbacks;
  S.Degraded = DegradedFlag;
  for (const auto &W : Slots) {
    S.PerWorker.push_back(W->Served);
    S.PerWorkerHealth.push_back(W->Health);
  }
  return S;
}

Result<ShardResponse> ShardPool::discharge(const ShardRequest &R,
                                           int TimeoutMs) {
  const std::string Payload = serializeShardRequest(R);
  std::string FailDetail = "no attempt made";
  int ReadTimeoutMs = Opts.RoundTripTimeoutMs;
  if (TimeoutMs >= 0 && TimeoutMs < ReadTimeoutMs)
    ReadTimeoutMs = TimeoutMs;
  {
    std::lock_guard<std::mutex> L(M);
    ++Requests; // once per discharge() call; Attempts counts borrows
  }

  for (int Attempt = 0; Attempt != 2; ++Attempt) {
    // Borrow a slot; Busy grants exclusive use of its process. Candidates
    // are non-Busy, non-Dead slots that are Healthy or whose quarantine
    // has elapsed (the probe), and that either have a live process or
    // respawn budget left. Only inspect a *free* slot's process — a busy
    // slot's process belongs to its borrower.
    using Clock = std::chrono::steady_clock;
    unsigned SlotIndex = 0;
    Slot *S = nullptr;
    {
      std::unique_lock<std::mutex> L(M);
      for (;;) {
        Clock::time_point Now = Clock::now();
        bool AnyBusy = false, HaveProbe = false;
        Clock::time_point EarliestProbe = Clock::time_point::max();
        for (unsigned I = 0; I != Slots.size(); ++I) {
          Slot *W = Slots[I].get();
          if (W->Busy) {
            AnyBusy = true;
            continue;
          }
          if (W->Health == WorkerHealth::Dead)
            continue;
          if (W->Health == WorkerHealth::Quarantined && Now < W->ProbeAt) {
            HaveProbe = true;
            EarliestProbe = std::min(EarliestProbe, W->ProbeAt);
            continue;
          }
          if (!W->Proc.running() &&
              W->Respawns >= Opts.MaxRespawnsPerWorker) {
            // Out of budget with no process; finish the transition here
            // (failures normally do it, but a terminateWorker() corpse
            // can reach this state without one).
            W->Health = WorkerHealth::Dead;
            continue;
          }
          S = W;
          SlotIndex = I;
          break;
        }
        if (S)
          break;
        bool AllDead = true;
        for (const auto &W : Slots)
          AllDead = AllDead && W->Health == WorkerHealth::Dead;
        if (AllDead) {
          DegradedFlag = true;
          return Result<ShardResponse>::error(
              "shard discharge failed: every worker is dead and the "
              "respawn budget is exhausted");
        }
        if (HaveProbe && !AnyBusy)
          FreeCV.wait_until(L, EarliestProbe);
        else
          FreeCV.wait(L);
      }
      S->Busy = true;
      ++Attempts;
    }

    std::string Err;
    if (!S->Proc.running()) {
      unsigned RespawnIndex;
      {
        std::lock_guard<std::mutex> L(M);
        RespawnIndex = ++S->Respawns;
        ++Respawns;
      }
      // Exponential backoff with deterministic jitter, slept while the
      // slot is Busy (held exclusively) and outside the lock so healthy
      // siblings keep serving. The jitter subtracts up to half the delay,
      // hashed from (seed, slot, attempt) — reproducible, yet de-phased
      // across slots.
      if (Opts.RespawnBackoffBaseMs > 0) {
        uint64_t Ms = std::min<uint64_t>(
            static_cast<uint64_t>(Opts.RespawnBackoffBaseMs)
                << std::min(RespawnIndex - 1, 20u),
            Opts.RespawnBackoffMaxMs);
        uint64_t Jitter =
            splitMixHash(Opts.JitterSeed ^ (uint64_t(SlotIndex) << 32) ^
                         RespawnIndex) %
            (Ms / 2 + 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(Ms - Jitter));
      }
      if (Status St = spawnWorker(*S); !St.ok())
        Err = "worker respawn failed: " + St.message();
    }
    if (Err.empty()) {
      // Non-owning view of the worker's pipes: the Subprocess owns the
      // fds (terminate/respawn), the transport only frames over them.
      PipeTransport Chan(S->Proc.readFd(), S->Proc.writeFd(),
                         /*OwnsFds=*/false);
      if (Status St = Chan.send(Payload); !St.ok()) {
        Err = "request write failed: " + St.message();
      } else {
        FrameRead F = Chan.recvMs(ReadTimeoutMs);
        if (F.ok()) {
          {
            std::lock_guard<std::mutex> L(M);
            ++S->Served;
            // Any full round trip heals the slot: close the breaker and
            // return a probed slot to rotation.
            S->ConsecutiveFailures = 0;
            S->Health = WorkerHealth::Healthy;
            S->Busy = false;
          }
          FreeCV.notify_all();
          return parseShardResponse(F.Payload);
        }
        Err = F.eof() ? "worker exited before answering"
                      : "response read failed: " + F.Message;
      }
      // The pipe state is unknown after an I/O failure; kill the worker
      // so the next borrower respawns a clean one.
      S->Proc.terminate();
    }
    {
      std::lock_guard<std::mutex> L(M);
      noteFailureLocked(*S);
      S->Busy = false;
    }
    FreeCV.notify_all();
    FailDetail = Err;
  }
  return Result<ShardResponse>::error("shard discharge failed: " + FailDetail);
}

//===----------------------------------------------------------------------===//
// ShardSolver
//===----------------------------------------------------------------------===//

Result<SatResult>
ShardSolver::checkSat(const std::vector<const BoolExpr *> &Formulas) {
  return roundTrip(Formulas, nullptr, nullptr);
}

Result<SatResult>
ShardSolver::checkSatWithModel(const std::vector<const BoolExpr *> &Formulas,
                               const VarRefSet &Vars, Model &ModelOut) {
  return roundTrip(Formulas, &Vars, &ModelOut);
}

Result<SatResult>
ShardSolver::roundTrip(const std::vector<const BoolExpr *> &Formulas,
                       const VarRefSet *Vars, Model *ModelOut) {
  ++Queries;
  LastSettledBy = "shard";
  LastTrail.clear();
  if (ModelOut)
    // Same convention as the concrete backends: clear a reused caller
    // Model up front so non-Sat verdicts leave no stale witness behind.
    *ModelOut = Model();

  if (QueryDeadline.expired()) {
    LastSettledBy = "deadline";
    return SatResult::Unknown;
  }

  ShardRequest Req;
  Req.Pipeline = WorkerPipeline;
  Req.Bounded = Bounded;
  Req.FinalBoundedStepFactor = FinalBoundedStepFactor;
  Req.WantModel = Vars != nullptr && ModelOut != nullptr;

  // Kind declarations for every free base name (the worker's parser needs
  // them to resolve array-vs-int syntax); sorted for a canonical payload.
  VarRefSet Free;
  for (const BoolExpr *F : Formulas)
    collectFreeVars(F, Free);
  std::map<std::string, VarKind> Kinds;
  for (const VarRef &V : Free) {
    std::string N(Syms.text(V.Name));
    auto [It, Inserted] = Kinds.emplace(N, V.Kind);
    if (!Inserted && It->second != V.Kind)
      return Result<SatResult>::error(
          "cannot serialize query: variable '" + N +
          "' occurs free with both int and array kinds");
  }
  for (const auto &KV : Kinds)
    Req.Vars.emplace_back(KV.first, KV.second);

  Printer P(Syms);
  Req.Formulas.reserve(Formulas.size());
  for (const BoolExpr *F : Formulas)
    Req.Formulas.push_back(P.print(F));

  if (Req.WantModel)
    for (const VarRef &V : *Vars)
      Req.ModelVars.push_back({std::string(Syms.text(V.Name)), V.Tag, V.Kind});

  // Cap the response wait by the time the deadline leaves (the worker
  // itself is uninterruptible, but this side must give up in time).
  Result<ShardResponse> Resp =
      Pool.discharge(Req, QueryDeadline.clampTimeoutMs(-1));
  if (!Resp.ok())
    return Result<SatResult>::error(Resp.message());
  if (Resp->IsError)
    return Result<SatResult>::error(Resp->Error);

  LastSettledBy =
      "shard:" + (Resp->SettledBy.empty() ? std::string("?") : Resp->SettledBy);
  LastTrail = Resp->Trail;

  if (Req.WantModel && Resp->Verdict == SatResult::Sat)
    *ModelOut = modelOfWire(Resp->Model, *Vars, Syms);
  return Resp->Verdict;
}
