//===- PersistentCache.h - On-disk verdict cache -------------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed, on-disk cache of settled solver verdicts, fronting
/// the in-memory shared result cache so a warm re-run of an edited program
/// only re-discharges obligations whose formulas actually changed
/// (`--cache-dir=`).
///
/// ## Key discipline
///
/// Keys are opaque strings built by the discharge layer
/// (`persistentCacheKey` in vcgen/Discharge.h) from three parts:
///
///   * a pipeline-config fingerprint (`portfolioConfigFingerprint`), so a
///     verdict proved under one solver strength is never served to a
///     differently configured run;
///   * the free variables' kind declarations, sorted;
///   * the canonical printed `.rlx` serialization of every formula in the
///     query, sorted.
///
/// The printed form — the same serialization the shard wire protocol
/// proved total — is what makes keys process-portable: `Symbol` ids are
/// declaration-order nominal and `structuralHash` values incorporate
/// them, so neither is a safe on-disk identity. Entries are matched by
/// the full key text (exact string equality), so a hash collision cannot
/// alias two queries.
///
/// ## What is persisted
///
/// Only final Sat/Unsat verdicts are stored. `Unknown` covers every
/// give-up shape (budget trips, deadline expiry, solver "unknown"), all
/// of which are either time-dependent or solver-strength-dependent — a
/// later run with more time or a stronger backend must recompute them.
/// Callers additionally filter deadline verdicts before insert, mirroring
/// the in-memory cache's rule.
///
/// A `sat` may carry its witness: the model the model query returned
/// when the entry was made, which a failed validity obligation prints as
/// its counterexample. A hit then settles that obligation with no
/// backend, printing what the computation that filled the entry printed.
/// A `sat` without one (a satisfiability obligation's, or one whose model
/// query did not answer `sat`) is a miss for a lookup that wants a
/// witness; the recomputed entry supersedes it.
///
/// ## File format and corruption tolerance
///
/// One file, `<dir>/verdicts.rlxcache`: the header line
/// `relaxc-verdict-cache 2`, then crc-checked length-prefixed records
/// appended as runs finish. A record's payload is its verdict line
/// (`verdict unsat`, `verdict sat`, or `verdict sat model` for a `sat`
/// with a witness), then the witness's `model-int` / `model-array` lines
/// (ModelCodec.h; none for the empty model), then the key, whose first
/// token is therefore never a model directive. A witness may only name
/// variables its key's `var` lines declare. A later record with the same
/// key and verdict supersedes the earlier one's witness.
///
/// *Any* corruption — truncated header, another format's header (a file
/// written before witnesses were kept says `relaxc-verdict-cache 1`),
/// garbage record, partial final append, crc mismatch, a malformed or
/// misplaced model line, conflicting verdicts for one key — loads as a
/// fully cold cache (never an error, never a served bad verdict) and
/// schedules a fresh rewrite on the next flush. A cache file is a pure
/// accelerator: losing it costs solver time, trusting a damaged one
/// could cost soundness, so the policy is maximally suspicious.
///
/// ## Verify-on-hit sampling
///
/// With a nonzero parts-per-million rate (`--cache-verify=<ppm>`), a
/// deterministic sample of lookups decline their hit so the caller
/// re-discharges the query; the recomputed verdict is checked against the
/// stored one at insert time and any divergence hard-fails through the
/// divergence handler (default: report and abort). The sample is a pure
/// function of the key, so repeated runs audit the same entries.
///
/// Thread-safe: all public methods lock an internal mutex (lookups come
/// from concurrent discharge workers via SharedSolverCache).
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SUPPORT_PERSISTENTCACHE_H
#define RELAXC_SUPPORT_PERSISTENTCACHE_H

#include "solver/ModelCodec.h"
#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace relax {

/// Counters of one cache's lifetime, for the `--solver-stats` block.
struct PersistentCacheStats {
  uint64_t Loaded = 0;        ///< entries read from disk at load()
  uint64_t Hits = 0;          ///< lookups served from the store
  uint64_t Misses = 0;        ///< lookups that found nothing
  uint64_t Appended = 0;      ///< fresh verdicts recorded this process
  uint64_t VerifySampled = 0; ///< hits withheld for re-discharge
  uint64_t VerifiedHits = 0;  ///< sampled hits whose recomputation matched
  bool LoadCorrupt = false;   ///< load() found damage and went cold
  std::string LoadDetail;     ///< what the damage was (diagnostic only)
};

/// The on-disk verdict cache (see the file comment).
class PersistentCache {
public:
  /// A stored verdict; a `sat` may carry its witness (the counterexample
  /// model), named by text because entries outlive every AstContext.
  struct Entry {
    SatResult R = SatResult::Unknown;
    std::optional<WireModel> Witness;
  };

  /// Called when a recomputed verdict contradicts a stored one — a
  /// soundness alarm, not a recoverable condition.
  using DivergenceHandler = std::function<void(
      const std::string &Key, SatResult Stored, SatResult Recomputed)>;

  /// \p Dir is created (one level) at flush time if missing.
  /// \p ConfigFingerprint (see `portfolioConfigFingerprint`) becomes the
  /// first line of every key built against this cache. \p VerifyPpm is
  /// the verify-on-hit sampling rate in parts per million (0 = off).
  PersistentCache(std::string Dir, std::string ConfigFingerprint,
                  uint64_t VerifyPpm = 0);

  /// `<dir>/verdicts.rlxcache`.
  const std::string &filePath() const { return Path; }

  /// The pipeline-config fingerprint keys are built against.
  const std::string &fingerprint() const { return Fingerprint; }

  /// Reads the cache file. A missing file is simply cold; any corruption
  /// is also cold (stats().LoadCorrupt set, rewrite scheduled). Always
  /// succeeds — a damaged accelerator must never fail the run.
  void load();

  /// Returns the stored entry for \p Key, or nullopt on a miss — or on a
  /// verify-sampled hit, which the caller must then recompute. With
  /// \p WantWitness, a `sat` entry without a witness is a miss too.
  std::optional<Entry> lookup(const std::string &Key,
                              bool WantWitness = false);

  /// Records \p R, with \p Witness for a `sat`, for \p Key, and returns
  /// the witness the entry carries afterwards. Unknown is never persisted
  /// (the never-persist-gave-up rule). A conflicting existing entry
  /// triggers the divergence handler; a matching one on a verify-sampled
  /// key counts as a verified hit, keeps its witness if it has one, and
  /// otherwise takes \p Witness (appended as a superseding record).
  std::optional<WireModel>
  insert(const std::string &Key, SatResult R,
         std::optional<WireModel> Witness = std::nullopt);

  /// Writes pending entries: an append of the fresh records normally, a
  /// full temp-file-and-rename rewrite after a corrupt load. Failure
  /// (disk full, injected cache-write fault) leaves verdicts unaffected —
  /// callers warn and move on.
  Status flush();

  /// Replaces the default report-and-abort divergence handler (tests).
  void setDivergenceHandler(DivergenceHandler H);

  PersistentCacheStats stats() const;

  /// Whether \p Key falls in the verify-on-hit sample for \p Ppm — pure,
  /// so tests can pin the sample.
  static bool sampledForVerify(const std::string &Key, uint64_t Ppm);

  /// A key's declaration of free variable \p V: `var <kind> <tag> <name>`.
  /// A stored witness may only name variables its key declares.
  static std::string keyVarLine(const WireVar &V);

private:
  std::string Dir;
  std::string Path;
  std::string Fingerprint;
  uint64_t VerifyPpm;
  DivergenceHandler OnDivergence;

  mutable std::mutex M;
  /// Ordered so a rewrite emits records deterministically.
  std::map<std::string, Entry> Entries;
  /// Keys inserted this process, in insertion order (the append batch).
  std::vector<std::string> Fresh;
  /// Keys whose hit was withheld for verification; cleared as the
  /// recomputed verdicts arrive.
  std::set<std::string> AwaitingVerify;
  bool RewriteNeeded = false;
  PersistentCacheStats St;

  void goColdLocked(const std::string &Detail);
  Status writeAllLocked();
  Status appendLocked();
};

} // namespace relax

#endif // RELAXC_SUPPORT_PERSISTENTCACHE_H
