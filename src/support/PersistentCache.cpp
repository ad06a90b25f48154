//===- PersistentCache.cpp - On-disk verdict cache ----------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "support/PersistentCache.h"

#include "support/FaultInjection.h"
#include "support/Random.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>

#include <unistd.h>

using namespace relax;

namespace {

const char *HeaderLine = "relaxc-verdict-cache 2\n";
const char *FileName = "verdicts.rlxcache";

/// CRC-32 (the zlib/PNG polynomial, reflected 0xEDB88320), table built on
/// first use. Local so the cache has no compression-library dependency.
uint32_t crc32Of(const char *Data, size_t Len) {
  static uint32_t Table[256];
  static bool Built = false;
  if (!Built) {
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      Table[I] = C;
    }
    Built = true;
  }
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I != Len; ++I)
    C = Table[(C ^ static_cast<unsigned char>(Data[I])) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

void putU32(std::string &Out, uint32_t V) {
  Out.push_back(static_cast<char>(V & 0xFF));
  Out.push_back(static_cast<char>((V >> 8) & 0xFF));
  Out.push_back(static_cast<char>((V >> 16) & 0xFF));
  Out.push_back(static_cast<char>((V >> 24) & 0xFF));
}

uint32_t getU32(const char *P) {
  return static_cast<uint32_t>(static_cast<unsigned char>(P[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(P[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(P[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(P[3])) << 24;
}

/// A record payload: the verdict line, the witness's model lines, then
/// the key text verbatim. The key is self-delimiting because the record
/// is length-prefixed.
std::string payloadFor(const std::string &Key,
                       const PersistentCache::Entry &E) {
  std::string P = "verdict ";
  P += satResultName(E.R);
  if (E.Witness) {
    P += " model\n";
    appendModelLines(P, *E.Witness);
  } else {
    P += '\n';
  }
  P += Key;
  return P;
}

/// Parses one record payload into \p Key and \p E; an error names the
/// damage.
Status parsePayload(std::string_view P, std::string &Key,
                    PersistentCache::Entry &E) {
  size_t Nl = P.find('\n');
  if (Nl == std::string_view::npos || P.substr(0, 8) != "verdict ")
    return Status::error("malformed record");
  std::string_view Rest = P.substr(8, Nl - 8);
  std::string_view Word = nextWireToken(Rest);
  if (Word == "sat")
    E.R = SatResult::Sat;
  else if (Word == "unsat")
    E.R = SatResult::Unsat;
  else // includes "unknown": gave-ups must never have been persisted
    return Status::error("unknown verdict word '" + std::string(Word) + "'");
  if (!Rest.empty()) {
    if (Rest != "model" || E.R != SatResult::Sat)
      return Status::error("bad verdict line '" +
                           std::string(P.substr(0, Nl)) + "'");
    E.Witness.emplace();
  }
  // Model lines run up to the first line that is not one: the key.
  size_t Pos = Nl + 1;
  while (Pos < P.size()) {
    size_t End = P.find('\n', Pos);
    std::string_view Line = P.substr(
        Pos, End == std::string_view::npos ? std::string_view::npos
                                           : End - Pos);
    std::string_view LineRest = Line;
    std::string_view Directive = nextWireToken(LineRest);
    if (!isModelDirective(Directive))
      break;
    if (!E.Witness)
      return Status::error("model line on a record without a model");
    if (Status S = parseModelLine(Directive, LineRest, Line, *E.Witness);
        !S.ok())
      return S;
    Pos = End == std::string_view::npos ? P.size() : End + 1;
  }
  Key = std::string(P.substr(Pos));
  if (Key.empty())
    return Status::error("record with empty key");
  if (E.Witness) {
    std::string Lines = "\n" + Key + "\n";
    auto Declared = [&](const WireVar &V) {
      return Lines.find("\n" + PersistentCache::keyVarLine(V) + "\n") !=
             std::string::npos;
    };
    for (const WireModel::IntEntry &I : E.Witness->Ints)
      if (!Declared(I.Var))
        return Status::error("model names undeclared variable '" +
                             I.Var.Name + "'");
    for (const WireModel::ArrayEntry &A : E.Witness->Arrays)
      if (!Declared(A.Var))
        return Status::error("model names undeclared variable '" +
                             A.Var.Name + "'");
  }
  return Status::success();
}

void frameRecord(std::string &Out, const std::string &Payload) {
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  putU32(Out, crc32Of(Payload.data(), Payload.size()));
  Out += Payload;
}

/// Writes \p Data to \p Path in mode \p Mode. With an armed cache-write
/// fault only a prefix reaches the disk — the on-disk shape of a crash
/// mid-append, which the next load must survive.
Status writeFileBytes(const std::string &Path, const char *Mode,
                      const std::string &Data) {
  bool Truncated = FaultRegistry::shouldFail(FaultSite::CacheWrite);
  size_t N = Truncated ? Data.size() / 2 : Data.size();
  std::FILE *F = std::fopen(Path.c_str(), Mode);
  if (!F)
    return Status::error("cannot open cache file '" + Path +
                         "': " + std::strerror(errno));
  bool WriteOk = std::fwrite(Data.data(), 1, N, F) == N;
  bool CloseOk = std::fclose(F) == 0;
  if (Truncated)
    return Status::error("injected cache-write fault (partial write)");
  if (!WriteOk || !CloseOk)
    return Status::error("short write to cache file '" + Path + "'");
  return Status::success();
}

void reportDivergenceAndAbort(const std::string &Key, SatResult Stored,
                              SatResult Recomputed) {
  std::fprintf(stderr,
               "relaxc: fatal: persistent cache divergence: stored verdict "
               "'%s' but re-discharge produced '%s' for key:\n%s",
               satResultName(Stored), satResultName(Recomputed), Key.c_str());
  std::abort();
}

} // namespace

PersistentCache::PersistentCache(std::string Dir,
                                 std::string ConfigFingerprint,
                                 uint64_t VerifyPpm)
    : Dir(std::move(Dir)), Fingerprint(std::move(ConfigFingerprint)),
      VerifyPpm(VerifyPpm), OnDivergence(reportDivergenceAndAbort) {
  Path = this->Dir + "/" + FileName;
  // Until load() parses a healthy file, the first flush writes it whole
  // (also the fresh-directory case, where there is nothing to append to).
  RewriteNeeded = true;
}

void PersistentCache::setDivergenceHandler(DivergenceHandler H) {
  std::lock_guard<std::mutex> L(M);
  OnDivergence = std::move(H);
}

PersistentCacheStats PersistentCache::stats() const {
  std::lock_guard<std::mutex> L(M);
  return St;
}

std::string PersistentCache::keyVarLine(const WireVar &V) {
  return std::string("var ") + varKindWord(V.Kind) + " " + varTagWord(V.Tag) +
         " " + V.Name;
}

bool PersistentCache::sampledForVerify(const std::string &Key, uint64_t Ppm) {
  if (Ppm == 0)
    return false;
  // FNV-1a over the key (stable across platforms, unlike std::hash), then
  // the SplitMix64 permutation to de-correlate the low bits the modulus
  // reads. Pure in the key, so every run audits the same entries.
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : Key)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ULL;
  return splitMixHash(H) % 1'000'000 < Ppm;
}

void PersistentCache::goColdLocked(const std::string &Detail) {
  Entries.clear();
  St.Loaded = 0;
  St.LoadCorrupt = true;
  St.LoadDetail = Detail;
  RewriteNeeded = true;
}

void PersistentCache::load() {
  std::lock_guard<std::mutex> L(M);
  Entries.clear();
  Fresh.clear();
  AwaitingVerify.clear();
  St = PersistentCacheStats{};
  RewriteNeeded = true;

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return; // no file yet: cold, not corrupt

  std::string Data;
  char Buf[1 << 16];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0;)
    Data.append(Buf, N);
  bool ReadOk = !std::ferror(F);
  std::fclose(F);

  if (FaultRegistry::shouldFail(FaultSite::CacheRead))
    return goColdLocked("injected cache-read fault");
  if (!ReadOk)
    return goColdLocked("read error");

  const size_t HeaderLen = std::strlen(HeaderLine);
  if (Data.size() < HeaderLen ||
      std::memcmp(Data.data(), HeaderLine, HeaderLen) != 0)
    return goColdLocked("bad or truncated header");

  size_t Pos = HeaderLen;
  while (Pos != Data.size()) {
    if (Data.size() - Pos < 8)
      return goColdLocked("partial final append (truncated record header)");
    uint32_t Len = getU32(Data.data() + Pos);
    uint32_t Crc = getU32(Data.data() + Pos + 4);
    Pos += 8;
    if (Len == 0 || Len > Data.size() - Pos)
      return goColdLocked("partial final append (truncated record body)");
    const char *Payload = Data.data() + Pos;
    if (crc32Of(Payload, Len) != Crc)
      return goColdLocked("record crc mismatch");
    Pos += Len;

    std::string Key;
    Entry E;
    if (Status S = parsePayload(std::string_view(Payload, Len), Key, E);
        !S.ok())
      return goColdLocked(S.message());
    auto [It, Inserted] = Entries.emplace(std::move(Key), E);
    if (Inserted)
      continue;
    if (It->second.R != E.R)
      return goColdLocked("conflicting duplicate records");
    It->second.Witness = std::move(E.Witness); // the later record supersedes
  }

  RewriteNeeded = false;
  St.Loaded = Entries.size();
}

std::optional<PersistentCache::Entry>
PersistentCache::lookup(const std::string &Key, bool WantWitness) {
  std::lock_guard<std::mutex> L(M);
  auto It = Entries.find(Key);
  if (It == Entries.end() ||
      (WantWitness && It->second.R == SatResult::Sat && !It->second.Witness)) {
    ++St.Misses;
    return std::nullopt;
  }
  if (sampledForVerify(Key, VerifyPpm)) {
    // Withhold the hit: the caller recomputes, and insert() checks the
    // fresh verdict against the stored one.
    if (AwaitingVerify.insert(Key).second)
      ++St.VerifySampled;
    return std::nullopt;
  }
  ++St.Hits;
  return It->second;
}

std::optional<WireModel>
PersistentCache::insert(const std::string &Key, SatResult R,
                        std::optional<WireModel> Witness) {
  DivergenceHandler Diverged;
  SatResult Stored = SatResult::Unknown;
  {
    std::lock_guard<std::mutex> L(M);
    if (R == SatResult::Unknown)
      return std::nullopt; // gave-ups (budget, deadline, solver unknown)
                           // never persist
    if (R != SatResult::Sat)
      Witness.reset();
    auto It = Entries.find(Key);
    if (It == Entries.end()) {
      Entries.emplace(Key, Entry{R, Witness});
      Fresh.push_back(Key);
      ++St.Appended;
      return Witness;
    }
    if (It->second.R == R) {
      if (AwaitingVerify.erase(Key))
        ++St.VerifiedHits;
      if (!It->second.Witness && Witness) {
        It->second.Witness = std::move(Witness);
        if (std::find(Fresh.begin(), Fresh.end(), Key) == Fresh.end())
          Fresh.push_back(Key);
        ++St.Appended;
      }
      return It->second.Witness;
    }
    Diverged = OnDivergence;
    Stored = It->second.R;
  }
  // Outside the lock: the default handler aborts, and a test handler may
  // call back into the cache.
  if (Diverged)
    Diverged(Key, Stored, R);
  return std::nullopt;
}

Status PersistentCache::writeAllLocked() {
  std::string Data = HeaderLine;
  for (const auto &[Key, E] : Entries)
    frameRecord(Data, payloadFor(Key, E));
  // Temp-and-rename so a crash mid-rewrite leaves either the old file or
  // the new one, not a torn hybrid. (The injected cache-write fault
  // bypasses the discipline on purpose — it exists to produce the torn
  // file the loader must survive.)
  if (FaultRegistry::shouldFail(FaultSite::CacheWrite)) {
    std::string Half = Data.substr(0, Data.size() / 2);
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    if (F) {
      (void)!std::fwrite(Half.data(), 1, Half.size(), F);
      std::fclose(F);
    }
    return Status::error("injected cache-write fault (torn rewrite)");
  }
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  if (Status S = writeFileBytes(Tmp, "wb", Data); !S.ok()) {
    ::unlink(Tmp.c_str());
    return S;
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return Status::error("cannot rename cache file into place: " +
                         std::string(std::strerror(errno)));
  }
  return Status::success();
}

Status PersistentCache::appendLocked() {
  std::string Data;
  for (const std::string &Key : Fresh)
    frameRecord(Data, payloadFor(Key, Entries.at(Key)));
  return writeFileBytes(Path, "ab", Data);
}

Status PersistentCache::flush() {
  std::lock_guard<std::mutex> L(M);
  if (!RewriteNeeded && Fresh.empty())
    return Status::success();
  // The whole path: a --cache-dir= whose parents do not exist yet.
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return Status::error("cannot create cache directory '" + Dir +
                         "': " + EC.message());
  Status S = RewriteNeeded ? writeAllLocked() : appendLocked();
  if (S.ok()) {
    RewriteNeeded = false;
    Fresh.clear();
  }
  return S;
}
