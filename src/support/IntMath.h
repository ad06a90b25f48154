//===- IntMath.h - Shared integer arithmetic helpers ---------------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Euclidean division and modulo with SMT-LIB semantics, shared by every
/// layer that folds or evaluates integer arithmetic (the logic simplifier,
/// the formula evaluator, the interpreter), and the strict decimal parser
/// every flag and wire value goes through. Living in support/ keeps the
/// logic and solver libraries from re-implementing each other's two-liners.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SUPPORT_INTMATH_H
#define RELAXC_SUPPORT_INTMATH_H

#include <cstdint>
#include <string_view>

namespace relax {

/// Strict decimal parsing for flag and wire values: digits only (plus a
/// leading '-' in the signed form), with no whitespace and no '+'.
/// Overflow is an error, never a saturated or wrapped value.
inline bool parseDecimal(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

inline bool parseDecimal(std::string_view S, int64_t &Out) {
  bool Neg = !S.empty() && S[0] == '-';
  uint64_t Mag = 0;
  if (!parseDecimal(Neg ? S.substr(1) : S, Mag) ||
      Mag > uint64_t(INT64_MAX) + (Neg ? 1 : 0))
    return false;
  Out = Neg ? static_cast<int64_t>(0 - Mag) : static_cast<int64_t>(Mag);
  return true;
}

/// Two's-complement wrapping add/sub/mul. The logic has unbounded
/// integers and the verified workloads stay far from the int64 edges, but
/// the *random* property-test programs do not — evaluating them must be
/// well-defined (wrap) rather than UB, or the sanitizer configuration
/// cannot run the differential suites. Routing through uint64 makes the
/// wrap explicit and defined.
inline int64_t wrapAdd(int64_t L, int64_t R) {
  return static_cast<int64_t>(static_cast<uint64_t>(L) +
                              static_cast<uint64_t>(R));
}
inline int64_t wrapSub(int64_t L, int64_t R) {
  return static_cast<int64_t>(static_cast<uint64_t>(L) -
                              static_cast<uint64_t>(R));
}
inline int64_t wrapMul(int64_t L, int64_t R) {
  return static_cast<int64_t>(static_cast<uint64_t>(L) *
                              static_cast<uint64_t>(R));
}

/// Euclidean division (SMT-LIB semantics): the unique q in L = q*R + r with
/// 0 <= r < |R|. Division by zero yields 0 in the logic. Defined for the
/// whole int64 range: the quotient is computed by adjusting truncated
/// division (never `(L - Rem) / R`, whose subtraction can leave int64),
/// and the one case whose true quotient is unrepresentable —
/// INT64_MIN / -1 = 2^63 — wraps to INT64_MIN like the evaluators above.
inline int64_t euclideanDiv(int64_t L, int64_t R) {
  if (R == 0)
    return 0;
  if (R == -1)
    return wrapSub(0, L);
  int64_t Q = L / R; // safe: (INT64_MIN, -1) is handled above
  if (L % R < 0)
    Q -= R > 0 ? 1 : -1; // |Q| <= 2^62 whenever |R| >= 2; R == 1 never adjusts
  return Q;
}

/// Euclidean modulo: the unique r in L = q*R + r with 0 <= r < |R|.
/// Modulo by zero yields 0 in the logic. The result is always
/// representable (0 <= r < 2^63); the adjustment wraps through uint64 so
/// |R| for R = INT64_MIN needs no signed negation.
inline int64_t euclideanMod(int64_t L, int64_t R) {
  if (R == 0)
    return 0;
  if (R == -1)
    return 0; // every integer is a multiple of -1; avoids INT64_MIN % -1 UB
  int64_t Rem = L % R; // truncated
  if (Rem < 0)
    Rem = wrapAdd(Rem, R > 0 ? R : wrapSub(0, R));
  return Rem;
}

} // namespace relax

#endif // RELAXC_SUPPORT_INTMATH_H
