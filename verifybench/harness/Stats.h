//===- Stats.h - Sample statistics of the verify benchmark ---------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's counting rules, kept in one header so the self-tests
/// pin exactly what the harness reports:
///
///  * a latency percentile is reported only when at least
///    `MinTailSamples` samples lie strictly beyond it (nearest-rank
///    definition, integer arithmetic — no floating-point rank drift);
///  * `decided_frac` and `failed_frac` are shares of the requests
///    *attempted*, never of the requests that completed.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_STATS_H
#define VERIFYBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace vb {

/// Samples that must lie beyond a reported percentile.
constexpr size_t MinTailSamples = 10;

/// 1-based nearest rank of the \p Percent-th percentile of \p N samples:
/// ceil(Percent * N / 100).
inline size_t nearestRank(size_t N, unsigned Percent) {
  return (static_cast<uint64_t>(Percent) * N + 99) / 100;
}

/// Samples strictly beyond the \p Percent-th percentile of \p N samples.
inline size_t samplesBeyond(size_t N, unsigned Percent) {
  return N - std::min(N, nearestRank(N, Percent));
}

/// Smallest sample count whose \p Percent-th percentile has
/// MinTailSamples samples beyond it (100 for p90).
inline size_t minSamplesFor(unsigned Percent) {
  size_t N = 1;
  while (samplesBeyond(N, Percent) < MinTailSamples)
    ++N;
  return N;
}

/// Nearest-rank percentile, or nullopt when fewer than MinTailSamples
/// samples lie beyond it.
inline std::optional<double> percentile(std::vector<double> V,
                                        unsigned Percent) {
  if (V.empty() || samplesBeyond(V.size(), Percent) < MinTailSamples)
    return std::nullopt;
  size_t K = nearestRank(V.size(), Percent) - 1;
  std::nth_element(V.begin(), V.begin() + K, V.end());
  return V[K];
}

/// Median (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

/// How one request ended.
enum class Outcome : uint8_t {
  Ok,        ///< decisive verdict equal to the expected one
  Mismatch,  ///< decisive verdict (exit 0 or 1) different from expected
  Undecided, ///< exit 3: the solver gave up
  Error,     ///< exit 2, crash, timeout, or refused after retries
};

/// Request counts of one run. Every share is of Attempted.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Decided = 0; ///< Ok + Mismatch
  uint64_t Failed = 0;  ///< Mismatch + Undecided + Error

  void add(Outcome O) {
    ++Attempted;
    Decided += O == Outcome::Ok || O == Outcome::Mismatch;
    Failed += O != Outcome::Ok;
  }
  double decidedFrac() const {
    return Attempted ? double(Decided) / double(Attempted) : 0;
  }
  double failedFrac() const {
    return Attempted ? double(Failed) / double(Attempted) : 0;
  }
};

/// Classifies a verify exit status against the expected one.
inline Outcome classify(int Exit, int Expected) {
  if (Exit == 0 || Exit == 1)
    return Exit == Expected ? Outcome::Ok : Outcome::Mismatch;
  return Exit == 3 ? Outcome::Undecided : Outcome::Error;
}

} // namespace vb

#endif // VERIFYBENCH_STATS_H
