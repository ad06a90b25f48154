//===- selftest.cpp - Self-tests of the verify benchmark harness ----------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the harness's counting rules and its determinism:
///
///  * a percentile is reported only with at least 10 samples beyond it;
///  * decided_frac and failed_frac are shares of the requests attempted;
///  * the same seed gives the same request sequence, and a different seed
///    gives different generated programs.
///
/// Run: `python3 verifybench/run.py --selftest` (exit 0 = all pass).
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Stats.h"

#include <cstdio>

using namespace vb;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What);
  Failures += !Cond;
}

std::vector<double> ramp(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(double(I));
  return V;
}

void percentileRule() {
  expect(minSamplesFor(90) == 100, "p90 needs 100 samples");
  expect(minSamplesFor(50) == 20, "p50 needs 20 samples");
  expect(samplesBeyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  expect(samplesBeyond(99, 90) == 9, "99 samples leave 9 beyond p90");
  expect(!percentile(ramp(99), 90), "p90 of 99 samples is withheld");
  std::optional<double> P = percentile(ramp(100), 90);
  expect(P && *P == 90, "p90 of 1..100 is 90 with 10 beyond");
  std::optional<double> Q = percentile(ramp(1000), 99);
  expect(Q && *Q == 990, "p99 of 1..1000 is 990 with 10 beyond");
  expect(!percentile(ramp(1000), 100), "p100 never has samples beyond");
  expect(median(ramp(4)) == 2.5, "median of an even count averages");
}

void fractionsOfAttempted() {
  Tally T;
  T.add(classify(0, 0)); // ok
  T.add(classify(1, 0)); // mismatch: decided, failed
  T.add(classify(3, 0)); // gave up: undecided, failed
  T.add(classify(-1, 1)); // error or timeout
  expect(T.Attempted == 4, "every request counts as attempted");
  expect(T.decidedFrac() == 0.5, "decided_frac = 2 decisive of 4 attempted");
  expect(T.failedFrac() == 0.75, "failed_frac = 3 failed of 4 attempted");
  Tally Empty;
  expect(Empty.failedFrac() == 0 && Empty.decidedFrac() == 0,
         "no attempts give zero shares, not NaN");
  expect(classify(1, 1) == Outcome::Ok, "an expected refutation is ok");
  expect(classify(2, 0) == Outcome::Error, "exit 2 is an error");
}

std::vector<ServeReq> take(uint64_t Seed, size_t N) {
  ServeSequence S(Seed, 15);
  std::vector<ServeReq> Out;
  while (Out.size() < N)
    Out.push_back(S.next());
  return Out;
}

void seeds() {
  expect(take(7, 400) == take(7, 400), "same seed, same serve requests");
  expect(!(take(7, 400) == take(8, 400)), "other seed, other serve order");
  std::vector<ServeReq> Seq = take(7, 400);
  size_t Gen = 0;
  for (size_t I = 0; I < Seq.size(); ++I) {
    Gen += Seq[I].Generated;
    if (Seq[I].Generated && Seq[I].Index != Gen - 1)
      Gen = 1u << 30;
  }
  expect(Gen == 100, "one fresh generated program per block of four");

  relax::SplitMix64 A(3), B(3), C(4);
  expect(shuffledRound(15, A) == shuffledRound(15, B),
         "same seed, same cli round order");
  expect(shuffledRound(15, A) != shuffledRound(15, C),
         "other seed, other cli round order");

  expect(drawGenerated(11, 20) == drawGenerated(11, 20),
         "same seed, same generated programs");
  std::vector<std::string> X = drawGenerated(11, 20), Y = drawGenerated(12, 20);
  size_t Same = 0;
  for (size_t I = 0; I < X.size(); ++I)
    Same += X[I] == Y[I];
  expect(Same == 0, "other seed, different generated programs");
}

} // namespace

int main() {
  percentileRule();
  fractionsOfAttempted();
  seeds();
  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "PASSED", Failures);
  return Failures ? 1 : 0;
}
