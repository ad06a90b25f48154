//===- HugePageHeap.h - Huge pages for the first Z3 context --------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process heap set-up `main` runs as its first statement, so that
/// the first Z3 context of a relaxc process lands on transparent huge
/// pages (THP).
///
/// `Z3_mk_context_rc` mallocs two 8,519,688-byte hash tables and writes
/// all of them. glibc maps each one fresh (by default anything above
/// 128 KiB is an mmap of its own), so a cold `relaxc verify` faulted in
/// ≈4,200 4-KiB pages for them: most of its ≈4,800 minor faults and of
/// its system time. reserveHugePageHeap() keeps such blocks on the brk
/// heap and asks the kernel to back a reserved stretch of it with 2 MiB
/// pages, so the tables fault in about nine pages instead. See "Process
/// heap" in support/README.md for the measurements and the rules.
///
/// The advice reaches the main thread's arena only: a context built on
/// another thread (slot k >= 1 of a `--jobs=N` pass, a daemon
/// connection) comes from a glibc thread arena and faults at 4 KiB, as
/// does a second main-thread context that no longer fits the reserve.
///
//===----------------------------------------------------------------------===//

#ifndef RELAXC_SUPPORT_HUGEPAGEHEAP_H
#define RELAXC_SUPPORT_HUGEPAGEHEAP_H

namespace relax {

/// On glibc with MADV_HUGEPAGE, outside AddressSanitizer and
/// ThreadSanitizer builds: fixes M_MMAP_THRESHOLD at 32 MiB, raises
/// M_TRIM_THRESHOLD above the reserve, mallocs a 24 MiB reserve,
/// advises its 2 MiB-aligned interior MADV_HUGEPAGE, and frees it back
/// into the heap's top. Touches no page of the reserve, and ignores a
/// failed madvise (a host whose THP mode is `never` runs as without
/// it). Elsewhere it does nothing. Call it before anything else in
/// `main`, on the main thread; calls after the first do nothing.
void reserveHugePageHeap();

/// True when this build gives the advice at all (see above).
bool hugePageHeapBuilt();

} // namespace relax

#endif // RELAXC_SUPPORT_HUGEPAGEHEAP_H
