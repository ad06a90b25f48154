//===- HugePageHeap.cpp - Huge pages for the first Z3 context -----------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "support/HugePageHeap.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>

// AddressSanitizer and ThreadSanitizer replace malloc, so neither the
// mallopt knobs nor the reserve's placement mean anything there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RELAXC_SANITIZED_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RELAXC_SANITIZED_MALLOC 1
#endif
#endif

#if defined(__GLIBC__) && !defined(RELAXC_SANITIZED_MALLOC)
#include <malloc.h>
#include <sys/mman.h>
#ifdef MADV_HUGEPAGE
#define RELAXC_HUGE_PAGE_HEAP 1
#endif
#endif

#ifndef RELAXC_HUGE_PAGE_HEAP
#define RELAXC_HUGE_PAGE_HEAP 0
#endif

using namespace relax;

bool relax::hugePageHeapBuilt() { return RELAXC_HUGE_PAGE_HEAP; }

void relax::reserveHugePageHeap() {
#if RELAXC_HUGE_PAGE_HEAP
  static std::atomic<bool> Done{false};
  if (Done.exchange(true))
    return;
  constexpr uintptr_t MiB = uintptr_t(1) << 20;
  constexpr uintptr_t HugePage = 2 * MiB;
  // Z3's tables (2 x 8.1 MiB) and what the run allocates before them
  // fit in the reserve's interior. glibc refuses an mmap threshold above
  // 32 MiB on 64-bit hosts.
  constexpr size_t Reserve = 24 * MiB;
  constexpr int MmapThreshold = 32 * MiB;
  // Above the top chunk right after the reserve is freed (the reserve
  // plus M_TOP_PAD plus what came before), so free() keeps it.
  constexpr int TrimThreshold = 32 * MiB;

  // Without the threshold the reserve would be an mmap of its own,
  // unmapped again by free().
  if (mallopt(M_MMAP_THRESHOLD, MmapThreshold) != 1 ||
      mallopt(M_TRIM_THRESHOLD, TrimThreshold) != 1)
    return;
  void *Block = std::malloc(Reserve);
  if (!Block)
    return;
  uintptr_t Begin = reinterpret_cast<uintptr_t>(Block);
  uintptr_t From = (Begin + HugePage - 1) & ~(HugePage - 1);
  uintptr_t To = (Begin + Reserve) & ~(HugePage - 1);
  if (From < To)
    (void)madvise(reinterpret_cast<void *>(From), To - From, MADV_HUGEPAGE);
  std::free(Block);
#endif
}
