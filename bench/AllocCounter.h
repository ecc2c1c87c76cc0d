//===- AllocCounter.h - Per-thread heap allocation counter -------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Replaces the global operator new with one that counts, per thread, the
// allocations it serves. Include it from exactly one translation unit of a
// bench binary. Reading the counter around single-threaded work gives an
// exact count that repeats for a given build, so CI can gate it on a
// shared runner where the timings beside it are noise.
//
// Under ASan or TSan this operator new takes the place of the sanitizer's:
// malloc is still intercepted, but new/delete mismatches go unreported in
// the binaries that include it.
//
//===----------------------------------------------------------------------===//

#ifndef AQUA_BENCH_ALLOCCOUNTER_H
#define AQUA_BENCH_ALLOCCOUNTER_H

#include <cstdint>
#include <cstdlib>
#include <new>

/// Heap allocations made by this thread. Per thread, so reading it costs
/// no shared cache line.
thread_local std::uint64_t ThreadAllocs = 0;

// GCC pairs operator new with operator delete by name, not by what they
// call; both are replaced here, so free() does get malloc()'s pointers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *operator new(std::size_t Size) {
  ++ThreadAllocs;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
#pragma GCC diagnostic pop

#endif // AQUA_BENCH_ALLOCCOUNTER_H
