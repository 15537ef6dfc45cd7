// Internal to src/sort (and its tests and benches): the per-ISA kernel sets
// behind bitonic.h and multiway_merge.h.
//
// A kernel set is two primitives on packed tuples in unsigned order: sort a
// block of up to kBlockSize words, and merge two sorted arrays. Everything
// else -- growing runs by bottom-up merging and the multiway merge tree --
// is written once over a kernel set. The process uses one set
// (ActiveKernels): the AVX-512 set when cpuid reports AVX-512F, the
// portable scalar set otherwise. Tests and benches name a set here to
// compare the two.

#ifndef MMJOIN_SORT_KERNELS_H_
#define MMJOIN_SORT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "sort/multiway_merge.h"

namespace mmjoin::sort::internal {

// Words sorted per block: 8 vectors of 8 lanes.
inline constexpr std::size_t kBlockSize = 64;

struct Kernels {
  // Sorts in[0, n), n <= kBlockSize, into out[0, n). out may equal in.
  void (*sort_block)(const uint64_t* in, std::size_t n, uint64_t* out);
  // Merges sorted a[0, na) and b[0, nb) into out[0, na + nb), which
  // overlaps neither input.
  void (*merge)(const uint64_t* a, std::size_t na, const uint64_t* b,
                std::size_t nb, uint64_t* out);
};

// Portable: insertion-sorted blocks and a branch-free scalar merge.
const Kernels& ScalarKernels();

// In-register bitonic networks on 8x64-bit lanes. Null when the compiler
// cannot target AVX-512F or the host CPU lacks it.
const Kernels* Avx512Kernels();

// The set the public entry points use, chosen once per process.
const Kernels& ActiveKernels();

// SortPackedInto and MultiwayMerge on a given kernel set.
void SortPacked(const Kernels& kernels, const uint64_t* in, std::size_t n,
                uint64_t* out, uint64_t* tmp);
void MultiwayMerge(const Kernels& kernels, std::span<const SortedRun> runs,
                   uint64_t* out);

}  // namespace mmjoin::sort::internal

#endif  // MMJOIN_SORT_KERNELS_H_
