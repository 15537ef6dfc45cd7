// Sorting packed <key, payload> tuples with SIMD bitonic networks.
//
// MWAY (Balkesen et al., PVLDB 2013; paper Section 3.3) sorts with merge
// networks vectorized over SIMD registers. Tuples are packed into one
// 64-bit word with the key in the upper half (PackTuple), so ordering the
// packed words as unsigned integers orders by key.
//
// Runs grow from 64-word blocks sorted in registers (an 8-input sorting
// network down the columns of 8 vectors, a transpose, then bitonic merges
// up to 64) by bottom-up 2-way merges. The 2-way merge keeps 8 words in a
// register and repeatedly merges in the next 8-word block of whichever
// input has the smaller head, picked by compare-and-select, not a branch.
// Compares are unsigned (vpminuq/vpmaxuq), so no sign bias is needed.
//
// The AVX-512 kernels are compiled with per-function target attributes and
// picked once at run time from cpuid; hosts without AVX-512F run a portable
// scalar fallback. Ragged tails are loaded as ~0 into masked-off lanes, and
// every kernel stops by count: ~0 is a legal tuple, never an end marker.

#ifndef MMJOIN_SORT_BITONIC_H_
#define MMJOIN_SORT_BITONIC_H_

#include <cstddef>
#include <cstdint>

namespace mmjoin::sort {

// True when the host runs the AVX-512 kernels.
bool HasSimdMerge();

// Sorts `data` (packed tuples, unsigned order) in place using `scratch`
// (same size). Stable ordering of equal keys is NOT guaranteed (joins do
// not need it).
void MergeSortPacked(uint64_t* data, std::size_t n, uint64_t* scratch);

// Sorts in[0, n) into out[0, n) using tmp (n words). `in` may equal `out`
// or `tmp`; out and tmp must not overlap.
void SortPackedInto(const uint64_t* in, std::size_t n, uint64_t* out,
                    uint64_t* tmp);

// Convenience: true if packed array is non-decreasing (unsigned order).
bool IsSortedPacked(const uint64_t* data, std::size_t n);

}  // namespace mmjoin::sort

#endif  // MMJOIN_SORT_BITONIC_H_
