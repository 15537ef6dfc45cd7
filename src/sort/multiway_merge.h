// Multi-way merging of sorted runs (MWAY's bandwidth-saving merge step,
// paper Section 3.3).
//
// K sorted runs are merged in one pass by a balanced binary tree of 2-way
// merge nodes (Balkesen et al., PVLDB 2013). Each node runs the same SIMD
// 2-way merge kernel as run generation (bitonic.h) and hands its output up
// through a small FIFO; the FIFOs together stay in cache, so every tuple
// crosses DRAM once on the way in (the leaves read the runs) and once on
// the way out (the root writes `out`). A node merges only what is safe to
// emit -- up to the last tuple of a child that will be refilled -- and
// refills a child whose FIFO has drained. Exact tuple counts end the merge,
// never a sentinel, so a packed ~0 is a legal value.

#ifndef MMJOIN_SORT_MULTIWAY_MERGE_H_
#define MMJOIN_SORT_MULTIWAY_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace mmjoin::sort {

struct SortedRun {
  const uint64_t* data;
  std::size_t size;
};

// Merges `runs` into `out` (sized to the sum of run sizes, overlapping no
// run). Unsigned packed order.
void MultiwayMerge(std::span<const SortedRun> runs, uint64_t* out);

// Upper bound on the heap bytes MultiwayMerge allocates for its FIFOs when
// merging `num_runs` runs.
std::size_t MultiwayMergeScratchBytes(std::size_t num_runs);

}  // namespace mmjoin::sort

#endif  // MMJOIN_SORT_MULTIWAY_MERGE_H_
