// MWAY -- multi-way sort-merge join (Balkesen et al., PVLDB 2013; paper
// Section 3.3).
//
// 1. Range-partition both inputs on the high key bits into one partition per
//    thread slot (single pass, SWWCB + non-temporal streaming), so
//    co-partitions cover disjoint key ranges.
// 2. Sort each co-partition in its partition buffer: pack each
//    cache-sized run in place, sort it into the merge scratch with the SIMD
//    bitonic kernels, then merge all runs back in ONE pass through a
//    cache-resident tree of 2-way merges (saving memory round-trips vs.
//    binary merging -- the "m-way" idea).
// 3. Merge-join each sorted co-partition pair independently.

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "join/internal.h"
#include "join/join_algorithm.h"
#include "numa/system.h"
#include "partition/radix.h"
#include "sort/bitonic.h"
#include "sort/multiway_merge.h"
#include "thread/thread_team.h"
#include "util/bits.h"
#include "util/timer.h"

namespace mmjoin::join::internal {
namespace {

// Sorted runs of this many packed tuples fit the paper machine's L2. Runs
// of 2^14 to 2^17 sorted a 2-thread, 46M-tuple join equally fast within
// run-to-run noise, so the paper's size stays.
constexpr std::size_t kSortRunSize = std::size_t{1} << 15;

// Packs tuples[0, n) in place into words (PackTuple: key in the high
// half). memcpy, not a cast, reads the tuples and writes the words.
uint64_t* PackInPlace(Tuple* tuples, std::size_t n) {
  auto* bytes = reinterpret_cast<unsigned char*>(tuples);
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t;
    std::memcpy(&t, bytes + i * sizeof(Tuple), sizeof(Tuple));
    const uint64_t word = PackTuple(t);
    std::memcpy(bytes + i * sizeof(uint64_t), &word, sizeof(uint64_t));
  }
  return reinterpret_cast<uint64_t*>(tuples);
}

// Sorts the partition tuples[0, n) in place into packed words (read them
// with SortedWords). Each run is packed while it is loaded into cache
// anyway and sorted into `scratch` (n words), the packed run serving as
// its merge buffer; one multi-way merge then writes all runs back.
void SortMway(Tuple* tuples, std::size_t n, uint64_t* scratch) {
  if (n <= kSortRunSize) {
    sort::MergeSortPacked(PackInPlace(tuples, n), n, scratch);
    return;
  }
  std::vector<sort::SortedRun> runs;
  for (std::size_t begin = 0; begin < n; begin += kSortRunSize) {
    const std::size_t size = std::min(kSortRunSize, n - begin);
    uint64_t* run = PackInPlace(tuples + begin, size);
    sort::SortPackedInto(run, size, scratch + begin, run);
    runs.push_back(sort::SortedRun{scratch + begin, size});
  }
  sort::MultiwayMerge(runs, reinterpret_cast<uint64_t*>(tuples));
}

// The packed words SortMway left in a partition buffer.
const uint64_t* SortedWords(const Tuple* tuples) {
  return reinterpret_cast<const uint64_t*>(tuples);
}

// Merge-joins two key-sorted packed arrays, handling duplicates on both
// sides.
template <typename Emit>
void MergeJoinSorted(const uint64_t* r, std::size_t nr, const uint64_t* s,
                     std::size_t ns, Emit&& emit) {
  std::size_t i = 0, j = 0;
  while (i < nr && j < ns) {
    const uint32_t rk = static_cast<uint32_t>(r[i] >> 32);
    const uint32_t sk = static_cast<uint32_t>(s[j] >> 32);
    if (rk < sk) {
      ++i;
    } else if (rk > sk) {
      ++j;
    } else {
      std::size_t i_end = i + 1;
      while (i_end < nr && static_cast<uint32_t>(r[i_end] >> 32) == rk) {
        ++i_end;
      }
      std::size_t j_end = j + 1;
      while (j_end < ns && static_cast<uint32_t>(s[j_end] >> 32) == sk) {
        ++j_end;
      }
      for (std::size_t a = i; a < i_end; ++a) {
        for (std::size_t b = j; b < j_end; ++b) {
          emit(UnpackTuple(r[a]), UnpackTuple(s[b]));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
}

class MwayJoin final : public JoinAlgorithm {
 public:
  Algorithm id() const override { return Algorithm::kMWAY; }

  StatusOr<JoinResult> Execute(numa::NumaSystem* system,
                               const JoinConfig& config, ConstTupleSpan build,
                               ConstTupleSpan probe,
                               const KeyShape& shape) override {
    const int num_threads = config.num_threads;

    // Range partitions split on the highest bits in which build keys differ
    // (bits above them are common to all keys, e.g. an offset's), so
    // offset keys spread like keys from 0.
    const uint32_t bits =
        FloorLog2(NextPowerOfTwo(static_cast<uint64_t>(num_threads)));
    const uint32_t domain_bits = std::max<uint32_t>(
        static_cast<uint32_t>(std::bit_width(shape.base ^ shape.max)), 1);
    const uint32_t shift = domain_bits > bits ? domain_bits - bits : 0;
    const partition::RadixFn fn{shift, bits};
    const uint32_t num_partitions = fn.num_partitions();

    if (PartitionAllocFailpoint()) return InjectedAllocError("partition");

    // Check-and-reject budget path: MWAY materializes both relations into
    // partition buffers, which it sorts in place, plus merge scratch (8
    // B/tuple each) -- 16 B per input tuple total -- and each sorting
    // thread holds one merge tree's FIFOs, sized here for the largest
    // possible partition. The sort/merge pipeline needs all of it
    // live at once, so there is no graceful degradation stage for MWAY.
    const std::size_t max_runs =
        (std::max(build.size(), probe.size()) + kSortRunSize - 1) /
        kSortRunSize;
    const std::size_t sorting_threads =
        std::min<std::size_t>(num_threads, num_partitions);
    MMJOIN_ASSIGN_OR_RETURN(
        mem::BudgetReservation budget_hold,
        mem::BudgetReservation::Acquire(
            config.budget,
            (build.size() + probe.size()) * 16 +
                sorting_threads * sort::MultiwayMergeScratchBytes(max_runs),
            "MWAY partition + sort buffers"));

    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> r_part,
        TryBuffer<Tuple>(system, build.size(),
                         numa::Placement::kInterleavedPages,
                         "MWAY R partition buffer"));
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> s_part,
        TryBuffer<Tuple>(system, probe.size(),
                         numa::Placement::kInterleavedPages,
                         "MWAY S partition buffer"));

    partition::RadixOptions options;
    options.fn = fn;
    options.use_swwcb = true;
    options.num_threads = num_threads;
    partition::GlobalRadixPartitioner r_partitioner(
        system, options, build, TupleSpan(r_part.data(), r_part.size()));
    partition::GlobalRadixPartitioner s_partitioner(
        system, options, probe, TupleSpan(s_part.data(), s_part.size()));

    // Merge scratch for the sort phase (MWAY's "build"), hence the build
    // failpoint.
    if (BuildAllocFailpoint()) return InjectedAllocError("build");
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<uint64_t> r_scratch,
        TryBuffer<uint64_t>(system, build.size(),
                            numa::Placement::kInterleavedPages,
                            "MWAY R merge scratch"));
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<uint64_t> s_scratch,
        TryBuffer<uint64_t>(system, probe.size(),
                            numa::Placement::kInterleavedPages,
                            "MWAY S merge scratch"));

    std::vector<ThreadStats> stats(num_threads);
    int64_t partition_end = 0;
    int64_t sort_end = 0;
    MatchSink* sink = config.sink;
    JoinAbort abort;
    auto profiler = obs::MakeJoinProfiler(num_threads);
    // Buffers above are allocated + prefaulted untimed (buffer-manager
    // assumption, Section 5.1).
    const int64_t start = NowNanos();

    const Status dispatch_status = ExecutorOf(config).Dispatch(
        num_threads, [&](const thread::WorkerContext& ctx) {
      const int tid = ctx.thread_id;
      thread::Barrier& barrier = *ctx.barrier;
      const int node = system->topology().NodeOfThread(tid, num_threads);

      // --- Partition both relations. ---
      {
        obs::PhaseScope scope(profiler.get(), tid,
                              obs::JoinPhase::kPartitionPass1);
        r_partitioner.BuildHistogram(tid);
        s_partitioner.BuildHistogram(tid);
        barrier.ArriveAndWait();
        if (tid == 0) {
          r_partitioner.ComputeOffsets();
          s_partitioner.ComputeOffsets();
        }
        barrier.ArriveAndWait();
        r_partitioner.Scatter(tid, node);
        s_partitioner.Scatter(tid, node);
        barrier.ArriveAndWait();
      }
      if (tid == 0) partition_end = NowNanos();

      // --- Sort co-partitions (one partition per thread slot). ---
      const auto& r_layout = r_partitioner.layout();
      const auto& s_layout = s_partitioner.layout();
      {
        obs::PhaseScope scope(profiler.get(), tid, obs::JoinPhase::kSort);
        for (uint32_t p = static_cast<uint32_t>(tid); p < num_partitions;
             p += static_cast<uint32_t>(num_threads)) {
          const uint64_t r_begin = r_layout.offsets[p];
          const uint64_t s_begin = s_layout.offsets[p];
          SortMway(r_part.data() + r_begin, r_layout.PartitionSize(p),
                   r_scratch.data() + r_begin);
          SortMway(s_part.data() + s_begin, s_layout.PartitionSize(p),
                   s_scratch.data() + s_begin);
        }
      }
      // Merge-join scratch: failpoint before the barrier, unwind after.
      if (tid == 0 && ProbeAllocFailpoint()) {
        abort.Set(InjectedAllocError("probe"));
      }
      barrier.ArriveAndWait();
      if (abort.IsSet()) return;
      if (tid == 0) sort_end = NowNanos();

      // --- Merge-join co-partitions. ---
      obs::PhaseScope scope(profiler.get(), tid, obs::JoinPhase::kMerge);
      ThreadStats* local = &stats[tid];
      for (uint32_t p = static_cast<uint32_t>(tid); p < num_partitions;
           p += static_cast<uint32_t>(num_threads)) {
        const uint64_t* r_sorted =
            SortedWords(r_part.data() + r_layout.offsets[p]);
        const uint64_t* s_sorted =
            SortedWords(s_part.data() + s_layout.offsets[p]);
        system->CountRead(node, r_sorted,
                          r_layout.PartitionSize(p) * sizeof(uint64_t));
        system->CountRead(node, s_sorted,
                          s_layout.PartitionSize(p) * sizeof(uint64_t));
        if (sink == nullptr) {
          MergeJoinSorted(r_sorted, r_layout.PartitionSize(p), s_sorted,
                          s_layout.PartitionSize(p), [&](Tuple r, Tuple s) {
                            AccumulateMatch(local, r, s);
                          });
        } else {
          MatchBuffer buffer(sink, tid);
          MergeJoinSorted(r_sorted, r_layout.PartitionSize(p), s_sorted,
                          s_layout.PartitionSize(p), [&](Tuple r, Tuple s) {
                            AccumulateMatch(local, r, s);
                            buffer.Add(r, s);
                          });
        }
      }
    });
    MMJOIN_RETURN_IF_ERROR(dispatch_status);
    if (abort.IsSet()) return abort.status();

    const int64_t end = NowNanos();
    JoinResult result = ReduceStats(stats.data(), num_threads);
    result.times.partition_ns = partition_end - start;
    result.times.build_ns = sort_end - partition_end;  // sort phase
    result.times.probe_ns = end - sort_end;            // merge-join phase
    result.times.total_ns = end - start;
    if (profiler != nullptr) result.profile = profiler->Finish();
    return result;
  }
};

}  // namespace

std::unique_ptr<JoinAlgorithm> MakeMwayJoin() {
  return std::make_unique<MwayJoin>();
}

}  // namespace mmjoin::join::internal
