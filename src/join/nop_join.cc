// NOP and NOPA (paper Sections 3.2 and 5.2).
//
// No-partitioning joins build one global hash table concurrently (NOP: the
// lock-free CAS linear probing table of Lang et al.; NOPA: a plain array
// over the stripped key range), then every thread probes its chunk of S. The table is
// interleaved page-wise over all NUMA nodes for balanced memory bandwidth.

#include <memory>
#include <vector>

#include "hash/array_table.h"
#include "hash/linear_probing_table.h"
#include "join/internal.h"
#include "join/join_algorithm.h"
#include "numa/system.h"
#include "partition/model.h"
#include "thread/thread_team.h"
#include "util/timer.h"

namespace mmjoin::join::internal {
namespace {

// TableOps adapts the two table flavours to one code path. TableBytes is
// the check-and-reject budget estimate: NOP has one indivisible global
// table, so there is no graceful degradation -- either the table fits the
// budget or the join reports ResourceExhausted up front. Both tables take
// their bits from the stripped key (KeyShape), so strided keys fill them
// like dense ones.
struct LinearOps {
  using Table = hash::LinearProbingTable<hash::RadixShiftHash>;
  static StatusOr<std::unique_ptr<Table>> Make(numa::NumaSystem* system,
                                               ConstTupleSpan build,
                                               const KeyShape& shape) {
    return std::make_unique<Table>(system, build.size(),
                                   numa::Placement::kInterleavedPages,
                                   /*home_node=*/0,
                                   hash::RadixShiftHash{shape.shift});
  }
  // Duplicate keys take separate slots: never a rejected duplicate.
  static bool Insert(Table& table, Tuple t) {
    table.InsertConcurrent(t);
    return false;
  }
  static uint64_t TableBytes(ConstTupleSpan build, const KeyShape& shape) {
    return static_cast<uint64_t>(
        partition::kLinearSpace.bytes_per_tuple *
        static_cast<double>(build.size()));
  }
};

struct ArrayOps {
  using Table = hash::ArrayTable;
  static StatusOr<std::unique_ptr<Table>> Make(numa::NumaSystem* system,
                                               ConstTupleSpan build,
                                               const KeyShape& shape) {
    auto table = Table::TryCreate(
        system, shape.stripped_domain(),
        Table::KeyMap{shape.base, shape.shift, 0},
        numa::Placement::kInterleavedPages);
    if (!table.ok()) {
      return ResourceExhaustedError("NOPA array table: " +
                                    table.status().message());
    }
    return table;
  }
  // True when the key's cell was already taken.
  static bool Insert(Table& table, Tuple t) {
    return table.InsertConcurrent(t);
  }
  static uint64_t TableBytes(ConstTupleSpan build, const KeyShape& shape) {
    return static_cast<uint64_t>(
        partition::kArraySpace.bytes_per_tuple *
        static_cast<double>(shape.stripped_domain()));
  }
};

template <typename Ops>
class NopFamilyJoin final : public JoinAlgorithm {
 public:
  explicit NopFamilyJoin(Algorithm id) : id_(id) {}

  Algorithm id() const override { return id_; }

  StatusOr<JoinResult> Execute(numa::NumaSystem* system,
                               const JoinConfig& config, ConstTupleSpan build,
                               ConstTupleSpan probe,
                               const KeyShape& shape) override {
    const int num_threads = config.num_threads;

    // NOP has no partition phase; the partition failpoint covers its
    // (degenerate) working-memory setup so `alloc.partition` fails every
    // algorithm uniformly.
    if (PartitionAllocFailpoint()) return InjectedAllocError("partition");
    if (BuildAllocFailpoint()) return InjectedAllocError("build");

    // Check-and-reject budget path: reserve the global table's estimated
    // footprint for the duration of the run (released when `budget_hold`
    // leaves scope with the table).
    MMJOIN_ASSIGN_OR_RETURN(
        mem::BudgetReservation budget_hold,
        mem::BudgetReservation::Acquire(config.budget,
                                        Ops::TableBytes(build, shape),
                                        "NOP global hash table"));

    // Working memory is allocated and prefaulted before timing starts: the
    // paper assumes a buffer manager has faulted pages in already
    // (Section 5.1, "Memory Allocation Locality").
    MMJOIN_ASSIGN_OR_RETURN(auto table, Ops::Make(system, build, shape));
    const int64_t start = NowNanos();

    std::vector<ThreadStats> stats(num_threads);
    int64_t build_end = 0;
    MatchSink* sink = config.sink;
    JoinAbort abort;
    auto profiler = obs::MakeJoinProfiler(num_threads);

    const Status dispatch_status = ExecutorOf(config).Dispatch(
        num_threads, [&](const thread::WorkerContext& ctx) {
          const int tid = ctx.thread_id;
          thread::Barrier& barrier = *ctx.barrier;
          const int node = system->topology().NodeOfThread(tid, num_threads);

          {
            obs::PhaseScope scope(profiler.get(), tid, obs::JoinPhase::kBuild);
            // Build: insert this thread's chunk of R into the global table.
            const thread::Range r_range =
                thread::ChunkRange(build.size(), num_threads, tid);
            system->CountRead(node, build.data() + r_range.begin,
                              r_range.size() * sizeof(Tuple));
            bool duplicate = false;
            for (std::size_t i = r_range.begin; i < r_range.end; ++i) {
              duplicate |= Ops::Insert(*table, build[i]);
            }
            if (duplicate) abort.Set(DuplicateBuildKeyError());
            // Random writes into the interleaved table: one line per insert.
            system->CountWrite(node, table->raw_data(),
                               r_range.size() * kCacheLineSize);
          }

          // Probe-phase scratch would be acquired here; check the failpoint
          // before the barrier (everyone must arrive), unwind after it.
          if (tid == 0 && ProbeAllocFailpoint()) {
            abort.Set(InjectedAllocError("probe"));
          }
          barrier.ArriveAndWait();
          if (abort.IsSet()) return;
          if (tid == 0) build_end = NowNanos();

          obs::PhaseScope scope(profiler.get(), tid, obs::JoinPhase::kProbe);
          // Probe this thread's chunk of S.
          const thread::Range s_range =
              thread::ChunkRange(probe.size(), num_threads, tid);
          system->CountRead(node, probe.data() + s_range.begin,
                            s_range.size() * sizeof(Tuple));
          ProbeRange(*table, shape, probe.data(), s_range.begin,
                     s_range.end, config.build_unique, sink, tid,
                     &stats[tid]);
          // Random reads from the interleaved table: one line per probe.
          system->CountRead(node, table->raw_data(),
                            s_range.size() * kCacheLineSize);
        });
    MMJOIN_RETURN_IF_ERROR(dispatch_status);
    if (abort.IsSet()) return abort.status();

    const int64_t end = NowNanos();
    JoinResult result = ReduceStats(stats.data(), num_threads);
    result.times.build_ns = build_end - start;
    result.times.probe_ns = end - build_end;
    result.times.total_ns = end - start;
    if (profiler != nullptr) result.profile = profiler->Finish();
    return result;
  }

 private:
  Algorithm id_;
};

}  // namespace

std::unique_ptr<JoinAlgorithm> MakeNopJoin(bool array_table) {
  if (array_table) {
    return std::make_unique<NopFamilyJoin<ArrayOps>>(Algorithm::kNOPA);
  }
  return std::make_unique<NopFamilyJoin<LinearOps>>(Algorithm::kNOP);
}

}  // namespace mmjoin::join::internal
