// CPRL and CPRA -- the chunked parallel radix joins proposed by the paper
// (Section 6.1, Figures 4(c)/4(d)).
//
// Partitioning is chunk-local (no global histogram, no remote partition
// writes). A partition therefore exists as one fragment per chunk; the join
// phase gathers the build fragments of a co-partition into a node-local
// scratch table (large sequential -- possibly remote -- reads) and probes
// the probe fragments against it. CPRL uses the linear probing table, CPRA
// arrays.

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include "join/internal.h"
#include "join/join_algorithm.h"
#include "join/partition_tables.h"
#include "numa/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/chunked.h"
#include "partition/model.h"
#include "thread/task_queue.h"
#include "thread/thread_team.h"
#include "util/bits.h"
#include "util/log.h"
#include "util/timer.h"

namespace mmjoin::join::internal {
namespace {

// Runs after the last barrier of the dispatch: a worker that hits a failure
// (or sees one via `abort`) simply stops pulling tasks.
//
// Workers pop LIFO from their home node's shard, stealing distance-ordered
// FIFO when it runs dry. Slices of one skewed partition share a single
// gathered build table through `slots` (chunked partitions are gathered
// from every chunk, so the per-slice rebuild was the full gather each time).
template <typename Scratch>
void JoinChunkedPartitions(numa::NumaSystem* system, int tid, int node,
                           thread::ShardedTaskQueue* queue,
                           SkewBuildSlots* slots,
                           const partition::ChunkedLayout& r_layout,
                           const partition::ChunkedLayout& s_layout,
                           const Tuple* r_data, const Tuple* s_data,
                           const PartitionKeys& keys,
                           bool build_unique, MatchSink* sink,
                           Scratch* scratch, ThreadStats* local,
                           JoinAbort* abort,
                           obs::JoinPhaseProfiler* profiler) {
  const int num_chunks = r_layout.num_chunks;
  thread::JoinTask task;
  int stolen_from = -1;
  while (queue->Pop(node, &task, &stolen_from)) {
    if (abort->IsSet()) return;
    const uint32_t p = task.partition;
    const uint64_t r_size = r_layout.PartitionSize(p);
    if (r_size == 0 || s_layout.PartitionSize(p) == 0) continue;

    const Scratch* build_table = scratch;
    bool built_here = true;
    SkewBuildSlots::Slot* slot =
        task.probe_slice_count > 1 ? slots->Find(p) : nullptr;
    // Returns true when the partition repeats a build key.
    const auto gather = [&](Scratch* target) {
      target->Prepare(r_size);
      bool duplicate = false;
      for (int c = 0; c < num_chunks; ++c) {
        const Tuple* fragment = r_data + r_layout.FragmentOffset(c, p);
        const uint64_t size = r_layout.FragmentSize(c, p);
        system->CountRead(node, fragment, size * sizeof(Tuple));
        for (uint64_t i = 0; i < size; ++i) {
          duplicate |= target->Insert(fragment[i]);
        }
      }
      if (duplicate) abort->Set(DuplicateBuildKeyError());
      return !duplicate;
    };
    {
      obs::PhaseScope scope(profiler, tid, obs::JoinPhase::kBuild);
      // Build: gather this partition's fragments from every chunk.
      if (slot != nullptr) {
        build_table = slots->GetOrBuild<Scratch>(
            slot,
            [&] {
              auto table = Scratch::Create(system, r_size, keys, node);
              if (!table.ok()) {
                abort->Set(table.status());
                return std::unique_ptr<Scratch>();
              }
              if (!gather(table->get())) return std::unique_ptr<Scratch>();
              return *std::move(table);
            },
            &built_here);
        if (build_table == nullptr) return;
      } else if (!gather(scratch)) {
        return;
      }
    }

    if (ProbeAllocFailpoint()) {
      abort->Set(InjectedAllocError("probe"));
      return;
    }
    obs::PhaseScope scope(profiler, tid, obs::JoinPhase::kProbe);
    // Probe: skew slices partition the chunk range.
    const int chunk_begin = static_cast<int>(
        static_cast<uint64_t>(num_chunks) * task.probe_slice /
        task.probe_slice_count);
    const int chunk_end = static_cast<int>(
        static_cast<uint64_t>(num_chunks) * (task.probe_slice + 1) /
        task.probe_slice_count);
    uint64_t probe_bytes = 0;
    for (int c = chunk_begin; c < chunk_end; ++c) {
      const Tuple* fragment = s_data + s_layout.FragmentOffset(c, p);
      const uint64_t size = s_layout.FragmentSize(c, p);
      probe_bytes += size * sizeof(Tuple);
      system->CountRead(node, fragment, size * sizeof(Tuple));
      ProbeRange(*build_table, keys.shape, fragment, 0, size, build_unique,
                 sink, tid, local);
    }
    if (stolen_from >= 0) {
      // Chunked partitions are spread over all nodes; attribute the probe
      // fragments (and the gather, if this worker performed it) to the
      // steal, matching the PR accounting.
      uint64_t remote_bytes = probe_bytes;
      if (built_here) remote_bytes += r_size * sizeof(Tuple);
      queue->AddStealReadBytes(remote_bytes);
    }
  }
}

// The per-worker scratch table, sized for the largest build partition: the
// join phase's build-side allocation.
template <typename Scratch>
StatusOr<std::unique_ptr<Scratch>> CreateScratch(
    numa::NumaSystem* system, const partition::ChunkedLayout& r_layout,
    const PartitionKeys& keys, int node) {
  if (BuildAllocFailpoint()) return InjectedAllocError("build");
  uint64_t max_r_partition = 0;
  for (uint32_t p = 0; p < r_layout.num_partitions; ++p) {
    max_r_partition = std::max(max_r_partition, r_layout.PartitionSize(p));
  }
  return Scratch::Create(system, max_r_partition, keys, node);
}

class CprJoin final : public JoinAlgorithm {
 public:
  explicit CprJoin(Algorithm id) : id_(id) {
    MMJOIN_CHECK(id == Algorithm::kCPRL || id == Algorithm::kCPRA);
  }

  Algorithm id() const override { return id_; }

  StatusOr<JoinResult> Execute(numa::NumaSystem* system,
                               const JoinConfig& config, ConstTupleSpan build,
                               ConstTupleSpan probe,
                               const KeyShape& shape) override {
    const int num_threads = config.num_threads;
    const bool array = id_ == Algorithm::kCPRA;

    uint32_t bits = config.radix_bits;
    if (bits == 0) {
      bits = partition::PredictRadixBits(
          std::max<uint64_t>(build.size(), 1),
          array ? partition::kArraySpace : partition::kLinearSpace,
          num_threads, partition::DetectHostCacheSpec());
    }
    bits = std::min<uint32_t>(
        bits, std::max<uint32_t>(
                  CeilLog2(std::max<uint64_t>(build.size(), 2)), 1));

    // Budget planning (docs/ROBUSTNESS.md "Memory budgets"): CPR has no
    // two-pass mode, so degradation is bit escalation then spill waves.
    // The reservation covers the whole run.
    uint32_t wave_count = 1;
    mem::BudgetReservation reservation;
    if (config.budget != nullptr && config.budget->bounded()) {
      partition::MemoryPlanInput plan_in;
      plan_in.build_tuples = build.size();
      plan_in.probe_tuples = probe.size();
      plan_in.num_threads = num_threads;
      plan_in.base_bits = std::max<uint32_t>(bits, 1);
      plan_in.max_bits = std::max(
          plan_in.base_bits,
          std::min<uint32_t>(
              24, std::max<uint32_t>(
                      CeilLog2(std::max<uint64_t>(build.size(), 2)), 1)));
      plan_in.bits_fixed = config.radix_bits != 0;
      plan_in.scratch_total_bytes =
          array ? partition::kArraySpace.bytes_per_tuple *
                      static_cast<double>(shape.stripped_domain())
                : partition::kLinearSpace.bytes_per_tuple *
                      static_cast<double>(build.size());
      plan_in.budget_bytes = config.budget->budget_bytes();

      const partition::MemoryPlan plan = partition::PlanMemoryBudget(plan_in);
      if (!plan.feasible) {
        return BudgetInfeasibleError(NameOf(id_), plan.planned_bytes,
                                     plan_in.budget_bytes);
      }
      if (plan.replanned) {
        mem::CountBudgetReplan();
        MMJOIN_LOG(kWarn, "budget.replan")
            .Field("algo", NameOf(id_))
            .Field("action", "radix_bits")
            .Field("bits", plan.radix_bits)
            .Field("planned_bytes", plan.planned_bytes)
            .Field("budget_bytes", plan_in.budget_bytes);
      }
      bits = plan.radix_bits;
      wave_count = plan.wave_count;
      MMJOIN_ASSIGN_OR_RETURN(
          reservation,
          mem::BudgetReservation::Acquire(config.budget, plan.planned_bytes,
                                          "CPR join working set"));
    }
    if (WaveBudgetFailpoint()) wave_count = std::max<uint32_t>(wave_count, 2);
    if (wave_count > 1 && probe.empty()) wave_count = 1;

    const PartitionKeys keys{shape, bits};
    if (wave_count > 1) {
      mem::CountBudgetWave();
      MMJOIN_LOG(kWarn, "budget.wave")
          .Field("algo", NameOf(id_))
          .Field("waves", wave_count)
          .Field("bits", bits);
      return RunWaves(system, config, build, probe, keys, wave_count);
    }

    if (PartitionAllocFailpoint()) return InjectedAllocError("partition");
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> r_out,
        TryBuffer<Tuple>(system, build.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "CPR R partition buffer"));
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> s_out,
        TryBuffer<Tuple>(system, probe.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "CPR S partition buffer"));

    partition::RadixOptions options;
    options.fn = keys.Fn();
    options.use_swwcb = true;
    options.num_threads = num_threads;
    partition::ChunkedRadixPartitioner r_partitioner(
        system, options, build, TupleSpan(r_out.data(), r_out.size()));
    partition::ChunkedRadixPartitioner s_partitioner(
        system, options, probe, TupleSpan(s_out.data(), s_out.size()));

    std::vector<ThreadStats> stats(num_threads);
    int64_t partition_end = 0;
    thread::Executor& executor = ExecutorOf(config);
    std::unique_ptr<thread::ShardedTaskQueue> fallback_queue;
    thread::ShardedTaskQueue* queue =
        SelectJoinQueue(executor, *system, &fallback_queue);
    SkewBuildSlots slots;
    JoinAbort abort;
    auto profiler = obs::MakeJoinProfiler(num_threads);
    // Partition buffers were allocated + prefaulted untimed (buffer-manager
    // assumption, Section 5.1).
    const int64_t start = NowNanos();

    const Status dispatch_status = executor.Dispatch(
        num_threads, [&](const thread::WorkerContext& ctx) {
      const int tid = ctx.thread_id;
      thread::Barrier& barrier = *ctx.barrier;
      const int node =
          system->topology().NodeOfThread(tid, num_threads);

      {
        obs::PhaseScope scope(profiler.get(), tid,
                              obs::JoinPhase::kPartitionPass1);
        r_partitioner.PartitionChunk(tid, node);
        s_partitioner.PartitionChunk(tid, node);
        barrier.ArriveAndWait();
      }

      if (tid == 0) {
        partition_end = NowNanos();
        const Status seed_status =
            SeedQueue(queue, &slots, system, config, s_partitioner.layout(),
                      probe.size(), num_threads);
        if (!seed_status.ok()) abort.Set(seed_status);
      }
      barrier.ArriveAndWait();
      if (!abort.IsSet()) {
        // A worker whose scratch allocation fails publishes the abort and
        // skips the join phase; the others drain or abandon the queue via
        // the abort flag, and everyone meets at the trailing barrier below.
        const auto join = [&](auto scratch_type) {
          auto scratch = CreateScratch<typename decltype(scratch_type)::type>(
              system, r_partitioner.layout(), keys, node);
          if (!scratch.ok()) {
            abort.Set(scratch.status());
            return;
          }
          JoinChunkedPartitions(system, tid, node, queue, &slots,
                                r_partitioner.layout(), s_partitioner.layout(),
                                r_out.data(), s_out.data(), keys,
                                config.build_unique, config.sink,
                                scratch->get(), &stats[tid], &abort,
                                profiler.get());
        };
        if (array) {
          join(std::type_identity<ArrayScratch>{});
        } else {
          join(std::type_identity<LinearScratch>{});
        }
      }
      // Flush the queue's per-run steal counters before the dispatch
      // returns: outside the dispatch the flush would race the next join
      // on this executor re-seeding the queue (BeginRun zeroes the stats).
      barrier.ArriveAndWait();
      if (tid == 0) FlushStealMetrics(*queue);
      if (abort.IsSet()) return;  // uniform: the team leaves together
    });
    MMJOIN_RETURN_IF_ERROR(dispatch_status);
    if (abort.IsSet()) return abort.status();

    const int64_t end = NowNanos();
    JoinResult result = ReduceStats(stats.data(), num_threads);
    result.times.partition_ns = partition_end - start;
    result.times.probe_ns = end - partition_end;
    result.times.total_ns = end - start;
    if (profiler != nullptr) result.profile = profiler->Finish();
    return result;
  }

 private:
  // Stage-2 degradation: the build side is chunk-partitioned once and stays
  // resident; the probe side is processed in `wave_count` sequential spill
  // waves, each chunk-partitioning ceil(|S| / wave_count) tuples into a
  // reused wave buffer, re-seeding the queue, and joining against the
  // resident R fragments. Scratch tables are constructed once and reused
  // across waves. Per-wave results sum to the unbounded run's (matches,
  // checksum) exactly -- the checksum is order-independent.
  StatusOr<JoinResult> RunWaves(numa::NumaSystem* system,
                                const JoinConfig& config, ConstTupleSpan build,
                                ConstTupleSpan probe, const PartitionKeys& keys,
                                uint32_t wave_count) {
    const int num_threads = config.num_threads;
    const bool array = id_ == Algorithm::kCPRA;
    const uint64_t wave_capacity =
        CeilDiv(probe.size(), static_cast<uint64_t>(wave_count));

    if (PartitionAllocFailpoint()) return InjectedAllocError("partition");
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> r_out,
        TryBuffer<Tuple>(system, build.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "CPR R partition buffer"));
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> s_wave,
        TryBuffer<Tuple>(system, wave_capacity,
                         numa::Placement::kChunkedRoundRobin,
                         "CPR S wave buffer"));

    partition::RadixOptions options;
    options.fn = keys.Fn();
    options.use_swwcb = true;
    options.num_threads = num_threads;
    partition::ChunkedRadixPartitioner r_partitioner(
        system, options, build, TupleSpan(r_out.data(), r_out.size()));
    // Rebuilt by thread 0 at each wave head for that wave's probe slice.
    // Both layouts share num_chunks == num_threads, which
    // JoinChunkedPartitions requires for its chunk-sliced probe walk.
    std::unique_ptr<partition::ChunkedRadixPartitioner> s_partitioner;

    std::vector<ThreadStats> stats(num_threads);
    int64_t partition_end = 0;
    thread::Executor& executor = ExecutorOf(config);
    std::unique_ptr<thread::ShardedTaskQueue> fallback_queue;
    thread::ShardedTaskQueue* queue =
        SelectJoinQueue(executor, *system, &fallback_queue);
    SkewBuildSlots slots;
    JoinAbort abort;
    auto profiler = obs::MakeJoinProfiler(num_threads);
    const int64_t start = NowNanos();

    const Status dispatch_status = executor.Dispatch(
        num_threads, [&](const thread::WorkerContext& ctx) {
      const int tid = ctx.thread_id;
      thread::Barrier& barrier = *ctx.barrier;
      const int node =
          system->topology().NodeOfThread(tid, num_threads);

      {
        obs::PhaseScope scope(profiler.get(), tid,
                              obs::JoinPhase::kPartitionPass1);
        r_partitioner.PartitionChunk(tid, node);
        barrier.ArriveAndWait();
      }
      if (tid == 0) partition_end = NowNanos();
      const auto wave_loop = [&](auto& scratch) {
        for (uint32_t w = 0; w < wave_count; ++w) {
          obs::ObsScope wave_scope("budget.wave", obs::SpanKind::kOther);
          uint64_t wave_size = 0;
          if (tid == 0) {
            const uint64_t wave_begin = probe.size() * w / wave_count;
            wave_size = probe.size() * (w + 1) / wave_count - wave_begin;
            s_partitioner =
                std::make_unique<partition::ChunkedRadixPartitioner>(
                    system, options,
                    ConstTupleSpan(probe.data() + wave_begin, wave_size),
                    TupleSpan(s_wave.data(), wave_size));
            mem::CountBudgetWaveRound();
          }
          barrier.ArriveAndWait();

          {
            obs::PhaseScope scope(profiler.get(), tid,
                                  obs::JoinPhase::kPartitionPass1);
            s_partitioner->PartitionChunk(tid, node);
            barrier.ArriveAndWait();
          }

          if (tid == 0) {
            const Status seed_status =
                SeedQueue(queue, &slots, system, config,
                          s_partitioner->layout(), wave_size, num_threads);
            if (!seed_status.ok()) abort.Set(seed_status);
          }
          barrier.ArriveAndWait();

          if (!abort.IsSet()) {
            JoinChunkedPartitions(system, tid, node, queue, &slots,
                                  r_partitioner.layout(),
                                  s_partitioner->layout(), r_out.data(),
                                  s_wave.data(), keys, config.build_unique,
                                  config.sink, &scratch, &stats[tid], &abort,
                                  profiler.get());
          }
          // Wave-end barrier: all workers must be done with this wave's
          // buffers and queue before thread 0 reconfigures them; aborts are
          // published so everyone leaves together.
          barrier.ArriveAndWait();
          if (abort.IsSet()) return;
        }
      };
      // The scratch table lives across all waves. Unlike the single-shot
      // path, the wave loop has barriers, so a build-allocation failure
      // must follow the check-before-barrier protocol: record it, arrive,
      // and leave together.
      const auto run_waves = [&](auto scratch_type) {
        auto scratch = CreateScratch<typename decltype(scratch_type)::type>(
            system, r_partitioner.layout(), keys, node);
        if (!scratch.ok()) abort.Set(scratch.status());
        barrier.ArriveAndWait();
        if (abort.IsSet()) return false;
        wave_loop(**scratch);
        return true;
      };
      const bool waves_ran = array
                                 ? run_waves(std::type_identity<ArrayScratch>{})
                                 : run_waves(std::type_identity<LinearScratch>{});
      if (!waves_ran) return;
      // Every exit from wave_loop passes through the wave-end barrier, so
      // the team is synchronized and no worker touches the queue after it:
      // flush its per-run steal counters (the last seeded wave's) before
      // the dispatch returns -- outside the dispatch the flush would race
      // the next join on this executor re-seeding the queue.
      if (tid == 0) FlushStealMetrics(*queue);
    });
    MMJOIN_RETURN_IF_ERROR(dispatch_status);
    if (abort.IsSet()) return abort.status();

    const int64_t end = NowNanos();
    JoinResult result = ReduceStats(stats.data(), num_threads);
    result.times.partition_ns = partition_end - start;
    result.times.probe_ns = end - partition_end;
    result.times.total_ns = end - start;
    if (profiler != nullptr) result.profile = profiler->Finish();
    return result;
  }

  // Seeds the sharded queue for this run on thread 0 between barriers.
  // BeginRun comes first so a failed seed leaves the queue empty, not
  // stale. A chunked partition has no home node (its fragments are spread
  // over every chunk), so shards get contiguous *blocks* of the sequential
  // order -- each owner then walks its partitions in ascending order, the
  // same sequential sweep over the chunked layout the global queue gave
  // every worker (a round-robin deal would stride each owner by the shard
  // count and defeat prefetching within the chunk fragments).
  static Status SeedQueue(thread::ShardedTaskQueue* queue,
                          SkewBuildSlots* slots, numa::NumaSystem* system,
                          const JoinConfig& config,
                          const partition::ChunkedLayout& s_layout,
                          uint64_t probe_size, int num_threads) {
    const numa::Topology& topology = system->topology();
    queue->BeginRun(topology.ActiveNodes(num_threads), system);
    const uint32_t num_partitions = s_layout.num_partitions;
    std::vector<uint64_t> sizes(num_partitions);
    for (uint32_t p = 0; p < num_partitions; ++p) {
      sizes[p] = s_layout.PartitionSize(p);
    }
    // Slices partition the chunk range, so more slices than chunks would
    // leave empty slices: cap there.
    const uint32_t max_slices = std::min<uint32_t>(
        thread::kMaxProbeSlicesPerPartition,
        std::max<uint32_t>(static_cast<uint32_t>(s_layout.num_chunks), 1));
    MMJOIN_ASSIGN_OR_RETURN(
        thread::SkewTaskList tasks,
        thread::BuildSkewTasks(sizes,
                               thread::SequentialOrder(num_partitions),
                               config.skew_task_factor, probe_size,
                               max_slices));
    slots->Configure(tasks.skewed_partitions);
    const int num_shards = queue->num_shards();
    for (const thread::JoinTask& task : tasks.consume_order) {
      const int preferred = static_cast<int>(
          static_cast<uint64_t>(task.partition) * num_shards /
          std::max<uint32_t>(num_partitions, 1));
      queue->SeedTask(preferred, task);
    }
    // skew_slices counts tasks beyond one per partition, so tasks_seeded ==
    // num_partitions + skew_slices (asserted in tests/obs_test.cc).
    obs::MetricsRegistry::Get().AddCounter("join.tasks_seeded",
                                           tasks.consume_order.size());
    obs::MetricsRegistry::Get().AddCounter("join.skew_slices",
                                           tasks.skew_slices);
    obs::MetricsRegistry::Get().AddCounter("join.skew_partitions",
                                           tasks.skew_partitions);
    return OkStatus();
  }

  Algorithm id_;
};

}  // namespace

std::unique_ptr<JoinAlgorithm> MakeCprJoin(Algorithm variant) {
  return std::make_unique<CprJoin>(variant);
}

}  // namespace mmjoin::join::internal
