// The parallel radix join family (paper Sections 3.1, 5, 6.2):
//
//   PRB    two-pass, no SWWCB, chained tables, sequential task order
//   PRO    one-pass, SWWCB + NT streaming, chained tables
//   PRL    = PRO with linear probing tables
//   PRA    = PRO with array tables
//   PROiS / PRLiS / PRAiS = the same with NUMA round-robin task scheduling
//
// Flow: globally radix-partition R and S (one or two passes), then join
// co-partitions pulled from a shared task stack. Each worker keeps one
// reusable scratch table sized for the largest partition. Skewed probe
// partitions are split into multiple probe-slice tasks.

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "join/internal.h"
#include "join/join_algorithm.h"
#include "join/partition_tables.h"
#include "numa/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/model.h"
#include "partition/radix.h"
#include "thread/task_queue.h"
#include "thread/thread_team.h"
#include "util/log.h"
#include "util/bits.h"
#include "util/timer.h"

namespace mmjoin::join::internal {
namespace {

enum class TableKind { kChained, kLinear, kArray };

struct PrVariantSpec {
  bool two_pass;
  bool use_swwcb;
  TableKind table;
  bool improved_sched;
};

PrVariantSpec SpecOf(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kPRB:
      return {true, false, TableKind::kChained, false};
    case Algorithm::kPRO:
      return {false, true, TableKind::kChained, false};
    case Algorithm::kPRL:
      return {false, true, TableKind::kLinear, false};
    case Algorithm::kPRA:
      return {false, true, TableKind::kArray, false};
    case Algorithm::kPROiS:
      return {false, true, TableKind::kChained, true};
    case Algorithm::kPRLiS:
      return {false, true, TableKind::kLinear, true};
    case Algorithm::kPRAiS:
      return {false, true, TableKind::kArray, true};
    default:
      MMJOIN_CHECK(false && "not a PR variant");
      return {};
  }
}

partition::TableSpaceSpec SpaceOf(TableKind kind) {
  switch (kind) {
    case TableKind::kChained:
      return partition::kChainedSpace;
    case TableKind::kLinear:
      return partition::kLinearSpace;
    case TableKind::kArray:
      return partition::kArraySpace;
  }
  return partition::kChainedSpace;
}

// Absolute [begin, size] for every final partition of one relation.
struct FinalLayout {
  std::vector<uint64_t> begin;
  std::vector<uint64_t> size;
  uint64_t MaxPartitionSize() const {
    uint64_t max_size = 0;
    for (uint64_t s : size) max_size = std::max(max_size, s);
    return max_size;
  }
};

FinalLayout FromSinglePass(const partition::PartitionLayout& layout) {
  FinalLayout final;
  const uint32_t P = layout.num_partitions();
  final.begin.resize(P);
  final.size.resize(P);
  for (uint32_t p = 0; p < P; ++p) {
    final.begin[p] = layout.PartitionBegin(p);
    final.size[p] = layout.PartitionSize(p);
  }
  return final;
}

// Joins co-partitions pulled from `queue` with a per-thread scratch table.
// Runs after the last barrier of the dispatch, so a worker that hits a
// failure (or sees one via `abort`) may simply stop pulling tasks.
//
// A worker pops LIFO from its home node's shard and steals distance-ordered
// FIFO when it runs dry. Slices of one skewed partition share a single
// build table through `slots` (built by whichever slice arrives first)
// instead of each rebuilding a private copy.
template <typename Scratch>
void JoinPartitions(numa::NumaSystem* system, int tid, int node,
                    int num_threads, thread::ShardedTaskQueue* queue,
                    SkewBuildSlots* slots, const FinalLayout& r_layout,
                    const FinalLayout& s_layout, const Tuple* r_data,
                    const Tuple* s_data, const PartitionKeys& keys,
                    bool build_unique, MatchSink* sink, ThreadStats* local,
                    JoinAbort* abort, obs::JoinPhaseProfiler* profiler) {
  // The per-worker scratch table is the join phase's build-side allocation.
  if (BuildAllocFailpoint()) {
    abort->Set(InjectedAllocError("build"));
    return;
  }
  auto created =
      Scratch::Create(system, r_layout.MaxPartitionSize(), keys, node);
  if (!created.ok()) {
    abort->Set(created.status());
    return;
  }
  Scratch& scratch = **created;
  thread::JoinTask task;
  int stolen_from = -1;
  while (queue->Pop(node, &task, &stolen_from)) {
    if (abort->IsSet()) return;
    const uint32_t p = task.partition;
    const uint64_t r_size = r_layout.size[p];
    const uint64_t s_size = s_layout.size[p];
    if (r_size == 0 || s_size == 0) continue;

    const Tuple* r_part = r_data + r_layout.begin[p];
    const Scratch* build_table = &scratch;
    bool built_here = true;
    SkewBuildSlots::Slot* slot =
        task.probe_slice_count > 1 ? slots->Find(p) : nullptr;
    {
      obs::PhaseScope scope(profiler, tid, obs::JoinPhase::kBuild);
      if (slot != nullptr) {
        build_table = slots->GetOrBuild<Scratch>(
            slot,
            [&] {
              auto table = Scratch::Create(system, r_size, keys, node);
              if (!table.ok()) {
                abort->Set(table.status());
                return std::unique_ptr<Scratch>();
              }
              (*table)->Prepare(r_size);
              system->CountRead(node, r_part, r_size * sizeof(Tuple));
              for (uint64_t i = 0; i < r_size; ++i) {
                (*table)->Insert(r_part[i]);
              }
              return *std::move(table);
            },
            &built_here);
        if (build_table == nullptr) return;
      } else {
        scratch.Prepare(r_size);
        system->CountRead(node, r_part, r_size * sizeof(Tuple));
        for (uint64_t i = 0; i < r_size; ++i) scratch.Insert(r_part[i]);
      }
    }

    if (ProbeAllocFailpoint()) {
      abort->Set(InjectedAllocError("probe"));
      return;
    }
    obs::PhaseScope scope(profiler, tid, obs::JoinPhase::kProbe);
    const uint64_t slice_begin =
        s_size * task.probe_slice / task.probe_slice_count;
    const uint64_t slice_end =
        s_size * (task.probe_slice + 1) / task.probe_slice_count;
    const Tuple* s_part = s_data + s_layout.begin[p];
    system->CountRead(node, s_part + slice_begin,
                      (slice_end - slice_begin) * sizeof(Tuple));
    if (stolen_from >= 0) {
      // The stolen task's probe slice (and build partition, if this worker
      // built it) live near the victim, not here.
      uint64_t remote_bytes = (slice_end - slice_begin) * sizeof(Tuple);
      if (built_here) remote_bytes += r_size * sizeof(Tuple);
      queue->AddStealReadBytes(remote_bytes);
    }
    ProbeRange(*build_table, keys.shape, s_part, slice_begin, slice_end,
               build_unique, sink, tid, local);
  }
}

class PrJoin final : public JoinAlgorithm {
 public:
  explicit PrJoin(Algorithm id) : id_(id), spec_(SpecOf(id)) {}

  Algorithm id() const override { return id_; }

  StatusOr<JoinResult> Execute(numa::NumaSystem* system,
                               const JoinConfig& config, ConstTupleSpan build,
                               ConstTupleSpan probe,
                               const KeyShape& shape) override {
    const int num_threads = config.num_threads;

    uint32_t total_bits = config.radix_bits;
    if (total_bits == 0) {
      total_bits = partition::PredictRadixBits(
          std::max<uint64_t>(build.size(), 1), SpaceOf(spec_.table),
          num_threads, partition::DetectHostCacheSpec());
    }
    // Never create more partitions than build tuples.
    total_bits = std::min<uint32_t>(
        total_bits, std::max<uint32_t>(
                        CeilLog2(std::max<uint64_t>(build.size(), 2)), 1));

    bool two_pass = spec_.two_pass;
    if (config.num_passes == 1) two_pass = false;
    if (config.num_passes == 2) two_pass = true;

    // Budget planning (docs/ROBUSTNESS.md "Memory budgets"): decide up
    // front how this run fits its budget -- escalate radix bits, drop
    // two-pass to one-pass, split the probe side into spill waves -- and
    // reserve the planned working set for the whole run. The reservation
    // lives until Run returns, so concurrent budgeted joins on a shared
    // tracker are admitted against each other.
    uint32_t wave_count = 1;
    mem::BudgetReservation reservation;
    if (config.budget != nullptr && config.budget->bounded()) {
      partition::MemoryPlanInput plan_in;
      plan_in.build_tuples = build.size();
      plan_in.probe_tuples = probe.size();
      plan_in.num_threads = num_threads;
      plan_in.base_bits = std::max<uint32_t>(total_bits, 1);
      plan_in.max_bits = std::max(
          plan_in.base_bits,
          std::min<uint32_t>(
              24, std::max<uint32_t>(
                      CeilLog2(std::max<uint64_t>(build.size(), 2)), 1)));
      plan_in.bits_fixed = config.radix_bits != 0;
      plan_in.scratch_total_bytes =
          spec_.table == TableKind::kArray
              ? partition::kArraySpace.bytes_per_tuple *
                    static_cast<double>(shape.stripped_domain())
              : SpaceOf(spec_.table).bytes_per_tuple *
                    static_cast<double>(build.size());
      plan_in.fixed_overhead_bytes =
          two_pass ? (build.size() + probe.size()) * sizeof(Tuple) : 0;
      plan_in.budget_bytes = config.budget->budget_bytes();

      partition::MemoryPlan plan = partition::PlanMemoryBudget(plan_in);
      if (two_pass && (plan.wave_count > 1 || !plan.feasible)) {
        // Stage 1 (passes): one-pass frees the pass-1 mid buffers. Spill
        // waves require the single-pass partition index layout, so this
        // always precedes stage 2.
        two_pass = false;
        plan_in.fixed_overhead_bytes = 0;
        plan = partition::PlanMemoryBudget(plan_in);
        mem::CountBudgetReplan();
        MMJOIN_LOG(kWarn, "budget.replan")
            .Field("algo", NameOf(id_))
            .Field("action", "drop_pass2")
            .Field("budget_bytes", plan_in.budget_bytes);
      }
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
      total_bits = plan.radix_bits;
      wave_count = plan.wave_count;
      MMJOIN_ASSIGN_OR_RETURN(
          reservation,
          mem::BudgetReservation::Acquire(config.budget, plan.planned_bytes,
                                          "PR join working set"));
    }

    // Failpoint: force the spill-wave path (budget or not) so tests drive
    // stage 2 deterministically.
    if (WaveBudgetFailpoint()) {
      if (two_pass) {
        two_pass = false;
        mem::CountBudgetReplan();
      }
      wave_count = std::max<uint32_t>(wave_count, 2);
    }
    if (wave_count > 1 && probe.empty()) wave_count = 1;

    const PartitionKeys keys{shape, total_bits};
    if (wave_count > 1) {
      mem::CountBudgetWave();
      MMJOIN_LOG(kWarn, "budget.wave")
          .Field("algo", NameOf(id_))
          .Field("waves", wave_count)
          .Field("bits", total_bits);
      return RunOnePassWaves(system, config, build, probe, keys, wave_count);
    }
    return two_pass ? RunTwoPass(system, config, build, probe, keys)
                    : RunOnePass(system, config, build, probe, keys);
  }

 private:
  StatusOr<JoinResult> RunOnePass(numa::NumaSystem* system,
                                  const JoinConfig& config,
                                  ConstTupleSpan build, ConstTupleSpan probe,
                                  const PartitionKeys& keys) {
    const int num_threads = config.num_threads;

    if (PartitionAllocFailpoint()) return InjectedAllocError("partition");
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> r_out,
        TryBuffer<Tuple>(system, build.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "PR R partition buffer"));
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> s_out,
        TryBuffer<Tuple>(system, probe.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "PR S partition buffer"));

    partition::RadixOptions options;
    options.fn = keys.Fn();
    options.use_swwcb = spec_.use_swwcb;
    options.num_threads = num_threads;
    partition::GlobalRadixPartitioner r_partitioner(
        system, options, build, TupleSpan(r_out.data(), r_out.size()));
    partition::GlobalRadixPartitioner s_partitioner(
        system, options, probe, TupleSpan(s_out.data(), s_out.size()));

    std::vector<ThreadStats> stats(num_threads);
    int64_t partition_end = 0;
    thread::Executor& executor = ExecutorOf(config);
    std::unique_ptr<thread::ShardedTaskQueue> fallback_queue;
    thread::ShardedTaskQueue* queue =
        SelectJoinQueue(executor, *system, &fallback_queue);
    SkewBuildSlots slots;
    FinalLayout r_layout, s_layout;
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

      if (tid == 0) {
        partition_end = NowNanos();
        r_layout = FromSinglePass(r_partitioner.layout());
        s_layout = FromSinglePass(s_partitioner.layout());
        const Status seed_status =
            SeedQueue(queue, &slots, system, config, s_layout, probe.size(),
                      num_threads);
        if (!seed_status.ok()) abort.Set(seed_status);
      }
      barrier.ArriveAndWait();
      if (!abort.IsSet()) {
        RunJoinPhase(system, tid, node, num_threads, queue, &slots, r_layout,
                     s_layout, r_out.data(), s_out.data(), keys,
                     config.build_unique, config.sink, &stats[tid], &abort,
                     profiler.get());
      }
      // Flush the queue's per-run steal counters before the dispatch
      // returns: outside the dispatch the flush would race the next join
      // on this executor re-seeding the queue (BeginRun zeroes the stats).
      // The barrier guarantees every worker is done with the queue.
      barrier.ArriveAndWait();
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

  // Stage-2 degradation: single-pass radix join with the probe side
  // processed in `wave_count` sequential spill waves. R is partitioned once
  // and stays resident; only ceil(|S| / wave_count) probe tuples occupy
  // partition-buffer memory at any time (the wave buffer is reused). Each
  // wave radix-partitions its probe slice, re-seeds the task queue, and runs
  // the normal co-partition join phase, so per-wave match counts/checksums
  // sum to exactly the unbounded run's results (the checksum is
  // order-independent).
  StatusOr<JoinResult> RunOnePassWaves(numa::NumaSystem* system,
                                       const JoinConfig& config,
                                       ConstTupleSpan build,
                                       ConstTupleSpan probe,
                                       const PartitionKeys& keys,
                                       uint32_t wave_count) {
    const int num_threads = config.num_threads;
    const uint64_t wave_capacity =
        CeilDiv(probe.size(), static_cast<uint64_t>(wave_count));

    if (PartitionAllocFailpoint()) return InjectedAllocError("partition");
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> r_out,
        TryBuffer<Tuple>(system, build.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "PR R partition buffer"));
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> s_wave,
        TryBuffer<Tuple>(system, wave_capacity,
                         numa::Placement::kChunkedRoundRobin,
                         "PR S wave buffer"));

    partition::RadixOptions options;
    options.fn = keys.Fn();
    options.use_swwcb = spec_.use_swwcb;
    options.num_threads = num_threads;
    partition::GlobalRadixPartitioner r_partitioner(
        system, options, build, TupleSpan(r_out.data(), r_out.size()));
    // Rebuilt by thread 0 at each wave head for that wave's probe slice.
    std::unique_ptr<partition::GlobalRadixPartitioner> s_partitioner;

    std::vector<ThreadStats> stats(num_threads);
    int64_t partition_end = 0;
    thread::Executor& executor = ExecutorOf(config);
    std::unique_ptr<thread::ShardedTaskQueue> fallback_queue;
    thread::ShardedTaskQueue* queue =
        SelectJoinQueue(executor, *system, &fallback_queue);
    SkewBuildSlots slots;
    FinalLayout r_layout, s_layout;
    JoinAbort abort;
    auto profiler = obs::MakeJoinProfiler(num_threads);
    const int64_t start = NowNanos();

    const Status dispatch_status = executor.Dispatch(
        num_threads, [&](const thread::WorkerContext& ctx) {
      const int tid = ctx.thread_id;
      thread::Barrier& barrier = *ctx.barrier;
      const int node =
          system->topology().NodeOfThread(tid, num_threads);

      // Partition R once; it stays resident across all waves.
      {
        obs::PhaseScope scope(profiler.get(), tid,
                              obs::JoinPhase::kPartitionPass1);
        r_partitioner.BuildHistogram(tid);
        barrier.ArriveAndWait();
        if (tid == 0) r_partitioner.ComputeOffsets();
        barrier.ArriveAndWait();
        r_partitioner.Scatter(tid, node);
        barrier.ArriveAndWait();
      }
      if (tid == 0) {
        partition_end = NowNanos();
        r_layout = FromSinglePass(r_partitioner.layout());
      }
      // No barrier needed here: only thread 0 touches r_layout until the
      // first wave barrier below publishes it.

      for (uint32_t w = 0; w < wave_count; ++w) {
        obs::ObsScope wave_scope("budget.wave", obs::SpanKind::kOther);
        uint64_t wave_size = 0;
        if (tid == 0) {
          const uint64_t wave_begin = probe.size() * w / wave_count;
          wave_size = probe.size() * (w + 1) / wave_count - wave_begin;
          s_partitioner = std::make_unique<partition::GlobalRadixPartitioner>(
              system, options,
              ConstTupleSpan(probe.data() + wave_begin, wave_size),
              TupleSpan(s_wave.data(), wave_size));
          mem::CountBudgetWaveRound();
        }
        barrier.ArriveAndWait();

        {
          obs::PhaseScope scope(profiler.get(), tid,
                                obs::JoinPhase::kPartitionPass1);
          s_partitioner->BuildHistogram(tid);
          barrier.ArriveAndWait();
          if (tid == 0) s_partitioner->ComputeOffsets();
          barrier.ArriveAndWait();
          s_partitioner->Scatter(tid, node);
          barrier.ArriveAndWait();
        }

        if (tid == 0) {
          s_layout = FromSinglePass(s_partitioner->layout());
          const Status seed_status = SeedQueue(
              queue, &slots, system, config, s_layout, wave_size, num_threads);
          if (!seed_status.ok()) abort.Set(seed_status);
        }
        barrier.ArriveAndWait();

        if (!abort.IsSet()) {
          RunJoinPhase(system, tid, node, num_threads, queue, &slots,
                       r_layout, s_layout, r_out.data(), s_wave.data(), keys,
                       config.build_unique, config.sink, &stats[tid], &abort,
                       profiler.get());
        }
        // Wave-end barrier: every worker must be done with this wave's
        // buffers and queue before thread 0 reconfigures them -- and any
        // abort (injected build/probe failure included) is published to all
        // workers so they leave the wave loop together.
        barrier.ArriveAndWait();
        if (abort.IsSet()) break;
      }
      // The wave-end barrier above already synchronized the team and no
      // worker touches the queue after it, so flush its per-run steal
      // counters (the last seeded wave's) before the dispatch returns --
      // outside the dispatch the flush would race the next join on this
      // executor re-seeding the queue.
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

  StatusOr<JoinResult> RunTwoPass(numa::NumaSystem* system,
                                  const JoinConfig& config,
                                  ConstTupleSpan build, ConstTupleSpan probe,
                                  const PartitionKeys& keys) {
    const int num_threads = config.num_threads;
    const uint32_t bits1 = (keys.radix_bits + 1) / 2;
    const uint32_t bits2 = keys.radix_bits - bits1;
    const uint32_t P1 = uint32_t{1} << bits1;
    const uint32_t P2 = uint32_t{1} << bits2;

    if (PartitionAllocFailpoint()) return InjectedAllocError("partition");
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> r_mid,
        TryBuffer<Tuple>(system, build.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "PR R pass-1 buffer"));
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> s_mid,
        TryBuffer<Tuple>(system, probe.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "PR S pass-1 buffer"));
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> r_out,
        TryBuffer<Tuple>(system, build.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "PR R pass-2 buffer"));
    MMJOIN_ASSIGN_OR_RETURN(
        numa::NumaBuffer<Tuple> s_out,
        TryBuffer<Tuple>(system, probe.size(),
                         numa::Placement::kChunkedRoundRobin,
                         "PR S pass-2 buffer"));

    partition::RadixOptions options;
    options.fn = partition::RadixFn{keys.shape.shift, bits1};
    options.use_swwcb = spec_.use_swwcb;
    options.num_threads = num_threads;
    partition::GlobalRadixPartitioner r_partitioner(
        system, options, build, TupleSpan(r_mid.data(), r_mid.size()));
    partition::GlobalRadixPartitioner s_partitioner(
        system, options, probe, TupleSpan(s_mid.data(), s_mid.size()));

    std::vector<ThreadStats> stats(num_threads);
    int64_t partition_end = 0;
    thread::Executor& executor = ExecutorOf(config);
    std::unique_ptr<thread::ShardedTaskQueue> fallback_queue;
    thread::ShardedTaskQueue* queue =
        SelectJoinQueue(executor, *system, &fallback_queue);
    SkewBuildSlots slots;
    FinalLayout r_layout, s_layout;
    r_layout.begin.assign(static_cast<std::size_t>(P1) * P2, 0);
    r_layout.size.assign(static_cast<std::size_t>(P1) * P2, 0);
    s_layout.begin.assign(static_cast<std::size_t>(P1) * P2, 0);
    s_layout.size.assign(static_cast<std::size_t>(P1) * P2, 0);

    // Second-pass task counter: pass-1 partitions are tasks.
    std::atomic<uint32_t> next_sub{0};
    const partition::RadixFn fn2{keys.shape.shift + bits1, bits2};
    JoinAbort abort;
    auto profiler = obs::MakeJoinProfiler(num_threads);
    const int64_t start = NowNanos();

    const Status dispatch_status = executor.Dispatch(
        num_threads, [&](const thread::WorkerContext& ctx) {
      const int tid = ctx.thread_id;
      thread::Barrier& barrier = *ctx.barrier;
      const int node =
          system->topology().NodeOfThread(tid, num_threads);

      // Pass 1.
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

      // Pass 2: whole pass-1 partitions are assigned via a work counter
      // ("entire sub-partitions are assigned to worker threads by using a
      // task queue", Section 3.1).
      {
        obs::PhaseScope scope(profiler.get(), tid,
                              obs::JoinPhase::kPartitionPass2);
        const auto& r1 = r_partitioner.layout();
        const auto& s1 = s_partitioner.layout();
        // Relaxed: the counter only claims disjoint sub-partition indices;
        // the pass-1 data each claim reads was published by the barrier
        // above, so no ordering beyond atomicity is needed here.
        for (uint32_t p1 = next_sub.fetch_add(1, std::memory_order_relaxed);
             p1 < P1;
             p1 = next_sub.fetch_add(1, std::memory_order_relaxed)) {
          SubPartition(system, node, r_mid.data(), r_out.data(), r1, p1, fn2,
                       P2, &r_layout);
          SubPartition(system, node, s_mid.data(), s_out.data(), s1, p1, fn2,
                       P2, &s_layout);
        }
        barrier.ArriveAndWait();
      }

      if (tid == 0) {
        partition_end = NowNanos();
        const Status seed_status =
            SeedQueue(queue, &slots, system, config, s_layout, probe.size(),
                      num_threads);
        if (!seed_status.ok()) abort.Set(seed_status);
      }
      barrier.ArriveAndWait();
      if (!abort.IsSet()) {
        RunJoinPhase(system, tid, node, num_threads, queue, &slots, r_layout,
                     s_layout, r_out.data(), s_out.data(), keys,
                     config.build_unique, config.sink, &stats[tid], &abort,
                     profiler.get());
      }
      // Flush the queue's per-run steal counters before the dispatch
      // returns (see RunOnePass); the barrier guarantees every worker is
      // done with the queue.
      barrier.ArriveAndWait();
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

  void SubPartition(numa::NumaSystem* system, int node, const Tuple* mid,
                    Tuple* out, const partition::PartitionLayout& pass1,
                    uint32_t p1, partition::RadixFn fn2, uint32_t P2,
                    FinalLayout* final_layout) const {
    const uint64_t begin = pass1.PartitionBegin(p1);
    const uint64_t size = pass1.PartitionSize(p1);
    system->CountRead(node, mid + begin, size * sizeof(Tuple));
    system->CountWrite(node, out + begin, size * sizeof(Tuple));
    const partition::PartitionLayout sub = partition::SubPartitionSerial(
        ConstTupleSpan(mid + begin, size), TupleSpan(out + begin, size),
        fn2);
    for (uint32_t p2 = 0; p2 < P2; ++p2) {
      // Final partitions ordered pass1-major so partition indices stay
      // correlated with virtual addresses (Section 6.2).
      const std::size_t fp = static_cast<std::size_t>(p1) * P2 + p2;
      final_layout->begin[fp] = begin + sub.PartitionBegin(p2);
      final_layout->size[fp] = sub.PartitionSize(p2);
    }
  }

  // Seeds the sharded queue for this run. Runs on thread 0 between barriers
  // (single-threaded). BeginRun comes first so a failed seed leaves the
  // queue empty, not stale. Each task is seeded onto the node its probe
  // slice's memory lives on (partition buffers are kChunkedRoundRobin, so
  // NodeOfOffset reproduces the placement); the consume order within each
  // shard follows the scheduling order, preserving the iS round-robin
  // interleave and -- with a single active shard -- the exact historical
  // global-LIFO order.
  Status SeedQueue(thread::ShardedTaskQueue* queue, SkewBuildSlots* slots,
                   numa::NumaSystem* system, const JoinConfig& config,
                   const FinalLayout& s_layout, uint64_t probe_size,
                   int num_threads) const {
    const numa::Topology& topology = system->topology();
    queue->BeginRun(topology.ActiveNodes(num_threads), system);
    const auto num_partitions =
        static_cast<uint32_t>(s_layout.size.size());
    const std::vector<uint32_t> order =
        spec_.improved_sched
            ? thread::RoundRobinNodeOrder(num_partitions,
                                          topology.num_nodes())
            : thread::SequentialOrder(num_partitions);
    MMJOIN_ASSIGN_OR_RETURN(
        thread::SkewTaskList tasks,
        thread::BuildSkewTasks(s_layout.size, order, config.skew_task_factor,
                               probe_size));
    slots->Configure(tasks.skewed_partitions);
    const uint64_t probe_bytes = probe_size * sizeof(Tuple);
    for (const thread::JoinTask& task : tasks.consume_order) {
      const int shard = topology.NodeOfOffset(
          numa::Placement::kChunkedRoundRobin, 0,
          s_layout.begin[task.partition] * sizeof(Tuple), probe_bytes);
      queue->SeedTask(shard, task);
    }
    // Once per join run, not per task: cheap enough to record always.
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

  void RunJoinPhase(numa::NumaSystem* system, int tid, int node,
                    int num_threads, thread::ShardedTaskQueue* queue,
                    SkewBuildSlots* slots, const FinalLayout& r_layout,
                    const FinalLayout& s_layout, const Tuple* r_data,
                    const Tuple* s_data, const PartitionKeys& keys,
                    bool build_unique, MatchSink* sink, ThreadStats* local,
                    JoinAbort* abort,
                    obs::JoinPhaseProfiler* profiler) const {
    switch (spec_.table) {
      case TableKind::kChained:
        JoinPartitions<ChainedScratch>(system, tid, node, num_threads, queue,
                                       slots, r_layout, s_layout, r_data,
                                       s_data, keys, build_unique, sink, local,
                                       abort, profiler);
        break;
      case TableKind::kLinear:
        JoinPartitions<LinearScratch>(system, tid, node, num_threads, queue,
                                      slots, r_layout, s_layout, r_data,
                                      s_data, keys, build_unique, sink, local,
                                      abort, profiler);
        break;
      case TableKind::kArray:
        JoinPartitions<ArrayScratch>(system, tid, node, num_threads, queue,
                                     slots, r_layout, s_layout, r_data,
                                     s_data, keys, build_unique, sink, local,
                                     abort, profiler);
        break;
    }
  }

  Algorithm id_;
  PrVariantSpec spec_;
};

}  // namespace

std::unique_ptr<JoinAlgorithm> MakePrJoin(Algorithm variant) {
  return std::make_unique<PrJoin>(variant);
}

}  // namespace mmjoin::join::internal
