// Internal shared helpers for the join implementations. Not part of the
// public API.

#ifndef MMJOIN_JOIN_INTERNAL_H_
#define MMJOIN_JOIN_INTERNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "join/join_algorithm.h"
#include "join/join_defs.h"
#include "mem/budget.h"
#include "numa/system.h"
#include "obs/metrics.h"
#include "thread/executor.h"
#include "thread/task_queue.h"
#include "util/annotations.h"
#include "util/failpoint.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/types.h"

namespace mmjoin::join::internal {

// The worker pool a join's parallel phases run on: the caller's executor if
// one is configured, the process-wide pool otherwise. Never spawns per-join.
inline thread::Executor& ExecutorOf(const JoinConfig& config) {
  return config.executor != nullptr ? *config.executor
                                    : thread::GlobalExecutor();
}

// Cooperative failure flag for barrier-synchronized worker closures. A
// worker that hits a failure *before* a barrier records it here and still
// arrives at the barrier (so nobody deadlocks); every worker tests the flag
// after the barrier and unwinds. The first status wins.
class JoinAbort {
 public:
  void Set(Status status) {
    MutexLock lock(mutex_);
    if (!failed_.load(std::memory_order_relaxed)) {
      status_ = std::move(status);
      // Release pairs with the acquire in IsSet(): a worker that observes
      // failed_ == true also observes the fully-written status_ (readable
      // via status(), which additionally takes the mutex).
      failed_.store(true, std::memory_order_release);
    }
  }

  bool IsSet() const { return failed_.load(std::memory_order_acquire); }

  Status status() const {
    MutexLock lock(mutex_);
    return status_;
  }

 private:
  std::atomic<bool> failed_{false};
  mutable Mutex mutex_;
  Status status_ MMJOIN_GUARDED_BY(mutex_);
};

// Shared build tables for skewed partitions.
//
// Skew handling splits a large probe partition into several probe-slice
// tasks that may run on different threads. Historically every slice rebuilt
// a private scratch table of the *same* build partition -- O(slices) build
// cost exactly where skew already made the partition expensive. A
// SkewBuildSlots instead holds one slot per skewed partition: the first
// slice to arrive builds the table once, later slices (and concurrent ones,
// via the CondVar) share it read-only.
//
// Lifecycle: a stack object per join run. Configure() runs on the seeding
// thread between barriers (single-threaded); GetOrBuild() runs concurrently
// in the join phase. Destruction at end of run frees the tables, so the
// fault-injection live-region accounting still balances.
class SkewBuildSlots {
 public:
  struct Slot {
    Mutex mutex;
    CondVar cv;
    bool building MMJOIN_GUARDED_BY(mutex) = false;
    // Type-erased so one slot type serves every Scratch adapter; the deleter
    // captured by GetOrBuild restores the concrete type.
    std::shared_ptr<const void> table MMJOIN_GUARDED_BY(mutex);
  };

  // One slot per partition that BuildSkewTasks split. Seeding-thread only.
  void Configure(const std::vector<uint32_t>& skewed_partitions) {
    slots_.clear();
    for (const uint32_t p : skewed_partitions) {
      slots_.emplace(p, std::make_unique<Slot>());
    }
  }

  // Null for partitions that were not split (callers then use their private
  // per-worker scratch as before). The map itself is read-only during the
  // join phase, so lookups take no lock.
  Slot* Find(uint32_t partition) const {
    const auto it = slots_.find(partition);
    return it == slots_.end() ? nullptr : it->second.get();
  }

  // Returns the slot's table, building it exactly once: the first caller
  // runs `build_fn` (-> unique_ptr<Scratch>) outside the slot mutex while
  // later callers wait on the CondVar. `built` reports whether *this* call
  // did the build (the builder pays the build-side memory reads, which
  // matters for steal accounting). The returned table is valid until the
  // SkewBuildSlots is destroyed or reconfigured.
  template <typename Scratch, typename BuildFn>
  const Scratch* GetOrBuild(Slot* slot, BuildFn&& build_fn, bool* built) {
    *built = false;
    {
      MutexLock lock(slot->mutex);
      while (slot->building) slot->cv.Wait(slot->mutex);
      if (slot->table != nullptr) {
        return static_cast<const Scratch*>(slot->table.get());
      }
      slot->building = true;
    }
    // Build outside the lock: the table constructor allocates and the
    // insert loop streams the whole build partition.
    *built = true;
    std::unique_ptr<Scratch> table = build_fn();
    const Scratch* raw = table.get();
    std::shared_ptr<const void> erased(
        table.release(),
        [](const void* p) { delete static_cast<const Scratch*>(p); });
    MutexLock lock(slot->mutex);
    slot->table = std::move(erased);
    slot->building = false;
    slot->cv.NotifyAll();
    return raw;
  }

 private:
  std::unordered_map<uint32_t, std::unique_ptr<Slot>> slots_;
};

// Exports one run's work-stealing telemetry. Called once per join run after
// the dispatch returns (even for runs that stole nothing, so the counters
// are always present in exported metrics).
inline void FlushStealMetrics(const thread::ShardedTaskQueue& queue) {
  const thread::ShardedTaskQueue::RunStats stats = queue.run_stats();
  obs::MetricsRegistry::Get().AddCounter("join.tasks_stolen",
                                         stats.tasks_stolen);
  obs::MetricsRegistry::Get().AddCounter("join.steal_remote_reads",
                                         stats.steal_remote_read_bytes);
  // Distribution of steals per dispatch (one sample per run, zeros
  // included): the shape separates "rare dispatches steal everything"
  // from "every dispatch steals a little".
  static obs::Histogram* const steals =
      obs::MetricsRegistry::Get().GetHistogram("join.steals_per_dispatch");
  steals->Record(stats.tasks_stolen);
}

// The queue a join run schedules its co-partition tasks on: the executor's
// persistent sharded queue when its shard count matches the join's software
// topology, else `fallback` (a run-local queue sized to the topology).
// Mismatches only happen when a caller pairs an executor with a NumaSystem
// modeling a different node count.
inline thread::ShardedTaskQueue* SelectJoinQueue(
    thread::Executor& executor, const numa::NumaSystem& system,
    std::unique_ptr<thread::ShardedTaskQueue>* fallback) {
  const int num_nodes = system.topology().num_nodes();
  if (executor.join_queue().num_shards() == num_nodes) {
    return &executor.join_queue();
  }
  *fallback = std::make_unique<thread::ShardedTaskQueue>(num_nodes);
  return fallback->get();
}

// Canonical per-phase allocation failpoints. Inline functions (not the
// macro) so every join TU evaluates the *same* registered failpoint --
// `alloc.partition=once` must be able to fail whichever algorithm runs
// next, exactly once, regardless of which TU it lives in.
inline bool PartitionAllocFailpoint() {
  return MMJOIN_FAILPOINT("alloc.partition");
}
inline bool BuildAllocFailpoint() { return MMJOIN_FAILPOINT("alloc.build"); }
inline bool ProbeAllocFailpoint() { return MMJOIN_FAILPOINT("alloc.probe"); }

inline Status InjectedAllocError(const char* phase) {
  return ResourceExhaustedError(
      std::string("injected allocation failure in ") + phase +
      " phase (failpoint alloc." + phase + ")");
}

// An array table holds one tuple per key: NOPA, PRA, CPRA and PRAiS reject
// a build side with a repeated key instead of answering wrongly.
inline Status DuplicateBuildKeyError() {
  return InvalidArgumentError(
      "duplicate build key: array joins keep one tuple per key and need "
      "unique build keys");
}

// Forces the radix joins onto the spill-wave degradation path regardless of
// the budget arithmetic, so tests can drive stage 2 deterministically (see
// docs/ROBUSTNESS.md). Shared across the PR*/CPR* TUs like the alloc.*
// failpoints above.
inline bool WaveBudgetFailpoint() { return MMJOIN_FAILPOINT("budget.wave"); }

// Stage-3 rejection: even maximum degradation (bit escalation, one pass,
// kMaxSpillWaves) cannot fit the budget.
inline Status BudgetInfeasibleError(const char* algorithm, uint64_t needed,
                                    uint64_t budget) {
  return ResourceExhaustedError(
      std::string(algorithm) +
      ": memory budget infeasible after all degradation stages (needs >= " +
      std::to_string(needed) + " bytes, budget " + std::to_string(budget) +
      ")");
}

// NumaBuffer::TryCreate with a phase-tagged error message.
template <typename T>
StatusOr<numa::NumaBuffer<T>> TryBuffer(numa::NumaSystem* system,
                                        std::size_t count,
                                        numa::Placement placement,
                                        const char* what, int home_node = 0) {
  auto buffer =
      numa::NumaBuffer<T>::TryCreate(system, count, placement, home_node);
  if (!buffer.ok()) {
    return ResourceExhaustedError(std::string(what) + ": " +
                                  buffer.status().message());
  }
  return buffer;
}

// Per-thread match accumulator, cache-line padded against false sharing.
// The live fields sit in a nested struct so the padding is derived from
// their actual layout instead of hand-counted member sizes (which silently
// rots when a field is added or resized).
struct ThreadStatsFields {
  uint64_t matches = 0;
  uint64_t checksum = 0;
};

struct alignas(kCacheLineSize) ThreadStats : ThreadStatsFields {
  char padding[kCacheLineSize - sizeof(ThreadStatsFields)];
};
static_assert(sizeof(ThreadStatsFields) < kCacheLineSize,
              "ThreadStats fields must leave room for padding");
static_assert(sizeof(ThreadStats) == kCacheLineSize,
              "ThreadStats must occupy exactly one cache line");

MMJOIN_ALWAYS_INLINE void AccumulateMatch(ThreadStats* stats, Tuple build,
                                          Tuple probe) {
  ++stats->matches;
  stats->checksum +=
      static_cast<uint64_t>(build.payload) + probe.payload;
}

inline JoinResult ReduceStats(const ThreadStats* stats, int num_threads) {
  JoinResult result;
  for (int t = 0; t < num_threads; ++t) {
    result.matches += stats[t].matches;
    result.checksum += stats[t].checksum;
  }
  return result;
}

// Batches matches into a MatchChunk and flushes it to the sink's
// ConsumeChunk fast path -- one virtual call per up-to-1024 matches instead
// of one per match. Stack-allocated per probe task/fragment; the destructor
// flushes the remainder, so partial chunks at task boundaries are delivered
// (chunk *sizes* are therefore best-effort; consumers that care about
// density compact downstream, see exec::ChunkCompactor).
class MatchBuffer {
 public:
  MatchBuffer(MatchSink* sink, int tid) : sink_(sink), tid_(tid) {}
  ~MatchBuffer() { Flush(); }

  MatchBuffer(const MatchBuffer&) = delete;
  MatchBuffer& operator=(const MatchBuffer&) = delete;

  MMJOIN_ALWAYS_INLINE void Add(Tuple build, Tuple probe) {
    chunk_.Add(build, probe);
    if (MMJOIN_UNLIKELY(chunk_.full())) Flush();
  }

  void Flush() {
    if (chunk_.size == 0) return;
    sink_->ConsumeChunk(tid_, chunk_);
    chunk_.size = 0;
  }

 private:
  MatchSink* sink_;
  int tid_;
  MatchChunk chunk_;
};

// Passes only probe keys some build key could equal: inside [base, max]
// and on the build keys' stride (KeyShape). The others would only miss, and
// under the identity hash such a miss can scan a whole occupied cluster of
// a linear probing table -- off-stride keys (i << 12) + 1 land right inside
// the cluster of the dense stripped keys.
class ProbeKeyFilter {
 public:
  explicit ProbeKeyFilter(const KeyShape& shape)
      : base_(shape.base),
        span_(shape.max - shape.base),
        stride_mask_(
            static_cast<uint32_t>((uint64_t{1} << shape.shift) - 1)) {}

  MMJOIN_ALWAYS_INLINE bool operator()(uint32_t key) const {
    const uint32_t offset = key - base_;  // wraps past span_ below base
    return offset <= span_ && (offset & stride_mask_) == 0;
  }

 private:
  uint32_t base_;
  uint32_t span_;
  uint32_t stride_mask_;
};

// Probes probe[begin, end) against `table` (anything exposing Probe and
// ProbeUnique), accumulating into `local` and optionally feeding `sink`
// (chunk-batched through a MatchBuffer). Keys `may_match` rules out skip
// the table. The unique/sink dispatch happens once, outside the tight
// loops.
template <typename Table, typename KeyFilter>
void ProbeFiltered(const Table& table, KeyFilter may_match,
                   const Tuple* probe, uint64_t begin, uint64_t end,
                   bool unique, MatchSink* sink, int tid, ThreadStats* local) {
  if (unique) {
    if (sink == nullptr) {
      for (uint64_t i = begin; i < end; ++i) {
        const Tuple s = probe[i];
        if (!may_match(s.key)) continue;
        table.ProbeUnique(s.key,
                          [&](Tuple r) { AccumulateMatch(local, r, s); });
      }
    } else {
      MatchBuffer buffer(sink, tid);
      for (uint64_t i = begin; i < end; ++i) {
        const Tuple s = probe[i];
        if (!may_match(s.key)) continue;
        table.ProbeUnique(s.key, [&](Tuple r) {
          AccumulateMatch(local, r, s);
          buffer.Add(r, s);
        });
      }
    }
  } else {
    if (sink == nullptr) {
      for (uint64_t i = begin; i < end; ++i) {
        const Tuple s = probe[i];
        if (!may_match(s.key)) continue;
        table.Probe(s.key, [&](Tuple r) { AccumulateMatch(local, r, s); });
      }
    } else {
      MatchBuffer buffer(sink, tid);
      for (uint64_t i = begin; i < end; ++i) {
        const Tuple s = probe[i];
        if (!may_match(s.key)) continue;
        table.Probe(s.key, [&](Tuple r) {
          AccumulateMatch(local, r, s);
          buffer.Add(r, s);
        });
      }
    }
  }
}

// ProbeFiltered with the filter `shape` calls for. Dense keys from 0 (the
// paper's workloads) probe every key unfiltered, and through the table's
// IdentityView() where it has one (the tables that strip keys with the
// shape alone: NOP's, CHTJ's, the arrays), exactly as before the key shape
// existed: the filter and the no-op shifts would only add instructions to
// the probe loops.
template <typename Table>
void ProbeRange(const Table& table, const KeyShape& shape, const Tuple* probe,
                uint64_t begin, uint64_t end, bool unique, MatchSink* sink,
                int tid, ThreadStats* local) {
  if (shape.base == 0 && shape.shift == 0) {
    const auto all_keys = [](uint32_t) { return true; };
    if constexpr (requires { table.IdentityView(); }) {
      ProbeFiltered(table.IdentityView(), all_keys, probe, begin, end, unique,
                    sink, tid, local);
    } else {
      ProbeFiltered(table, all_keys, probe, begin, end, unique, sink, tid,
                    local);
    }
  } else {
    ProbeFiltered(table, ProbeKeyFilter(shape), probe, begin, end, unique,
                  sink, tid, local);
  }
}

// Per-algorithm factories (one translation unit each).
std::unique_ptr<JoinAlgorithm> MakeNopJoin(bool array_table);
std::unique_ptr<JoinAlgorithm> MakeChtJoin();
std::unique_ptr<JoinAlgorithm> MakeMwayJoin();
std::unique_ptr<JoinAlgorithm> MakePrJoin(Algorithm variant);
std::unique_ptr<JoinAlgorithm> MakeCprJoin(Algorithm variant);

}  // namespace mmjoin::join::internal

#endif  // MMJOIN_JOIN_INTERNAL_H_
