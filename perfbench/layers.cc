// Kernel-level timing for the traced mode. Every call into a layer gets a
// harness span, so the Chrome trace shows the kernels next to the joins.

#include "layers.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.h"
#include "hash/array_table.h"
#include "hash/chained_table.h"
#include "hash/concise_table.h"
#include "hash/linear_probing_table.h"
#include "partition/chunked.h"
#include "partition/model.h"
#include "partition/radix.h"
#include "sort/bitonic.h"
#include "sort/multiway_merge.h"
#include "thread/executor.h"
#include "util/types.h"

namespace perfbench {
namespace {

using mmjoin::Tuple;
using mmjoin::TupleSpan;
using mmjoin::numa::Placement;

constexpr int kThreads = 2;
// Probe loops stop after this long: on strided keys a single probe can walk
// a whole cluster, and the rate is what matters, not covering every key.
constexpr double kProbeBudgetS = 0.25;
constexpr uint64_t kProbeBatch = 4096;
// MWAY's run length (join/mway_join.cc) and the prefix of the probe
// relation the sort kernels work on.
constexpr std::size_t kSortRunSize = std::size_t{1} << 15;
constexpr std::size_t kSortItems = std::size_t{1} << 21;

volatile uint64_t g_probe_sink = 0;

double Mtps(uint64_t items, int64_t ns) {
  return ns > 0 ? static_cast<double>(items) / static_cast<double>(ns) * 1e3
                : 0.0;
}

void Check(const mmjoin::Status& status, const char* what) {
  if (!status.ok()) Die(what, status);
}

// Probes `probe` keys in batches until all are done or kProbeBudgetS has
// passed; returns the probe rate. `sink` keeps the loop from being folded.
template <typename Table>
double ProbeRate(const Table& table, const mmjoin::workload::Relation& probe,
                 uint64_t* sink) {
  Span span("perfbench.hash.Probe");
  const int64_t start = mmjoin::NowNanos();
  const int64_t budget = static_cast<int64_t>(kProbeBudgetS * 1e9);
  uint64_t done = 0;
  while (done < probe.size() && mmjoin::NowNanos() - start < budget) {
    const uint64_t end = std::min(done + kProbeBatch, probe.size());
    for (uint64_t i = done; i < end; ++i) {
      table.ProbeUnique(probe.data()[i].key,
                        [&](Tuple t) { *sink += t.payload; });
    }
    done = end;
  }
  return Mtps(done, mmjoin::NowNanos() - start);
}

template <typename Table>
void MeasureSerialTable(Table* table, const char* name,
                        const mmjoin::workload::Relation& build,
                        const mmjoin::workload::Relation& probe,
                        std::map<std::string, double>* metrics,
                        uint64_t* sink) {
  const int64_t start = mmjoin::NowNanos();
  {
    Span span("perfbench.hash.Build");
    for (uint64_t i = 0; i < build.size(); ++i) {
      table->InsertSerial(build.data()[i]);
    }
  }
  (*metrics)[std::string("hash.") + name + ".build_mtps"] =
      Mtps(build.size(), mmjoin::NowNanos() - start);
  (*metrics)[std::string("hash.") + name + ".probe_mtps"] =
      ProbeRate(*table, probe, sink);
}

void MeasurePartition(mmjoin::core::Joiner* joiner,
                      const mmjoin::workload::Relation& build,
                      const mmjoin::workload::Relation& probe,
                      std::map<std::string, double>* metrics) {
  mmjoin::numa::NumaSystem* system = joiner->system();
  mmjoin::thread::Executor* executor = joiner->executor();
  const uint32_t bits = mmjoin::partition::PredictRadixBits(
      build.size(), mmjoin::partition::kLinearSpace, kThreads,
      mmjoin::partition::DetectHostCacheSpec());
  (*metrics)["partition.predicted_bits"] = bits;

  mmjoin::numa::NumaBuffer<Tuple> output(system, probe.size(),
                                         Placement::kChunkedRoundRobin);
  const TupleSpan out(output.data(), output.size());
  mmjoin::partition::RadixOptions options;
  options.fn = mmjoin::partition::RadixFn{0, bits};
  options.num_threads = kThreads;

  mmjoin::partition::GlobalRadixPartitioner global(system, options,
                                                   probe.cspan(), out);
  int64_t start = mmjoin::NowNanos();
  {
    Span span("perfbench.partition.BuildHistogram");
    Check(executor->Dispatch(kThreads,
                             [&](const mmjoin::thread::WorkerContext& ctx) {
                               global.BuildHistogram(ctx.thread_id);
                             }),
          "Dispatch");
  }
  (*metrics)["partition.histogram_mtps"] =
      Mtps(probe.size(), mmjoin::NowNanos() - start);
  global.ComputeOffsets();
  start = mmjoin::NowNanos();
  {
    Span span("perfbench.partition.Scatter");
    Check(executor->Dispatch(kThreads,
                             [&](const mmjoin::thread::WorkerContext& ctx) {
                               global.Scatter(ctx.thread_id, ctx.node);
                             }),
          "Dispatch");
  }
  (*metrics)["partition.scatter_mtps"] =
      Mtps(probe.size(), mmjoin::NowNanos() - start);

  mmjoin::partition::ChunkedRadixPartitioner chunked(system, options,
                                                     probe.cspan(), out);
  start = mmjoin::NowNanos();
  {
    Span span("perfbench.partition.PartitionChunk");
    Check(executor->Dispatch(kThreads,
                             [&](const mmjoin::thread::WorkerContext& ctx) {
                               chunked.PartitionChunk(ctx.thread_id, ctx.node);
                             }),
          "Dispatch");
  }
  (*metrics)["partition.chunked_mtps"] =
      Mtps(probe.size(), mmjoin::NowNanos() - start);
}

void MeasureSort(const mmjoin::workload::Relation& probe,
                 std::map<std::string, double>* metrics) {
  const std::size_t n = std::min<std::size_t>(probe.size(), kSortItems);
  std::vector<uint64_t> data(n), scratch(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = mmjoin::PackTuple(probe.data()[i]);
  }
  std::vector<mmjoin::sort::SortedRun> runs;
  int64_t start = mmjoin::NowNanos();
  {
    Span span("perfbench.sort.MergeSortPacked");
    for (std::size_t begin = 0; begin < n; begin += kSortRunSize) {
      const std::size_t size = std::min(kSortRunSize, n - begin);
      mmjoin::sort::MergeSortPacked(data.data() + begin, size,
                                    scratch.data() + begin);
      runs.push_back(mmjoin::sort::SortedRun{data.data() + begin, size});
    }
  }
  (*metrics)["sort.mergesort_mtps"] = Mtps(n, mmjoin::NowNanos() - start);
  start = mmjoin::NowNanos();
  {
    Span span("perfbench.sort.MultiwayMerge");
    mmjoin::sort::MultiwayMerge(runs, scratch.data());
  }
  (*metrics)["sort.multiway_merge_mtps"] =
      Mtps(n, mmjoin::NowNanos() - start);
  if (!mmjoin::sort::IsSortedPacked(scratch.data(), n)) {
    std::fprintf(stderr, "perfbench: MultiwayMerge output is not sorted\n");
    std::exit(2);
  }
}

}  // namespace

void MeasureLayers(mmjoin::core::Joiner* joiner,
                   const mmjoin::workload::Relation& build,
                   const mmjoin::workload::Relation& probe,
                   std::map<std::string, double>* metrics) {
  MeasurePartition(joiner, build, probe, metrics);
  MeasureSort(probe, metrics);

  mmjoin::numa::NumaSystem* system = joiner->system();
  uint64_t sink = 0;
  {
    mmjoin::hash::LinearProbingTable<> table(system, build.size(),
                                             Placement::kLocal);
    MeasureSerialTable(&table, "linear", build, probe, metrics, &sink);
  }
  {
    mmjoin::hash::ChainedHashTable<> table(system, build.size(),
                                           Placement::kLocal);
    MeasureSerialTable(&table, "chained", build, probe, metrics, &sink);
  }
  {
    mmjoin::hash::ArrayTable table(system, build.key_domain(), 0,
                                   Placement::kLocal);
    MeasureSerialTable(&table, "array", build, probe, metrics, &sink);
  }
  {
    mmjoin::hash::ConciseHashTable table(system, build.size(),
                                         Placement::kLocal);
    const int64_t start = mmjoin::NowNanos();
    {
      Span span("perfbench.hash.Build");
      table.BuildSerial(build.cspan());
    }
    (*metrics)["hash.concise.build_mtps"] =
        Mtps(build.size(), mmjoin::NowNanos() - start);
    (*metrics)["hash.concise.probe_mtps"] = ProbeRate(table, probe, &sink);
  }
  // Publishing the sum keeps the probe loops from being folded away.
  g_probe_sink = sink;
}

}  // namespace perfbench
