// google-benchmark micro-benchmarks for the hash-table substrates:
// build and probe cost per tuple for the four table flavours, at cache-
// resident and DRAM-resident sizes.

#include <benchmark/benchmark.h>

#include <vector>

#include "hash/array_table.h"
#include "hash/chained_table.h"
#include "hash/concise_table.h"
#include "hash/linear_probing_table.h"
#include "numa/system.h"
#include "util/rng.h"
#include "util/types.h"

namespace {

using namespace mmjoin;

numa::NumaSystem* System() {
  static auto* system = new numa::NumaSystem(4);
  return system;
}

std::vector<Tuple> DenseShuffled(uint64_t n) {
  std::vector<Tuple> tuples(n);
  for (uint64_t i = 0; i < n; ++i) {
    tuples[i] = Tuple{static_cast<uint32_t>(i), static_cast<uint32_t>(i)};
  }
  Rng rng(42);
  for (uint64_t i = n; i > 1; --i) {
    std::swap(tuples[i - 1], tuples[rng.NextBelow(i)]);
  }
  return tuples;
}

template <typename Table>
void ProbeLoop(benchmark::State& state, const Table& table,
               const std::vector<Tuple>& probes) {
  uint64_t checksum = 0;
  for (auto _ : state) {
    for (const Tuple& p : probes) {
      table.ProbeUnique(p.key,
                        [&](Tuple t) { checksum += t.payload; });
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * probes.size());
}

void BM_LinearProbingBuild(benchmark::State& state) {
  const auto tuples = DenseShuffled(state.range(0));
  hash::LinearProbingTable<hash::IdentityHash> table(
      System(), tuples.size(), numa::Placement::kLocal);
  for (auto _ : state) {
    table.Reset(tuples.size());
    for (const Tuple& t : tuples) table.InsertSerial(t);
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_LinearProbingBuild)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_LinearProbingProbe(benchmark::State& state) {
  const auto tuples = DenseShuffled(state.range(0));
  hash::LinearProbingTable<hash::IdentityHash> table(
      System(), tuples.size(), numa::Placement::kLocal);
  for (const Tuple& t : tuples) table.InsertSerial(t);
  ProbeLoop(state, table, tuples);
}
BENCHMARK(BM_LinearProbingProbe)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ChainedBuild(benchmark::State& state) {
  const auto tuples = DenseShuffled(state.range(0));
  hash::ChainedHashTable<hash::IdentityHash> table(
      System(), tuples.size(), numa::Placement::kLocal);
  for (auto _ : state) {
    table.Reset(tuples.size());
    for (const Tuple& t : tuples) table.InsertSerial(t);
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_ChainedBuild)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ChainedProbe(benchmark::State& state) {
  const auto tuples = DenseShuffled(state.range(0));
  hash::ChainedHashTable<hash::IdentityHash> table(
      System(), tuples.size(), numa::Placement::kLocal);
  for (const Tuple& t : tuples) table.InsertSerial(t);
  ProbeLoop(state, table, tuples);
}
BENCHMARK(BM_ChainedProbe)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ConciseBuild(benchmark::State& state) {
  const auto tuples = DenseShuffled(state.range(0));
  for (auto _ : state) {
    hash::ConciseHashTable table(System(), tuples.size(),
                                 numa::Placement::kLocal);
    table.BuildSerial(ConstTupleSpan(tuples.data(), tuples.size()));
    benchmark::DoNotOptimize(table.overflow_size());
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_ConciseBuild)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ConciseProbe(benchmark::State& state) {
  const auto tuples = DenseShuffled(state.range(0));
  hash::ConciseHashTable table(System(), tuples.size(),
                               numa::Placement::kLocal);
  table.BuildSerial(ConstTupleSpan(tuples.data(), tuples.size()));
  ProbeLoop(state, table, tuples);
}
BENCHMARK(BM_ConciseProbe)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ArrayBuild(benchmark::State& state) {
  const auto tuples = DenseShuffled(state.range(0));
  hash::ArrayTable table(System(), tuples.size(), 0,
                         numa::Placement::kLocal);
  for (auto _ : state) {
    table.Reset(tuples.size(), hash::ArrayTable::KeyMap{});
    for (const Tuple& t : tuples) table.InsertSerial(t);
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_ArrayBuild)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ArrayProbe(benchmark::State& state) {
  const auto tuples = DenseShuffled(state.range(0));
  hash::ArrayTable table(System(), tuples.size(), 0,
                         numa::Placement::kLocal);
  for (const Tuple& t : tuples) table.InsertSerial(t);
  ProbeLoop(state, table, tuples);
}
BENCHMARK(BM_ArrayProbe)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace
