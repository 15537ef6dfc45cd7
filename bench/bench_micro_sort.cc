// google-benchmark micro-benchmarks for the sort substrate: the 2-way merge
// kernel per ISA vs std::merge, run generation per ISA, MergeSortPacked vs
// std::sort, and the multiway merge tree up to MWAY's per-thread run count.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "sort/bitonic.h"
#include "sort/kernels.h"
#include "sort/multiway_merge.h"
#include "util/rng.h"

namespace {

using namespace mmjoin;

// Tuples per sorted run, as MWAY generates them.
constexpr std::size_t kRunSize = std::size_t{1} << 15;

std::vector<uint64_t> RandomPacked(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> data(n);
  for (auto& v : data) v = rng.Next();
  return data;
}

// Kernel set by benchmark argument: 0 scalar, 1 AVX-512 (skipped where the
// host lacks it).
const sort::internal::Kernels* KernelsFor(benchmark::State& state) {
  if (state.range(0) == 0) return &sort::internal::ScalarKernels();
  if (sort::internal::Avx512Kernels() == nullptr) {
    state.SkipWithError("host lacks AVX-512F");
  }
  return sort::internal::Avx512Kernels();
}

void BM_MergeKernel(benchmark::State& state) {
  const sort::internal::Kernels* kernels = KernelsFor(state);
  if (kernels == nullptr) return;
  const std::size_t n = state.range(1);
  auto a = RandomPacked(n, 1);
  auto b = RandomPacked(n, 2);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<uint64_t> out(2 * n);
  for (auto _ : state) {
    kernels->merge(a.data(), n, b.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_MergeKernel)
    ->ArgNames({"avx512", "n"})
    ->ArgsProduct({{0, 1}, {1 << 12, 1 << 16, 1 << 20}});

void BM_StdMerge(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto a = RandomPacked(n, 1);
  auto b = RandomPacked(n, 2);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<uint64_t> out(2 * n);
  for (auto _ : state) {
    std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_StdMerge)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// Run generation: one MWAY run sorted from scratch, per kernel set.
void BM_RunGeneration(benchmark::State& state) {
  const sort::internal::Kernels* kernels = KernelsFor(state);
  if (kernels == nullptr) return;
  const auto original = RandomPacked(kRunSize, 3);
  std::vector<uint64_t> data(kRunSize), out(kRunSize);
  for (auto _ : state) {
    std::copy(original.begin(), original.end(), data.begin());
    sort::internal::SortPacked(*kernels, data.data(), kRunSize, out.data(),
                               data.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRunSize);
}
BENCHMARK(BM_RunGeneration)->ArgName("avx512")->Arg(0)->Arg(1);

void BM_MergeSortPacked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const auto original = RandomPacked(n, 3);
  std::vector<uint64_t> data(n), scratch(n);
  for (auto _ : state) {
    std::copy(original.begin(), original.end(), data.begin());
    sort::MergeSortPacked(data.data(), n, scratch.data());
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MergeSortPacked)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 20);

void BM_StdSortPacked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const auto original = RandomPacked(n, 3);
  std::vector<uint64_t> data(n);
  for (auto _ : state) {
    std::copy(original.begin(), original.end(), data.begin());
    std::sort(data.begin(), data.end());
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StdSortPacked)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 20);

// K runs of kRunSize tuples; K = 640 is MWAY's per-thread run count on the
// 2-thread, 46M-tuple join (23M tuples per partition).
void BM_MultiwayMerge(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<uint64_t> storage = RandomPacked(kRunSize * k, 10);
  std::vector<sort::SortedRun> runs;
  for (int r = 0; r < k; ++r) {
    uint64_t* run = storage.data() + kRunSize * r;
    std::sort(run, run + kRunSize);
    runs.push_back(sort::SortedRun{run, kRunSize});
  }
  std::vector<uint64_t> out(kRunSize * k);
  for (auto _ : state) {
    sort::MultiwayMerge(runs, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRunSize * k);
}
BENCHMARK(BM_MultiwayMerge)
    ->Arg(2)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(640)
    ->Unit(benchmark::kMillisecond);

}  // namespace
