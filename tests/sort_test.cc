// Tests for the sort-merge substrate: the per-ISA block-sort and 2-way
// merge kernels (AVX-512 and scalar, compared against each other and
// against std::sort), packed merge sort, and the multiway merge tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sort/bitonic.h"
#include "sort/kernels.h"
#include "sort/multiway_merge.h"
#include "util/rng.h"
#include "util/types.h"

namespace mmjoin::sort {
namespace {

constexpr uint64_t kMax = ~uint64_t{0};

struct KernelSet {
  std::string name;
  const internal::Kernels* kernels;
};

// Every kernel set this host can run: scalar always, AVX-512 where cpuid
// has it.
std::vector<KernelSet> KernelSets() {
  std::vector<KernelSet> sets = {{"scalar", &internal::ScalarKernels()}};
  if (internal::Avx512Kernels() != nullptr) {
    sets.push_back({"avx512", internal::Avx512Kernels()});
  }
  return sets;
}

std::vector<uint64_t> RandomPacked(std::size_t n, uint64_t seed,
                                   bool full_range = false) {
  Rng rng(seed);
  std::vector<uint64_t> data(n);
  for (auto& v : data) {
    // Keys below kEmptyKey; optionally exercise the full 32-bit key range
    // (top-bit handling in the unsigned SIMD compares).
    const uint32_t key =
        full_range ? static_cast<uint32_t>(rng.NextBelow(0xFFFFFFFFull))
                   : static_cast<uint32_t>(rng.NextBelow(1u << 20));
    v = PackTuple(Tuple{key, static_cast<uint32_t>(rng.Next())});
  }
  return data;
}

// Input patterns for the kernel comparisons, each of length n.
std::vector<std::pair<std::string, std::vector<uint64_t>>> Patterns(
    std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, std::vector<uint64_t>>> patterns;
  patterns.emplace_back("random", RandomPacked(n, seed, true));
  std::vector<uint64_t> dups(n);
  for (auto& v : dups) v = rng.NextBelow(5) << 32;
  patterns.emplace_back("duplicates", dups);
  patterns.emplace_back("all-equal", std::vector<uint64_t>(n, 42));
  std::vector<uint64_t> extremes(n);
  for (auto& v : extremes) {
    const uint64_t pick = rng.NextBelow(4);
    v = pick == 0 ? 0 : pick == 1 ? kMax : pick == 2 ? kMax - 1 : rng.Next();
  }
  patterns.emplace_back("zero-and-max", extremes);
  patterns.emplace_back("all-max", std::vector<uint64_t>(n, kMax));
  std::vector<uint64_t> sorted = RandomPacked(n, seed + 1, true);
  std::sort(sorted.begin(), sorted.end());
  patterns.emplace_back("sorted", sorted);
  std::reverse(sorted.begin(), sorted.end());
  patterns.emplace_back("reversed", sorted);
  return patterns;
}

// Sizes 0..300 cover every block remainder (not only multiples of 8 or 16)
// and the first few bottom-up merge passes.
TEST(SortKernels, EverySetMatchesStdSortOnSmallSizes) {
  for (std::size_t n = 0; n <= 300; ++n) {
    for (const auto& [pattern, input] : Patterns(n, 1000 + n)) {
      std::vector<uint64_t> expected = input;
      std::sort(expected.begin(), expected.end());
      for (const KernelSet& set : KernelSets()) {
        std::vector<uint64_t> out(n, 7), tmp(n, 7);
        internal::SortPacked(*set.kernels, input.data(), n, out.data(),
                             tmp.data());
        ASSERT_EQ(out, expected)
            << set.name << " n=" << n << " pattern=" << pattern;
      }
    }
  }
}

// Sorting in place (in == out) and into the scratch's twin (in == tmp) must
// give the same result as a separate output.
TEST(SortKernels, AliasedInputs) {
  for (const KernelSet& set : KernelSets()) {
    for (const std::size_t n : {1, 63, 64, 65, 200, 4097}) {
      const std::vector<uint64_t> input = RandomPacked(n, n, true);
      std::vector<uint64_t> expected = input;
      std::sort(expected.begin(), expected.end());

      std::vector<uint64_t> data = input, tmp(n);
      internal::SortPacked(*set.kernels, data.data(), n, data.data(),
                           tmp.data());
      EXPECT_EQ(data, expected) << set.name << " in==out n=" << n;

      data = input;
      std::vector<uint64_t> out(n);
      internal::SortPacked(*set.kernels, data.data(), n, out.data(),
                           data.data());
      EXPECT_EQ(out, expected) << set.name << " in==tmp n=" << n;
    }
  }
}

TEST(MergeKernel, AgainstStdMerge) {
  for (const KernelSet& set : KernelSets()) {
    Rng rng(1);
    for (const auto& [na, nb] : std::vector<std::pair<int, int>>{
             {0, 0}, {1, 0}, {0, 1}, {1, 1}, {4, 4}, {5, 3}, {7, 9},
             {8, 8}, {16, 16}, {100, 7}, {3, 300}, {1000, 1000},
             {1023, 4096}}) {
      std::vector<uint64_t> a(na), b(nb);
      for (auto& v : a) v = rng.Next();
      for (auto& v : b) v = rng.Next();
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());

      std::vector<uint64_t> expected(na + nb);
      std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());

      // Guard words after the output catch writes past its end.
      std::vector<uint64_t> actual(na + nb + 16, 5);
      set.kernels->merge(a.data(), a.size(), b.data(), b.size(),
                         actual.data());
      EXPECT_TRUE(std::all_of(actual.begin() + na + nb, actual.end(),
                              [](uint64_t v) { return v == 5; }))
          << set.name << " wrote past the output, na=" << na
          << " nb=" << nb;
      actual.resize(na + nb);
      ASSERT_EQ(actual, expected)
          << set.name << " na=" << na << " nb=" << nb;
    }
  }
}

// Values with the top bit set order above the rest: the compares are
// unsigned, with no sign bias.
TEST(MergeKernel, TopBitValues) {
  const std::vector<uint64_t> a = {1, 50, uint64_t{1} << 63, kMax - 5};
  const std::vector<uint64_t> b = {0, 25, 75, (uint64_t{1} << 63) + 1,
                                   kMax};
  for (const KernelSet& set : KernelSets()) {
    std::vector<uint64_t> out(a.size() + b.size());
    set.kernels->merge(a.data(), a.size(), b.data(), b.size(), out.data());
    EXPECT_EQ(out, (std::vector<uint64_t>{0, 1, 25, 50, 75, uint64_t{1} << 63,
                                          (uint64_t{1} << 63) + 1, kMax - 5,
                                          kMax}))
        << set.name;
  }
}

TEST(MergeKernel, DuplicateHeavy) {
  for (const KernelSet& set : KernelSets()) {
    std::vector<uint64_t> a(64, 7), b(64, 7);
    a[63] = 8;
    std::vector<uint64_t> out(128);
    set.kernels->merge(a.data(), a.size(), b.data(), b.size(), out.data());
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end())) << set.name;
    EXPECT_EQ(std::count(out.begin(), out.end(), 7), 127) << set.name;
  }
}

TEST(MergeKernel, AvxMatchesScalarOnRandomSplits) {
  const internal::Kernels* avx = internal::Avx512Kernels();
  if (avx == nullptr) GTEST_SKIP() << "host lacks AVX-512F";
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t na = rng.NextBelow(300);
    const std::size_t nb = rng.NextBelow(300);
    const uint64_t domain = 1 + rng.NextBelow(64);
    std::vector<uint64_t> a(na), b(nb);
    for (auto& v : a) v = kMax - rng.NextBelow(domain);
    for (auto& v : b) v = kMax - rng.NextBelow(domain);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<uint64_t> scalar(na + nb), simd(na + nb);
    internal::ScalarKernels().merge(a.data(), na, b.data(), nb,
                                    scalar.data());
    avx->merge(a.data(), na, b.data(), nb, simd.data());
    ASSERT_EQ(simd, scalar) << "na=" << na << " nb=" << nb;
  }
}

class MergeSortPackedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergeSortPackedTest, SortsLikeStdSort) {
  const std::size_t n = GetParam();
  std::vector<uint64_t> data = RandomPacked(n, 17 + n);
  std::vector<uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());

  std::vector<uint64_t> scratch(n);
  MergeSortPacked(data.data(), n, scratch.data());
  EXPECT_EQ(data, expected);
  EXPECT_TRUE(IsSortedPacked(data.data(), n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MergeSortPackedTest,
                         ::testing::Values(0, 1, 2, 15, 16, 63, 64, 65, 127,
                                           1000, 4096, 65537));

TEST(MergeSortPacked, FullKeyRangeUnsignedOrder) {
  // Keys with the top bit set must sort above keys without it.
  std::vector<uint64_t> data = RandomPacked(4096, 23, /*full_range=*/true);
  std::vector<uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> scratch(data.size());
  MergeSortPacked(data.data(), data.size(), scratch.data());
  EXPECT_EQ(data, expected);
}

TEST(MergeSortPacked, AlreadySortedAndReversed) {
  std::vector<uint64_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = i * 3;
  std::vector<uint64_t> scratch(data.size());
  MergeSortPacked(data.data(), data.size(), scratch.data());
  EXPECT_TRUE(IsSortedPacked(data.data(), data.size()));

  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (data.size() - i) * 3;
  }
  MergeSortPacked(data.data(), data.size(), scratch.data());
  EXPECT_TRUE(IsSortedPacked(data.data(), data.size()));
}

TEST(SortPackedInto, LeavesTheInputForScratch) {
  std::vector<uint64_t> data = RandomPacked(100000, 29, true);
  std::vector<uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> out(data.size());
  SortPackedInto(data.data(), data.size(), out.data(), data.data());
  EXPECT_EQ(out, expected);
}

TEST(MultiwayMerge, SingleRunIsCopy) {
  std::vector<uint64_t> run = {1, 2, 3, 4, 5};
  std::vector<uint64_t> out(5);
  const SortedRun runs[] = {{run.data(), run.size()}};
  MultiwayMerge(std::span<const SortedRun>(runs, 1), out.data());
  EXPECT_EQ(out, run);
}

TEST(MultiwayMerge, TwoRunsUseSimdKernel) {
  std::vector<uint64_t> a = RandomPacked(1000, 31);
  std::vector<uint64_t> b = RandomPacked(777, 32);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<uint64_t> expected;
  expected.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(expected));
  std::vector<uint64_t> out(a.size() + b.size());
  const SortedRun runs[] = {{a.data(), a.size()}, {b.data(), b.size()}};
  MultiwayMerge(std::span<const SortedRun>(runs, 2), out.data());
  EXPECT_EQ(out, expected);
}

class MultiwayMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiwayMergeTest, ManyRunsAgainstStdSort) {
  const int k = GetParam();
  Rng rng(100 + k);
  std::vector<std::vector<uint64_t>> run_storage(k);
  std::vector<SortedRun> runs;
  std::vector<uint64_t> expected;
  for (int r = 0; r < k; ++r) {
    run_storage[r] = RandomPacked(1 + rng.NextBelow(2000), 500 + r);
    std::sort(run_storage[r].begin(), run_storage[r].end());
    expected.insert(expected.end(), run_storage[r].begin(),
                    run_storage[r].end());
    runs.push_back(SortedRun{run_storage[r].data(), run_storage[r].size()});
  }
  std::sort(expected.begin(), expected.end());

  std::vector<uint64_t> out(expected.size());
  MultiwayMerge(runs, out.data());
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(Ks, MultiwayMergeTest,
                         ::testing::Values(3, 4, 5, 8, 16, 33));

// The merge tree on both kernel sets, with run counts from one run to more
// than MWAY's per-thread 640, mixing empty runs, 1-element runs, runs made
// only of ~0 and runs long enough to cycle the FIFOs many times.
TEST(MergeTree, RunShapesOnEveryKernelSet) {
  for (const int k : {1, 2, 3, 7, 640, 1000}) {
    Rng rng(7000 + k);
    std::vector<std::vector<uint64_t>> storage(k);
    std::vector<SortedRun> runs;
    std::vector<uint64_t> expected;
    for (int r = 0; r < k; ++r) {
      switch (rng.NextBelow(5)) {
        case 0:
          break;  // empty
        case 1:
          storage[r] = {rng.NextBelow(2) == 0 ? kMax : rng.Next()};
          break;
        case 2:
          storage[r].assign(1 + rng.NextBelow(40), kMax);
          break;
        default:
          storage[r] = RandomPacked(
              1 + rng.NextBelow(k < 100 ? 5000 : 300), 900 + r, true);
          // A few duplicates of the largest value on top.
          storage[r].push_back(kMax);
          break;
      }
      std::sort(storage[r].begin(), storage[r].end());
      expected.insert(expected.end(), storage[r].begin(), storage[r].end());
      runs.push_back(SortedRun{storage[r].data(), storage[r].size()});
    }
    std::sort(expected.begin(), expected.end());
    for (const KernelSet& set : KernelSets()) {
      std::vector<uint64_t> out(expected.size() + 8, 3);
      internal::MultiwayMerge(*set.kernels, runs, out.data());
      EXPECT_TRUE(std::all_of(out.end() - 8, out.end(),
                              [](uint64_t v) { return v == 3; }))
          << set.name << " k=" << k << " wrote past the output";
      out.resize(expected.size());
      ASSERT_EQ(out, expected) << set.name << " k=" << k;
    }
  }
}

TEST(MergeTree, AllRunsOnlyMax) {
  std::vector<std::vector<uint64_t>> storage(9);
  std::vector<SortedRun> runs;
  std::size_t total = 0;
  for (std::size_t r = 0; r < storage.size(); ++r) {
    storage[r].assign(r * 300, kMax);
    total += storage[r].size();
    runs.push_back(SortedRun{storage[r].data(), storage[r].size()});
  }
  for (const KernelSet& set : KernelSets()) {
    std::vector<uint64_t> out(total, 0);
    internal::MultiwayMerge(*set.kernels, runs, out.data());
    EXPECT_EQ(std::count(out.begin(), out.end(), kMax),
              static_cast<std::ptrdiff_t>(total))
        << set.name;
  }
}

TEST(MultiwayMerge, EmptyRunsMixedIn) {
  std::vector<uint64_t> a = {1, 5, 9};
  std::vector<uint64_t> b;
  std::vector<uint64_t> c = {2, 3};
  const SortedRun runs[] = {
      {a.data(), a.size()}, {b.data(), 0}, {c.data(), c.size()}};
  std::vector<uint64_t> out(5);
  MultiwayMerge(std::span<const SortedRun>(runs, 3), out.data());
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2, 3, 5, 9}));
}

// ~0 is also a legal packed tuple (key and payload 0xFFFFFFFF, possible on
// the probe side). Such tuples must come out in place, not end the merge
// early and leave the tail of the output unwritten.
TEST(MultiwayMerge, ValuesEqualToTheExhaustedRunMarker) {
  std::vector<uint64_t> a = {1, kMax};
  std::vector<uint64_t> b = {2};
  std::vector<uint64_t> c = {3, kMax, kMax};
  const SortedRun runs[] = {
      {a.data(), a.size()}, {b.data(), b.size()}, {c.data(), c.size()}};
  std::vector<uint64_t> out(6, 7);
  MultiwayMerge(std::span<const SortedRun>(runs, 3), out.data());
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2, 3, kMax, kMax, kMax}));
}

TEST(MultiwayMerge, ScratchBytesCoverTheFifos) {
  EXPECT_EQ(MultiwayMergeScratchBytes(1), 0u);
  EXPECT_EQ(MultiwayMergeScratchBytes(2), 0u);
  EXPECT_GT(MultiwayMergeScratchBytes(3), 0u);
  EXPECT_LT(MultiwayMergeScratchBytes(640), std::size_t{8} << 20);
}

// The block sort on 16 words: the network is exercised with 16 real lanes
// and 48 padding lanes.
TEST(SortNetwork16, SortsAllPermutationStressCases) {
  for (const KernelSet& set : KernelSets()) {
    Rng rng(77);
    for (int trial = 0; trial < 2000; ++trial) {
      uint64_t data[16];
      for (auto& v : data) v = rng.Next();
      uint64_t expected[16];
      std::copy(data, data + 16, expected);
      std::sort(expected, expected + 16);
      set.kernels->sort_block(data, 16, data);
      ASSERT_TRUE(std::equal(data, data + 16, expected))
          << set.name << " trial " << trial;
    }
  }
}

TEST(SortNetwork16, HandlesDuplicatesAndExtremes) {
  const uint64_t kTop = uint64_t{1} << 63;
  for (const KernelSet& set : KernelSets()) {
    uint64_t data[16] = {0, 0, kMax, kMax, kTop - 1, kTop, 5, 5,
                         5, 0, kTop - 1, kTop, 1, kMax, 0, 5};
    uint64_t expected[16];
    std::copy(data, data + 16, expected);
    std::sort(expected, expected + 16);
    set.kernels->sort_block(data, 16, data);
    EXPECT_TRUE(std::equal(data, data + 16, expected)) << set.name;
  }
}

TEST(SortNetwork16, AllZeroOneMasks) {
  // Exhaustive 0/1 inputs: a comparator network sorts all inputs iff it
  // sorts all zero-one sequences (the 0-1 principle); here every 0/1
  // pattern of the first 16 lanes.
  for (const KernelSet& set : KernelSets()) {
    for (uint32_t mask = 0; mask < (1u << 16); ++mask) {
      uint64_t data[16];
      int ones = 0;
      for (int i = 0; i < 16; ++i) {
        data[i] = (mask >> i) & 1;
        ones += static_cast<int>(data[i]);
      }
      set.kernels->sort_block(data, 16, data);
      for (int i = 0; i < 16; ++i) {
        ASSERT_EQ(data[i], i >= 16 - ones ? 1u : 0u)
            << set.name << " mask=" << mask;
      }
    }
  }
}

// Full 64-word blocks, random over a duplicate-heavy and a wide domain.
TEST(SortNetwork64, FullBlocks) {
  for (const KernelSet& set : KernelSets()) {
    Rng rng(5);
    for (int trial = 0; trial < 3000; ++trial) {
      uint64_t data[64];
      for (auto& v : data) v = rng.NextBelow(trial % 2 == 0 ? 4 : 1u << 30);
      uint64_t expected[64];
      std::copy(data, data + 64, expected);
      std::sort(expected, expected + 64);
      set.kernels->sort_block(data, 64, data);
      ASSERT_TRUE(std::equal(data, data + 64, expected))
          << set.name << " trial " << trial;
    }
  }
}

TEST(Simd, HasSimdMergeMatchesCpuid) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_EQ(HasSimdMerge(), __builtin_cpu_supports("avx512f") != 0);
#else
  EXPECT_FALSE(HasSimdMerge());
#endif
}

}  // namespace
}  // namespace mmjoin::sort
