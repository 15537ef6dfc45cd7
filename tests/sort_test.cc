// Tests for the sort-merge substrate: SIMD bitonic merge kernels, packed
// merge sort, and the multiway (loser tree) merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <vector>

#include "sort/bitonic.h"
#include "sort/multiway_merge.h"
#include "util/rng.h"
#include "util/types.h"

namespace mmjoin::sort {
namespace {

std::vector<uint64_t> RandomPacked(std::size_t n, uint64_t seed,
                                   bool full_range = false) {
  Rng rng(seed);
  std::vector<uint64_t> data(n);
  for (auto& v : data) {
    // Keys below kEmptyKey; optionally exercise the full 32-bit key range
    // (sign-bit handling in the SIMD kernels).
    const uint32_t key =
        full_range ? static_cast<uint32_t>(rng.NextBelow(0xFFFFFFFFull))
                   : static_cast<uint32_t>(rng.NextBelow(1u << 20));
    v = PackTuple(Tuple{key, static_cast<uint32_t>(rng.Next())});
  }
  return data;
}

TEST(MergeSignedRuns, AgainstStdMerge) {
  Rng rng(1);
  for (const auto [na, nb] : std::vector<std::pair<int, int>>{
           {0, 0}, {1, 0}, {0, 1}, {1, 1}, {4, 4}, {5, 3},
           {16, 16}, {100, 7}, {1000, 1000}, {1023, 4096}}) {
    std::vector<int64_t> a(na), b(nb);
    for (auto& v : a) v = static_cast<int64_t>(rng.Next());
    for (auto& v : b) v = static_cast<int64_t>(rng.Next());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    std::vector<int64_t> expected(na + nb);
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());

    std::vector<int64_t> actual(na + nb);
    MergeSignedRuns(a.data(), a.size(), b.data(), b.size(), actual.data());
    ASSERT_EQ(actual, expected) << "na=" << na << " nb=" << nb;
  }
}

TEST(MergeSignedRuns, NegativeValues) {
  std::vector<int64_t> a = {-100, -50, 0, 50};
  std::vector<int64_t> b = {-75, -25, 25, 75, 100};
  std::vector<int64_t> out(9);
  MergeSignedRuns(a.data(), a.size(), b.data(), b.size(), out.data());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(MergeSignedRuns, DuplicateHeavy) {
  std::vector<int64_t> a(64, 7), b(64, 7);
  a[63] = 8;
  std::vector<int64_t> out(128);
  MergeSignedRuns(a.data(), a.size(), b.data(), b.size(), out.data());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(std::count(out.begin(), out.end(), 7), 127);
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
  // Keys with the top bit set must sort above keys without it (unsigned
  // semantics despite the signed SIMD compares).
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

// The loser tree marks exhausted runs with ~0, which is also a legal packed
// tuple (key and payload 0xFFFFFFFF, possible on the probe side). Such
// tuples must come out in place, not end the merge early and leave the
// tail of the output unwritten.
TEST(MultiwayMerge, ValuesEqualToTheExhaustedRunMarker) {
  constexpr uint64_t kMax = ~uint64_t{0};
  std::vector<uint64_t> a = {1, kMax};
  std::vector<uint64_t> b = {2};
  std::vector<uint64_t> c = {3, kMax, kMax};
  const SortedRun runs[] = {
      {a.data(), a.size()}, {b.data(), b.size()}, {c.data(), c.size()}};
  std::vector<uint64_t> out(6, 7);
  MultiwayMerge(std::span<const SortedRun>(runs, 3), out.data());
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2, 3, kMax, kMax, kMax}));
}

TEST(SortNetwork16, SortsAllPermutationStressCases) {
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    int64_t data[16];
    for (auto& v : data) v = static_cast<int64_t>(rng.Next());
    int64_t expected[16];
    std::copy(data, data + 16, expected);
    std::sort(expected, expected + 16);
    SortNetwork16Signed(data);
    ASSERT_TRUE(std::equal(data, data + 16, expected)) << "trial " << trial;
  }
}

TEST(SortNetwork16, HandlesDuplicatesAndExtremes) {
  int64_t data[16] = {0, 0, -1, -1, INT64_MAX, INT64_MIN, 5, 5,
                      5, 0, INT64_MAX, INT64_MIN, 1, -1, 0, 5};
  int64_t expected[16];
  std::copy(data, data + 16, expected);
  std::sort(expected, expected + 16);
  SortNetwork16Signed(data);
  EXPECT_TRUE(std::equal(data, data + 16, expected));
}

TEST(SortNetwork16, AllZeroOneMasks) {
  // Exhaustive 0/1 inputs: a comparator network sorts all inputs iff it
  // sorts all 2^16 zero-one sequences (the 0-1 principle).
  for (uint32_t mask = 0; mask < (1u << 16); ++mask) {
    int64_t data[16];
    int ones = 0;
    for (int i = 0; i < 16; ++i) {
      data[i] = (mask >> i) & 1;
      ones += static_cast<int>(data[i]);
    }
    SortNetwork16Signed(data);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(data[i], i >= 16 - ones ? 1 : 0) << "mask=" << mask;
    }
  }
}

TEST(Simd, KernelAvailabilityMatchesBuild) {
#if defined(__AVX2__)
  EXPECT_TRUE(HasSimdMerge());
#else
  EXPECT_FALSE(HasSimdMerge());
#endif
}

}  // namespace
}  // namespace mmjoin::sort
