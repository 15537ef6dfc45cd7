// Cross-algorithm correctness tests: all thirteen joins must produce the
// exact same result as the single-threaded reference join on every workload
// class the paper evaluates (dense/uniform, 1:1 ratio, Zipf-skewed, sparse
// domains, tiny inputs), under varying thread counts, radix bits, and skew
// task splitting.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "join/join_algorithm.h"
#include "join/reference.h"
#include "numa/system.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mmjoin::join {
namespace {

numa::NumaSystem* System() {
  static auto* system = new numa::NumaSystem(4);
  return system;
}

void ExpectMatchesReference(Algorithm algorithm,
                            const workload::Relation& build,
                            const workload::Relation& probe,
                            const JoinConfig& config,
                            const std::string& context) {
  const JoinResult expected = ReferenceJoin(build.cspan(), probe.cspan());
  const JoinResult actual =
      RunJoin(algorithm, System(), config, build, probe).value();
  EXPECT_EQ(actual.matches, expected.matches)
      << NameOf(algorithm) << " " << context;
  EXPECT_EQ(actual.checksum, expected.checksum)
      << NameOf(algorithm) << " " << context;
  EXPECT_GT(actual.times.total_ns, 0);
}

class AllJoinsTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AllJoinsTest, DensePkUniformFk) {
  workload::Relation build = workload::MakeDenseBuild(System(), 20000, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 100000, 20000, 2).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "dense/uniform");
}

TEST_P(AllJoinsTest, EqualSizedRelations) {
  workload::Relation build = workload::MakeDenseBuild(System(), 30000, 3).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 30000, 30000, 4).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "1:1");
}

TEST_P(AllJoinsTest, SkewedProbeZipf099) {
  workload::Relation build = workload::MakeDenseBuild(System(), 16384, 5).value();
  workload::Relation probe =
      workload::MakeZipfProbe(System(), 100000, 16384, 0.99, 6).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "zipf 0.99");
}

TEST_P(AllJoinsTest, SkewedProbeWithAggressiveTaskSplitting) {
  workload::Relation build = workload::MakeDenseBuild(System(), 8192, 7).value();
  workload::Relation probe =
      workload::MakeZipfProbe(System(), 60000, 8192, 0.9, 8).value();
  JoinConfig config;
  config.num_threads = 4;
  config.skew_task_factor = 2;  // force many probe slices
  ExpectMatchesReference(GetParam(), build, probe, config, "skew slicing");
}

TEST_P(AllJoinsTest, SparseDomainHoles) {
  workload::Relation build = workload::MakeSparseBuild(System(), 10000, 7, 9).value();
  workload::Relation probe =
      workload::MakeProbeFromBuild(System(), 80000, build, 10).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "holes k=7");
}

TEST_P(AllJoinsTest, TinyInputs) {
  workload::Relation build = workload::MakeDenseBuild(System(), 10, 11).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 37, 10, 12).value();
  JoinConfig config;
  config.num_threads = 4;  // more threads than sensible for 10 tuples
  ExpectMatchesReference(GetParam(), build, probe, config, "tiny");
}

TEST_P(AllJoinsTest, SingleThread) {
  workload::Relation build = workload::MakeDenseBuild(System(), 5000, 13).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 25000, 5000, 14).value();
  JoinConfig config;
  config.num_threads = 1;
  ExpectMatchesReference(GetParam(), build, probe, config, "1 thread");
}

TEST_P(AllJoinsTest, NonPowerOfTwoThreads) {
  workload::Relation build = workload::MakeDenseBuild(System(), 12000, 15).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 60000, 12000, 16).value();
  JoinConfig config;
  config.num_threads = 7;
  ExpectMatchesReference(GetParam(), build, probe, config, "7 threads");
}

TEST_P(AllJoinsTest, ExplicitRadixBits) {
  workload::Relation build = workload::MakeDenseBuild(System(), 20000, 17).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 60000, 20000, 18).value();
  for (const uint32_t bits : {1u, 5u, 10u}) {
    JoinConfig config;
    config.num_threads = 4;
    config.radix_bits = bits;
    ExpectMatchesReference(GetParam(), build, probe, config,
                           "bits=" + std::to_string(bits));
  }
}

TEST_P(AllJoinsTest, ProbeSmallerThanBuild) {
  workload::Relation build = workload::MakeDenseBuild(System(), 20000, 19).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 1000, 20000, 20).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "small probe");
}

// Exact multiset of matched pairs via a MatchSink on a small input.
class PairCollectorSink final : public MatchSink {
 public:
  explicit PairCollectorSink(int num_threads) : pairs_(num_threads) {}
  void Consume(int tid, Tuple build, Tuple probe) override {
    pairs_[tid].emplace_back(build.payload, probe.payload);
  }
  std::vector<std::pair<uint32_t, uint32_t>> Sorted() const {
    std::vector<std::pair<uint32_t, uint32_t>> all;
    for (const auto& local : pairs_) {
      all.insert(all.end(), local.begin(), local.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

 private:
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> pairs_;
};

TEST_P(AllJoinsTest, MaterializedPairsExactlyMatchReference) {
  workload::Relation build = workload::MakeDenseBuild(System(), 3000, 21).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 9000, 3000, 22).value();
  const auto expected = ReferenceJoinPairs(build.cspan(), probe.cspan());

  PairCollectorSink sink(4);
  JoinConfig config;
  config.num_threads = 4;
  config.sink = &sink;
  RunJoin(GetParam(), System(), config, build, probe).value();
  EXPECT_EQ(sink.Sorted(), expected) << NameOf(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    All, AllJoinsTest, ::testing::ValuesIn(AllAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(NameOf(info.param));
    });

// --- Duplicate build keys (non-array algorithms only; array tables require
// unique keys by construction, as in the paper). ---------------------------

class DuplicateJoinsTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(DuplicateJoinsTest, DuplicateBuildKeys) {
  numa::NumaSystem* system = System();
  workload::Relation build(system, 10000);
  Rng rng(23);
  for (uint64_t i = 0; i < build.size(); ++i) {
    build.data()[i] = Tuple{static_cast<uint32_t>(rng.NextBelow(3000)),
                            static_cast<uint32_t>(i)};
  }
  build.set_key_domain(3000);
  workload::Relation probe =
      workload::MakeUniformProbe(system, 20000, 3000, 24).value();

  JoinConfig config;
  config.num_threads = 4;
  config.build_unique = false;
  ExpectMatchesReference(GetParam(), build, probe, config, "dup builds");
}

INSTANTIATE_TEST_SUITE_P(
    NonArray, DuplicateJoinsTest,
    ::testing::Values(Algorithm::kPRB, Algorithm::kNOP, Algorithm::kCHTJ,
                      Algorithm::kMWAY, Algorithm::kPRO, Algorithm::kPRL,
                      Algorithm::kCPRL, Algorithm::kPROiS,
                      Algorithm::kPRLiS),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(NameOf(info.param));
    });

// --- Registry metadata ------------------------------------------------------

TEST(Registry, ThirteenAlgorithms) {
  EXPECT_EQ(AllAlgorithms().size(), 13u);
}

TEST(Registry, NamesRoundTrip) {
  for (const Algorithm algorithm : AllAlgorithms()) {
    const auto parsed = AlgorithmFromName(NameOf(algorithm));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, algorithm);
  }
  EXPECT_FALSE(AlgorithmFromName("NOPE").has_value());
}

TEST(Registry, ClassTaxonomyMatchesPaperTable1) {
  EXPECT_EQ(InfoOf(Algorithm::kPRB).join_class, JoinClass::kPartitionBased);
  EXPECT_EQ(InfoOf(Algorithm::kNOP).join_class, JoinClass::kNoPartitioning);
  EXPECT_EQ(InfoOf(Algorithm::kCHTJ).join_class,
            JoinClass::kNoPartitioning);
  EXPECT_EQ(InfoOf(Algorithm::kMWAY).join_class, JoinClass::kSortMerge);
  EXPECT_EQ(InfoOf(Algorithm::kCPRL).join_class,
            JoinClass::kPartitionBased);
}

TEST(Registry, ArrayJoinsFlagDenseRequirement) {
  EXPECT_TRUE(InfoOf(Algorithm::kNOPA).requires_dense_keys);
  EXPECT_TRUE(InfoOf(Algorithm::kPRA).requires_dense_keys);
  EXPECT_TRUE(InfoOf(Algorithm::kCPRA).requires_dense_keys);
  EXPECT_TRUE(InfoOf(Algorithm::kPRAiS).requires_dense_keys);
  EXPECT_FALSE(InfoOf(Algorithm::kNOP).requires_dense_keys);
}

// --- Phase time sanity -------------------------------------------------------

TEST(PhaseTimes, PartitionJoinsReportPartitionPhase) {
  workload::Relation build = workload::MakeDenseBuild(System(), 50000, 25).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 200000, 50000, 26).value();
  JoinConfig config;
  config.num_threads = 4;
  for (const Algorithm algorithm :
       {Algorithm::kPRO, Algorithm::kCPRL, Algorithm::kPRB}) {
    const JoinResult result =
        RunJoin(algorithm, System(), config, build, probe).value();
    EXPECT_GT(result.times.partition_ns, 0) << NameOf(algorithm);
    EXPECT_GT(result.times.probe_ns, 0) << NameOf(algorithm);
    EXPECT_GE(result.times.total_ns,
              result.times.partition_ns + result.times.probe_ns - 1000000)
        << NameOf(algorithm);
  }
}

TEST(PhaseTimes, NopReportsBuildAndProbe) {
  workload::Relation build = workload::MakeDenseBuild(System(), 50000, 27).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 200000, 50000, 28).value();
  JoinConfig config;
  config.num_threads = 4;
  const JoinResult result =
      RunJoin(Algorithm::kNOP, System(), config, build, probe).value();
  EXPECT_GT(result.times.build_ns, 0);
  EXPECT_GT(result.times.probe_ns, 0);
  EXPECT_EQ(result.times.partition_ns, 0);
}

TEST(Throughput, UsesInputBasedDefinition) {
  JoinResult result;
  result.times.total_ns = 1'000'000'000;  // 1 s
  result.matches = 1;                     // output-insensitive
  EXPECT_DOUBLE_EQ(result.ThroughputMtps(600'000'000, 400'000'000), 1000.0);
}

// --- Key shape ---------------------------------------------------------------

KeyShape ShapeOf(const std::vector<uint32_t>& keys, int threads = 1) {
  std::vector<Tuple> tuples;
  for (const uint32_t key : keys) tuples.push_back(Tuple{key, 0});
  JoinConfig config;
  config.num_threads = threads;
  return ScanKeyShape(config, ConstTupleSpan(tuples.data(), tuples.size()))
      .value();
}

TEST(KeyShape, ScanFindsRangeAndSharedLowBits) {
  const KeyShape empty = ShapeOf({});
  EXPECT_EQ(empty.base, 0u);
  EXPECT_EQ(empty.shift, 0u);
  EXPECT_FALSE(empty.has_sentinel());

  const KeyShape single = ShapeOf({4096});
  EXPECT_EQ(single.base, 4096u);
  EXPECT_EQ(single.max, 4096u);
  EXPECT_EQ(single.shift, 0u);  // fewer than two distinct keys
  EXPECT_EQ(single.stripped_domain(), 1u);

  // 8, 24, 40 share their low four bits and step by 16.
  const KeyShape strided = ShapeOf({40, 8, 24});
  EXPECT_EQ(strided.base, 8u);
  EXPECT_EQ(strided.max, 40u);
  EXPECT_EQ(strided.shift, 4u);
  EXPECT_EQ(strided.stripped_domain(), 3u);

  const KeyShape dense = ShapeOf({3, 0, 2, 1});
  EXPECT_EQ(dense.base, 0u);
  EXPECT_EQ(dense.shift, 0u);
  EXPECT_EQ(dense.stripped_domain(), 4u);

  EXPECT_TRUE(ShapeOf({1, kEmptyKey}).has_sentinel());
  // The widest legal range: 2^32 - 1 cells.
  EXPECT_EQ(ShapeOf({0, 1, kEmptyKey - 1}).stripped_domain(),
            (uint64_t{1} << 32) - 1);
}

// Builds large enough to scan on the executor give the inline scan's
// answer.
TEST(KeyShape, ParallelScanMatchesInlineScan) {
  std::vector<uint32_t> keys;
  for (uint32_t i = 0; i < (1u << 20); ++i) keys.push_back((i << 3) | 5);
  std::swap(keys.front(), keys[keys.size() / 2]);
  const KeyShape inline_shape = ShapeOf(keys, /*threads=*/1);
  const KeyShape parallel_shape = ShapeOf(keys, /*threads=*/4);
  EXPECT_EQ(inline_shape.base, 5u);
  EXPECT_EQ(inline_shape.max, (((1u << 20) - 1) << 3) | 5);
  EXPECT_EQ(inline_shape.shift, 3u);
  EXPECT_EQ(parallel_shape.base, inline_shape.base);
  EXPECT_EQ(parallel_shape.max, inline_shape.max);
  EXPECT_EQ(parallel_shape.shift, inline_shape.shift);
}

// Dense keys from 0 keep the plan the joins had before the shape scan:
// nothing to strip.
TEST(KeyShape, DenseKeysAreReportedUnstripped) {
  const workload::Relation build =
      workload::MakeDenseBuild(System(), 5000, 31).value();
  const workload::Relation probe =
      workload::MakeUniformProbe(System(), 20000, 5000, 32).value();
  JoinConfig config;
  config.num_threads = 4;
  for (const Algorithm algorithm : AllAlgorithms()) {
    const JoinResult result =
        RunJoin(algorithm, System(), config, build, probe).value();
    EXPECT_EQ(result.key_shape.base, 0u) << NameOf(algorithm);
    EXPECT_EQ(result.key_shape.max, 4999u) << NameOf(algorithm);
    EXPECT_EQ(result.key_shape.shift, 0u) << NameOf(algorithm);
  }
}

}  // namespace
}  // namespace mmjoin::join
