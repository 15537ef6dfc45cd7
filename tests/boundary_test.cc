// Boundary-condition tests: extreme key values, single-tuple relations,
// direct exercise of the parallel CHT build protocol, and chunk-boundary
// exactness of the NUMA placements.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/joiner.h"
#include "hash/concise_table.h"
#include "join/join_algorithm.h"
#include "join/reference.h"
#include "numa/system.h"
#include "thread/thread_team.h"
#include "util/status.h"
#include "workload/generator.h"
#include "workload/relation.h"

namespace mmjoin {
namespace {

numa::NumaSystem* System() {
  static auto* system = new numa::NumaSystem(4);
  return system;
}

// Keys at the top of the representable range (kEmptyKey - 1 is the largest
// legal key) must work in every algorithm: they stress the sign-bit
// handling of the SIMD sort, hash masking, and partition functions.
TEST(Boundary, MaxLegalKeysJoinEverywhere) {
  workload::Relation build(System(), 3);
  build.data()[0] = Tuple{kEmptyKey - 1, 1};
  build.data()[1] = Tuple{kEmptyKey - 2, 2};
  build.data()[2] = Tuple{0, 3};
  build.set_key_domain(kEmptyKey);  // sparse: domain = 2^32 - 1

  workload::Relation probe(System(), 6);
  probe.data()[0] = Tuple{kEmptyKey - 1, 10};
  probe.data()[1] = Tuple{kEmptyKey - 2, 20};
  probe.data()[2] = Tuple{0, 30};
  probe.data()[3] = Tuple{kEmptyKey - 1, 40};
  probe.data()[4] = Tuple{1, 50};           // miss
  probe.data()[5] = Tuple{kEmptyKey - 3, 60};  // miss
  probe.set_key_domain(kEmptyKey);

  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());
  EXPECT_EQ(expected.matches, 4u);

  join::JoinConfig config;
  config.num_threads = 2;
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    // Array joins over a 2^32-wide domain would need a 4 GB table; the
    // registry marks them dense-only, so skip as a planner would.
    if (join::InfoOf(algorithm).requires_dense_keys) continue;
    const join::JoinResult result =
        join::RunJoin(algorithm, System(), config, build, probe).value();
    EXPECT_EQ(result.matches, expected.matches) << join::NameOf(algorithm);
    EXPECT_EQ(result.checksum, expected.checksum)
        << join::NameOf(algorithm);
  }
}

// kEmptyKey is the hash tables' empty-slot marker, so a build key equal to
// it is outside the input contract: every algorithm rejects it before
// touching a table (release NOP, PRL and CPRL used to drop its matches).
// Probe keys may take any value.
TEST(Boundary, SentinelBuildKeyIsRejectedEverywhere) {
  workload::Relation build(System(), 4);
  build.data()[0] = Tuple{1, 10};
  build.data()[1] = Tuple{kEmptyKey, 20};
  build.data()[2] = Tuple{2, 30};
  build.data()[3] = Tuple{3, 40};
  workload::Relation probe(System(), 2);
  probe.data()[0] = Tuple{kEmptyKey, 1};
  probe.data()[1] = Tuple{1, 2};

  join::JoinConfig config;
  config.num_threads = 2;
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const auto via_run_join =
        join::RunJoin(algorithm, System(), config, build, probe);
    ASSERT_FALSE(via_run_join.ok()) << join::NameOf(algorithm);
    EXPECT_EQ(via_run_join.status().code(), StatusCode::kInvalidArgument)
        << join::NameOf(algorithm);
    EXPECT_NE(via_run_join.status().message().find("0xFFFFFFFF"),
              std::string::npos)
        << via_run_join.status().ToString();

    const auto direct = join::CreateJoin(algorithm)->Run(
        System(), config, build.cspan(), probe.cspan());
    EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument)
        << join::NameOf(algorithm);
  }

  // Only the build side is constrained.
  workload::Relation clean(System(), 2);
  clean.data()[0] = Tuple{1, 10};
  clean.data()[1] = Tuple{2, 30};
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const auto result =
        join::RunJoin(algorithm, System(), config, clean, probe);
    ASSERT_TRUE(result.ok()) << join::NameOf(algorithm) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->matches, 1u) << join::NameOf(algorithm);
  }
}

// Array tables are sized from the observed key range, never from the
// relation's declared key domain: a domain declared too small must neither
// write out of bounds nor lose matches.
TEST(Boundary, ArrayJoinsIgnoreAnUndersizedDeclaredDomain) {
  workload::Relation build =
      workload::MakeDenseBuild(System(), 4096, /*seed=*/11).value();
  build.set_key_domain(16);
  const workload::Relation probe =
      workload::MakeProbeFromBuild(System(), 16384, build, /*seed=*/12)
          .value();
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());

  join::JoinConfig config;
  config.num_threads = 4;
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const auto result =
        join::RunJoin(algorithm, System(), config, build, probe);
    ASSERT_TRUE(result.ok()) << join::NameOf(algorithm) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->matches, expected.matches) << join::NameOf(algorithm);
    EXPECT_EQ(result->checksum, expected.checksum)
        << join::NameOf(algorithm);
    EXPECT_EQ(result->key_shape.stripped_domain(), 4096u)
        << join::NameOf(algorithm);
  }
}

// High-bits-only keys 2^31 + i * 2^8 vary in neither their low bits nor
// their top bit. Every algorithm -- the array joins included, which
// MaxLegalKeysJoinEverywhere has to skip -- strips the offset and the
// shared low bits and joins them like dense keys. Probes off the stride,
// below the smallest and above the largest build key must miss.
TEST(Boundary, HighBitsOnlyKeysJoinEverywhere) {
  constexpr uint64_t kBuild = 4096;
  constexpr uint32_t kBase = uint32_t{1} << 31;
  workload::Relation build(System(), kBuild);
  for (uint64_t i = 0; i < kBuild; ++i) {
    build.data()[i] = Tuple{kBase + static_cast<uint32_t>(i << 8),
                            static_cast<uint32_t>(i)};
  }
  workload::Relation probe(System(), 4 * kBuild);
  for (uint64_t i = 0; i < probe.size(); ++i) {
    const uint32_t on_stride =
        kBase + static_cast<uint32_t>(((i * 7919) % kBuild) << 8);
    uint32_t key = on_stride;                      // hit
    if (i % 4 == 1) key = on_stride + 1;           // off the stride
    if (i % 4 == 2) key = on_stride - kBase;       // below the base
    if (i % 8 == 3) key = kBase + (kBuild << 8);   // past the maximum
    probe.data()[i] = Tuple{key, static_cast<uint32_t>(i)};
  }
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());
  ASSERT_GT(expected.matches, 0u);
  ASSERT_LT(expected.matches, probe.size());

  join::JoinConfig config;
  config.num_threads = 4;
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const auto result =
        join::RunJoin(algorithm, System(), config, build, probe);
    ASSERT_TRUE(result.ok()) << join::NameOf(algorithm) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->matches, expected.matches) << join::NameOf(algorithm);
    EXPECT_EQ(result->checksum, expected.checksum)
        << join::NameOf(algorithm);
    EXPECT_EQ(result->key_shape.base, kBase);
    EXPECT_EQ(result->key_shape.shift, 8u);
    EXPECT_EQ(result->key_shape.stripped_domain(), kBuild);
  }
}

TEST(Boundary, EmptyRelationsYieldZeroMatches) {
  Tuple one{5, 50};
  join::JoinConfig config;
  config.num_threads = 4;
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const auto join = join::CreateJoin(algorithm);
    const join::JoinResult empty_probe =
        join->Run(System(), config, ConstTupleSpan(&one, 1),
                  ConstTupleSpan(&one, 0)).value();
    const join::JoinResult empty_build =
        join->Run(System(), config, ConstTupleSpan(&one, 0),
                  ConstTupleSpan(&one, 1)).value();
    const join::JoinResult both_empty =
        join->Run(System(), config, ConstTupleSpan(&one, 0),
                  ConstTupleSpan(&one, 0)).value();
    EXPECT_EQ(empty_probe.matches, 0u) << join::NameOf(algorithm);
    EXPECT_EQ(empty_build.matches, 0u) << join::NameOf(algorithm);
    EXPECT_EQ(both_empty.matches, 0u) << join::NameOf(algorithm);
    EXPECT_EQ(both_empty.checksum, 0u) << join::NameOf(algorithm);
  }
}

TEST(Boundary, SingleTupleRelations) {
  workload::Relation build(System(), 1);
  build.data()[0] = Tuple{7, 70};
  build.set_key_domain(8);
  workload::Relation probe(System(), 1);
  probe.data()[0] = Tuple{7, 700};
  probe.set_key_domain(8);

  join::JoinConfig config;
  config.num_threads = 4;  // more threads than tuples
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const join::JoinResult result =
        join::RunJoin(algorithm, System(), config, build, probe).value();
    EXPECT_EQ(result.matches, 1u) << join::NameOf(algorithm);
    EXPECT_EQ(result.checksum, 770u) << join::NameOf(algorithm);
  }
}

// The same degenerate shapes must also survive the full public entry point
// (validation, failpoint checks, executor dispatch) -- not just the raw
// algorithm objects the spans above exercise.
TEST(Boundary, JoinerHandlesEmptyAndSingleTupleRelations) {
  core::Joiner joiner;
  workload::Relation empty(joiner.system(), 0);
  empty.set_key_domain(8);
  workload::Relation single(joiner.system(), 1);
  single.data()[0] = Tuple{3, 30};
  single.set_key_domain(8);

  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const auto no_build = joiner.Run(algorithm, empty, single);
    ASSERT_TRUE(no_build.ok()) << join::NameOf(algorithm) << ": "
                               << no_build.status().ToString();
    EXPECT_EQ(no_build.value().matches, 0u) << join::NameOf(algorithm);

    const auto no_probe = joiner.Run(algorithm, single, empty);
    ASSERT_TRUE(no_probe.ok()) << join::NameOf(algorithm) << ": "
                               << no_probe.status().ToString();
    EXPECT_EQ(no_probe.value().matches, 0u) << join::NameOf(algorithm);

    const auto both = joiner.Run(algorithm, single, single);
    ASSERT_TRUE(both.ok()) << join::NameOf(algorithm) << ": "
                           << both.status().ToString();
    EXPECT_EQ(both.value().matches, 1u) << join::NameOf(algorithm);
    EXPECT_EQ(both.value().checksum, 60u) << join::NameOf(algorithm);
  }
}

// A build side that is one giant duplicate group (every key equal) is the
// worst case for chaining and probe termination. Array joins keep one tuple
// per key, so they reject it with InvalidArgument instead of answering.
TEST(Boundary, JoinerHandlesAllDuplicateBuildKeys) {
  constexpr uint64_t kBuild = 64;
  constexpr uint64_t kProbe = 256;
  core::Joiner joiner;
  workload::Relation build(joiner.system(), kBuild);
  workload::Relation probe(joiner.system(), kProbe);
  for (uint64_t i = 0; i < kBuild; ++i) {
    build.data()[i] = Tuple{7, static_cast<uint32_t>(i)};
  }
  for (uint64_t i = 0; i < kProbe; ++i) {
    probe.data()[i] = Tuple{7, static_cast<uint32_t>(i)};
  }
  build.set_key_domain(8);
  probe.set_key_domain(8);

  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());
  EXPECT_EQ(expected.matches, kBuild * kProbe);

  join::JoinConfig config;
  config.build_unique = false;
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const auto result = joiner.Run(algorithm, config, build, probe);
    if (join::InfoOf(algorithm).requires_dense_keys) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << join::NameOf(algorithm) << ": " << result.status().ToString();
      continue;
    }
    ASSERT_TRUE(result.ok()) << join::NameOf(algorithm) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result.value().matches, expected.matches)
        << join::NameOf(algorithm);
    EXPECT_EQ(result.value().checksum, expected.checksum)
        << join::NameOf(algorithm);
  }
}

// Memory-budget validation boundaries: zero and sub-minimum budgets are
// configuration errors (InvalidArgument, caught before any work), at both
// the per-join config and the Joiner-options level; the minimum itself is
// accepted.
TEST(Boundary, MemBudgetValidationLimits) {
  workload::Relation build(System(), 1024);
  workload::Relation probe(System(), 4096);
  for (uint64_t i = 0; i < build.size(); ++i) {
    build.data()[i] = Tuple{static_cast<uint32_t>(i),
                            static_cast<uint32_t>(i)};
  }
  for (uint64_t i = 0; i < probe.size(); ++i) {
    probe.data()[i] = Tuple{static_cast<uint32_t>(i % 1024),
                            static_cast<uint32_t>(i)};
  }
  build.set_key_domain(1024);
  probe.set_key_domain(1024);

  join::JoinConfig zero;
  zero.mem_budget_bytes = 0;
  EXPECT_EQ(join::RunJoin(join::Algorithm::kPRO, System(), zero, build, probe)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  join::JoinConfig tiny;
  tiny.mem_budget_bytes = join::JoinConfig::kMinMemBudgetBytes - 1;
  EXPECT_EQ(join::RunJoin(join::Algorithm::kPRO, System(), tiny, build, probe)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  join::JoinConfig minimum;
  minimum.mem_budget_bytes = join::JoinConfig::kMinMemBudgetBytes;
  EXPECT_TRUE(
      join::RunJoin(join::Algorithm::kPRO, System(), minimum, build, probe)
          .ok());

  core::JoinerOptions zero_opts;
  zero_opts.mem_budget_bytes = 0;
  EXPECT_EQ(core::Joiner::Create(zero_opts).status().code(),
            StatusCode::kInvalidArgument);

  core::JoinerOptions tiny_opts;
  tiny_opts.mem_budget_bytes = 1024;
  EXPECT_EQ(core::Joiner::Create(tiny_opts).status().code(),
            StatusCode::kInvalidArgument);

  core::JoinerOptions min_opts;
  min_opts.mem_budget_bytes = join::JoinConfig::kMinMemBudgetBytes;
  EXPECT_TRUE(core::Joiner::Create(min_opts).ok());
}

// Drives the CHT three-phase parallel build protocol directly (outside
// CHTJ): threads mark disjoint group-aligned regions, one thread
// finalizes, then parallel placement.
TEST(Boundary, ConciseTableParallelRegionBuild) {
  constexpr int kThreads = 4;
  constexpr uint64_t kTuples = 32768;
  hash::ConciseHashTable table(System(), kTuples, numa::Placement::kLocal);

  // Pre-partition tuples by bucket region (identity hash: key == bucket
  // for keys < num_buckets).
  const uint64_t buckets = table.num_buckets();
  std::vector<std::vector<Tuple>> by_region(kThreads);
  for (uint64_t k = 0; k < kTuples; ++k) {
    // Spread keys over the full bucket range so every region is hit.
    const uint32_t key = static_cast<uint32_t>(k * (buckets / kTuples));
    for (int t = 0; t < kThreads; ++t) {
      const auto region = table.RegionForThread(t, kThreads);
      if (key >= region.begin_bucket && key < region.end_bucket) {
        by_region[t].push_back(Tuple{key, static_cast<uint32_t>(k)});
        break;
      }
    }
  }

  std::vector<std::vector<uint64_t>> bucket_of(kThreads);
  std::vector<std::vector<Tuple>> overflow(kThreads);
  thread::Barrier barrier(kThreads);
  thread::RunTeam(kThreads, [&](int tid) {
    bucket_of[tid].resize(by_region[tid].size());
    table.MarkBits(
        ConstTupleSpan(by_region[tid].data(), by_region[tid].size()),
        table.RegionForThread(tid, kThreads), bucket_of[tid].data(),
        &overflow[tid]);
    barrier.ArriveAndWait();
    if (tid == 0) {
      table.FinalizePrefix();
      std::vector<Tuple> merged;
      for (const auto& of : overflow) {
        merged.insert(merged.end(), of.begin(), of.end());
      }
      table.SetOverflow(std::move(merged));
    }
    barrier.ArriveAndWait();
    table.Place(ConstTupleSpan(by_region[tid].data(), by_region[tid].size()),
                bucket_of[tid].data());
  });

  for (int t = 0; t < kThreads; ++t) {
    for (const Tuple& tuple : by_region[t]) {
      uint32_t payload = ~0u;
      ASSERT_EQ(table.ProbeUnique(tuple.key,
                                  [&](Tuple found) {
                                    payload = found.payload;
                                  }),
                1u)
          << "key " << tuple.key;
      ASSERT_EQ(payload, tuple.payload);
    }
  }
}

TEST(Boundary, ChunkedPlacementBoundariesExact) {
  numa::Topology topo(4);
  const std::size_t total = 4096;  // chunk = 1024
  EXPECT_EQ(topo.NodeOfOffset(numa::Placement::kChunkedRoundRobin, 0, 1023,
                              total),
            0);
  EXPECT_EQ(topo.NodeOfOffset(numa::Placement::kChunkedRoundRobin, 0, 1024,
                              total),
            1);
  EXPECT_EQ(topo.NodeOfOffset(numa::Placement::kChunkedRoundRobin, 0, 4095,
                              total),
            3);
  // Non-divisible total: ceil-chunking keeps every offset in range.
  const std::size_t odd_total = 4097;  // chunk = 1025
  for (std::size_t off = 0; off < odd_total; off += 7) {
    const int node = topo.NodeOfOffset(numa::Placement::kChunkedRoundRobin,
                                       0, off, odd_total);
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 4);
  }
}

}  // namespace
}  // namespace mmjoin
