// Randomized differential testing: many random workload configurations
// (sizes, domains, skew, duplicates, thread counts, radix bits) swept
// through all thirteen algorithms, each compared exactly against the
// reference join. Seeds are fixed, so failures are reproducible; the trial
// parameters are printed on mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>

#include "join/join_algorithm.h"
#include "join/reference.h"
#include "numa/system.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace mmjoin::join {
namespace {

struct TrialConfig {
  uint64_t build_size;
  uint64_t probe_size;
  uint64_t domain_factor;  // 1 = dense
  double zipf;
  bool duplicates;  // duplicate build keys (non-array algorithms only)
  int threads;
  uint32_t radix_bits;  // 0 = auto
  uint32_t skew_factor;

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "build=%llu probe=%llu domain_factor=%llu zipf=%.2f "
                  "dups=%d threads=%d bits=%u skew_factor=%u",
                  static_cast<unsigned long long>(build_size),
                  static_cast<unsigned long long>(probe_size),
                  static_cast<unsigned long long>(domain_factor), zipf,
                  duplicates ? 1 : 0, threads, radix_bits, skew_factor);
    return buf;
  }
};

TrialConfig RandomTrial(Rng* rng) {
  TrialConfig trial;
  trial.build_size = 1 + rng->NextBelow(30000);
  trial.probe_size = 1 + rng->NextBelow(120000);
  trial.domain_factor = 1 + rng->NextBelow(10);
  trial.zipf = rng->NextBelow(3) == 0
                   ? 0.0
                   : 0.3 + 0.69 * rng->NextDouble();
  trial.duplicates = rng->NextBelow(4) == 0;
  trial.threads = 1 + static_cast<int>(rng->NextBelow(8));
  trial.radix_bits =
      rng->NextBelow(3) == 0 ? 0
                             : 1 + static_cast<uint32_t>(rng->NextBelow(11));
  trial.skew_factor = rng->NextBelow(4) == 0
                          ? 0
                          : 1 + static_cast<uint32_t>(rng->NextBelow(16));
  return trial;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, RandomTrialBatch) {
  static numa::NumaSystem* system = new numa::NumaSystem(4);
  Rng rng(0xD1FFu + GetParam() * 1000003);

  constexpr int kTrialsPerBatch = 6;
  for (int t = 0; t < kTrialsPerBatch; ++t) {
    const TrialConfig trial = RandomTrial(&rng);

    workload::Relation build =
        trial.domain_factor > 1
            ? workload::MakeSparseBuild(system, trial.build_size,
                                        trial.domain_factor, rng.Next()).value()
            : workload::MakeDenseBuild(system, trial.build_size, rng.Next()).value();
    if (trial.duplicates) {
      // Overwrite some keys with repeats of other build keys.
      for (uint64_t i = 0; i < build.size(); i += 7) {
        build.data()[i].key =
            build.data()[rng.NextBelow(build.size())].key;
      }
    }
    workload::Relation probe =
        trial.zipf > 0.0 && trial.domain_factor == 1
            ? workload::MakeZipfProbe(system, trial.probe_size,
                                      trial.build_size, trial.zipf,
                                      rng.Next()).value()
            : workload::MakeProbeFromBuild(system, trial.probe_size, build,
                                           rng.Next()).value();

    const JoinResult expected = ReferenceJoin(build.cspan(), probe.cspan());

    JoinConfig config;
    config.num_threads = trial.threads;
    config.radix_bits = trial.radix_bits;
    config.skew_task_factor = trial.skew_factor;
    config.build_unique = !trial.duplicates;

    for (const Algorithm algorithm : AllAlgorithms()) {
      if (trial.duplicates && InfoOf(algorithm).requires_dense_keys) {
        continue;  // array tables require unique keys by construction
      }
      const JoinResult result =
          RunJoin(algorithm, system, config, build, probe).value();
      ASSERT_EQ(result.matches, expected.matches)
          << NameOf(algorithm) << " on " << trial.ToString();
      ASSERT_EQ(result.checksum, expected.checksum)
          << NameOf(algorithm) << " on " << trial.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, DifferentialTest, ::testing::Range(0, 8));

// Heavy-skew differential: Zipf theta = 1.25 (the regime of the paper's
// Fig 15 where most probe tuples hit a handful of partitions) with the skew
// splitter enabled, so every algorithm exercises probe-slice tasks, the
// shared skew build slots, and cross-node steals -- then must still match
// the reference exactly.
TEST(DifferentialSkewTest, ZipfThetaAboveOneMatchesReference) {
  static numa::NumaSystem* system = new numa::NumaSystem(4);
  constexpr uint64_t kBuild = 40000;
  constexpr uint64_t kProbe = 400000;

  const workload::Relation build =
      workload::MakeDenseBuild(system, kBuild, 0xB17Du).value();
  const workload::Relation probe =
      workload::MakeZipfProbe(system, kProbe, kBuild, 1.25, 0x5EEDu).value();
  const JoinResult expected = ReferenceJoin(build.cspan(), probe.cspan());

  JoinConfig config;
  config.num_threads = 8;
  config.skew_task_factor = 4;

  for (const Algorithm algorithm : AllAlgorithms()) {
    const JoinResult result =
        RunJoin(algorithm, system, config, build, probe).value();
    ASSERT_EQ(result.matches, expected.matches) << NameOf(algorithm);
    ASSERT_EQ(result.checksum, expected.checksum) << NameOf(algorithm);
  }
}

// ---------------------------------------------------------------------------
// Adversarial key shapes
// ---------------------------------------------------------------------------
//
// Key patterns that defeat low-bit radix partitioning, identity hashing and
// key-indexed arrays unless the joins strip the shared low bits and the
// offset of the build keys first: strided keys i << 12 and i << 20, offset
// keys 2^31 + i, off-stride probes, all-equal keys and the reserved sentinel
// key. Every algorithm must match the reference, and on unique keys must
// run within kSlowdownBound of its own time on dense keys of the same size
// (plus slack for scheduling noise and sanitizer builds): a perf cliff
// fails the suite like a wrong answer does.

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MMJOIN_DIFFERENTIAL_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MMJOIN_DIFFERENTIAL_SANITIZED 1
#endif

constexpr int64_t kSlowdownBound = 10;
#ifdef MMJOIN_DIFFERENTIAL_SANITIZED
constexpr int64_t kSlackNs = 500'000'000;
#else
constexpr int64_t kSlackNs = 50'000'000;
#endif
constexpr int kTimedRuns = 3;

struct AdversarialCase {
  const char* name;
  uint64_t build_size;
  // Build key of row i (rows are shuffled before use).
  uint32_t (*build_key)(uint64_t i);
  // Probe key drawn for row j of the build (uniform j); may miss.
  uint32_t (*probe_key)(uint32_t build_key, uint64_t row);
  bool unique;
};

uint32_t Strided12(uint64_t i) { return static_cast<uint32_t>(i << 12); }
uint32_t Strided20(uint64_t i) { return static_cast<uint32_t>(i << 20); }
uint32_t Offset31(uint64_t i) {
  return (uint32_t{1} << 31) + static_cast<uint32_t>(i);
}
uint32_t AllEqual(uint64_t) { return 42; }

uint32_t SameKey(uint32_t key, uint64_t) { return key; }
// Every other probe is off the stride: (i << 12) + 1 must miss.
uint32_t OffStride(uint32_t key, uint64_t row) {
  return row % 2 == 0 ? key : key + 1;
}
// Every third probe falls below the offset, every third past the maximum.
uint32_t AroundOffset(uint32_t key, uint64_t row) {
  if (row % 3 == 1) return key - (uint32_t{1} << 31);
  if (row % 3 == 2) return key + (uint32_t{1} << 16);
  return key;
}

const AdversarialCase kAdversarialCases[] = {
    {"strided_i<<12", 1 << 14, Strided12, SameKey, true},
    {"strided_i<<20", 1 << 12, Strided20, SameKey, true},
    {"offset_2^31+i", 1 << 14, Offset31, AroundOffset, true},
    {"off_stride_probes", 1 << 14, Strided12, OffStride, true},
    {"all_equal", 1 << 9, AllEqual, SameKey, false},
};

void PrintTo(const AdversarialCase& c, std::ostream* os) { *os << c.name; }

struct Inputs {
  workload::Relation build;
  workload::Relation probe;
};

Inputs MakeAdversarial(numa::NumaSystem* system, const AdversarialCase& c,
                       uint64_t seed) {
  Rng rng(seed);
  Inputs in{workload::Relation(system, c.build_size),
            workload::Relation(system, 4 * c.build_size)};
  for (uint64_t i = 0; i < c.build_size; ++i) {
    in.build.data()[i] = Tuple{c.build_key(i), static_cast<uint32_t>(i)};
  }
  for (uint64_t i = c.build_size; i > 1; --i) {
    std::swap(in.build.data()[i - 1], in.build.data()[rng.NextBelow(i)]);
  }
  for (uint64_t j = 0; j < in.probe.size(); ++j) {
    const uint32_t key = in.build.data()[rng.NextBelow(c.build_size)].key;
    in.probe.data()[j] = Tuple{c.probe_key(key, j), static_cast<uint32_t>(j)};
  }
  return in;
}

// Best-of-kTimedRuns wall clock of one join; checks the answer each run.
int64_t TimedJoin(Algorithm algorithm, numa::NumaSystem* system,
                  const JoinConfig& config, const workload::Relation& build,
                  const workload::Relation& probe, const JoinResult& expected,
                  const std::string& label) {
  int64_t best = INT64_MAX;
  for (int run = 0; run < kTimedRuns; ++run) {
    const int64_t start = NowNanos();
    const StatusOr<JoinResult> result =
        RunJoin(algorithm, system, config, build, probe);
    best = std::min(best, NowNanos() - start);
    EXPECT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    if (!result.ok()) return best;
    EXPECT_EQ(result->matches, expected.matches) << label;
    EXPECT_EQ(result->checksum, expected.checksum) << label;
  }
  return best;
}

class AdversarialKeysTest
    : public ::testing::TestWithParam<AdversarialCase> {};

TEST_P(AdversarialKeysTest, MatchesReferenceWithinDenseTimeBound) {
  static numa::NumaSystem* system = new numa::NumaSystem(4);
  const AdversarialCase& c = GetParam();
  const Inputs adversarial = MakeAdversarial(system, c, 0xADu);
  const JoinResult expected =
      ReferenceJoin(adversarial.build.cspan(), adversarial.probe.cspan());
  ASSERT_GT(expected.matches, 0u) << c.name;

  // Dense keys of the same sizes: the time each algorithm's shape warrants.
  const workload::Relation dense_build =
      workload::MakeDenseBuild(system, c.build_size, 0xDEu).value();
  const workload::Relation dense_probe =
      workload::MakeProbeFromBuild(system, adversarial.probe.size(),
                                   dense_build, 0xDFu)
          .value();
  const JoinResult dense_expected =
      ReferenceJoin(dense_build.cspan(), dense_probe.cspan());

  JoinConfig config;
  config.num_threads = 4;
  config.build_unique = c.unique;
  for (const Algorithm algorithm : AllAlgorithms()) {
    // Array cells hold one tuple: duplicate build keys are outside their
    // contract (as in the random trials above).
    if (!c.unique && InfoOf(algorithm).requires_dense_keys) continue;
    const std::string label = std::string(NameOf(algorithm)) + " on " + c.name;
    const int64_t adversarial_ns =
        TimedJoin(algorithm, system, config, adversarial.build,
                  adversarial.probe, expected, label);
    // All-equal keys produce |R| times more output than dense keys; their
    // time is bounded by the output, not by the dense join.
    if (!c.unique) continue;
    const int64_t dense_ns =
        TimedJoin(algorithm, system, config, dense_build, dense_probe,
                  dense_expected, label + " (dense)");
    EXPECT_LE(adversarial_ns, kSlowdownBound * dense_ns + kSlackNs)
        << label << ": " << adversarial_ns << " ns against " << dense_ns
        << " ns on dense keys";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AdversarialKeysTest, ::testing::ValuesIn(kAdversarialCases),
    [](const ::testing::TestParamInfo<AdversarialCase>& info) {
      std::string name;
      for (const char ch : std::string(info.param.name)) {
        name += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
      }
      return name;
    });

// A sentinel-valued build key (kEmptyKey, the hash tables' empty-slot
// marker) is outside the input contract: every algorithm rejects it with
// InvalidArgument instead of answering.
TEST(AdversarialSentinelTest, SentinelBuildKeyIsInvalidArgument) {
  static numa::NumaSystem* system = new numa::NumaSystem(4);
  workload::Relation build =
      workload::MakeDenseBuild(system, 1 << 12, 0x5Eu).value();
  build.data()[build.size() / 2].key = kEmptyKey;
  const workload::Relation probe =
      workload::MakeProbeFromBuild(system, 1 << 14, build, 0x5Fu).value();
  JoinConfig config;
  config.num_threads = 4;
  for (const Algorithm algorithm : AllAlgorithms()) {
    const StatusOr<JoinResult> result =
        RunJoin(algorithm, system, config, build, probe);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << NameOf(algorithm);
  }
}

}  // namespace
}  // namespace mmjoin::join
