// Workload input make-up (sizes in tuples of 8 bytes):
//
//   fk-dram     joins: dense unique build keys, |R| = 2^22, uniform
//               foreign-key probe |S| = 10 |R| (352 MB, beyond the LLC).
//               jobs:  4 small uniform pairs (|R| = 2^16, |S| = 2^18) and
//               2 Zipf theta = 0.9 pairs (|R| = 2^18, |S| = 2^20).
//   fk-strided  joins: build keys i << 12 for shuffled i in [0, 2^13),
//               uniform probe over them, |S| = 10 |R| (cache-resident).
//               jobs:  4 pairs of the same make-up at |R| = 2^10,
//               |S| = 2^12.
//
// Strided keys stay below 2^25: NOPA sizes its array from the key domain.

#include "inputs.h"

#include <utility>

#include "util/rng.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

namespace wl = mmjoin::workload;
using mmjoin::numa::NumaSystem;
using mmjoin::workload::Relation;

constexpr int kJobPairs = 4;
constexpr int kSkewedPairs = 2;
constexpr uint32_t kStrideShift = 12;

Relation Unwrap(mmjoin::StatusOr<Relation> relation, const char* what) {
  if (!relation.ok()) Die(what, relation.status());
  return std::move(*relation);
}

// Build keys i << kStrideShift for a shuffled i in [0, n), payload i.
Relation MakeStridedBuild(NumaSystem* system, uint64_t n, uint64_t seed) {
  Relation build(system, n);
  std::vector<uint32_t> order(n);
  for (uint64_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  mmjoin::Rng rng(seed);
  for (uint64_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  for (uint64_t i = 0; i < n; ++i) {
    build.data()[i] = mmjoin::Tuple{order[i] << kStrideShift, order[i]};
  }
  build.set_key_domain(((n - 1) << kStrideShift) + 1);
  return build;
}

InputPair Dense(NumaSystem* system, uint64_t build_n, uint64_t probe_n,
                uint64_t seed) {
  InputPair pair;
  pair.build = Unwrap(wl::MakeDenseBuild(system, build_n, seed), "dense build");
  pair.probe = Unwrap(
      wl::MakeUniformProbe(system, probe_n, build_n, seed + 1),
      "uniform probe");
  return pair;
}

InputPair Strided(NumaSystem* system, uint64_t build_n, uint64_t probe_n,
                  uint64_t seed) {
  InputPair pair;
  pair.build = MakeStridedBuild(system, build_n, seed);
  pair.probe = Unwrap(
      wl::MakeProbeFromBuild(system, probe_n, pair.build, seed + 1),
      "strided probe");
  return pair;
}

InputPair Zipf(NumaSystem* system, uint64_t build_n, uint64_t probe_n,
               uint64_t seed) {
  InputPair pair;
  pair.build = Unwrap(wl::MakeDenseBuild(system, build_n, seed), "dense build");
  pair.probe = Unwrap(
      wl::MakeZipfProbe(system, probe_n, build_n, 0.9, seed + 1),
      "zipf probe");
  return pair;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "fk-dram" || name == "fk-strided";
}

WorkloadInputs GenerateInputs(const std::string& workload, NumaSystem* system,
                              uint64_t seed) {
  Span span("perfbench.workload.generate");
  // Distinct, seed-derived streams for every relation.
  const uint64_t base = seed * 1000;
  const bool strided = workload == "fk-strided";
  // Joins: |S| = 10 |R| as in the paper. Jobs: |S| = 4 |R| as in the
  // repo's service bench.
  constexpr uint64_t kJoinR = uint64_t{1} << 22, kStridedJoinR = 1 << 13;
  constexpr uint64_t kJobR = 1 << 16, kStridedJobR = 1 << 10;
  constexpr uint64_t kZipfJobR = 1 << 18;
  WorkloadInputs in;
  in.join = strided ? Strided(system, kStridedJoinR, 10 * kStridedJoinR, base)
                    : Dense(system, kJoinR, 10 * kJoinR, base);
  for (int i = 0; i < kJobPairs; ++i) {
    const uint64_t s = base + 10 + 2 * i;
    in.small_jobs.push_back(
        strided ? Strided(system, kStridedJobR, 4 * kStridedJobR, s)
                : Dense(system, kJobR, 4 * kJobR, s));
  }
  if (!strided) {
    for (int i = 0; i < kSkewedPairs; ++i) {
      in.skewed_jobs.push_back(
          Zipf(system, kZipfJobR, 4 * kZipfJobR, base + 30 + 2 * i));
    }
  }
  in.tuples = in.join.build.size() + in.join.probe.size();
  for (const auto* pool : {&in.small_jobs, &in.skewed_jobs}) {
    for (const InputPair& pair : *pool) {
      in.tuples += pair.build.size() + pair.probe.size();
    }
  }
  return in;
}

void ComputeOracles(WorkloadInputs* inputs, const Options& options,
                    RunReport* report) {
  for (auto* pool : {&inputs->small_jobs, &inputs->skewed_jobs}) {
    for (InputPair& pair : *pool) {
      pair.expected = OracleFor(pair.build, pair.probe, options, report);
    }
  }
  inputs->join.expected =
      OracleFor(inputs->join.build, inputs->join.probe, options, report);
}

}  // namespace perfbench
