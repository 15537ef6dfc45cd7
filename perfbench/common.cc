// The harness's correctness oracle and statistics helpers.

#include "common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace perfbench {

Expected ComputeExpected(const mmjoin::workload::Relation& build,
                         const mmjoin::workload::Relation& probe) {
  // Direct-address map over the build keys divided by their common
  // power-of-two stride, so a strided domain (key = i << 12) costs as much
  // memory as a dense one. A probe key off the stride cannot match.
  uint32_t key_or = 0;
  uint32_t max_key = 0;
  for (uint64_t i = 0; i < build.size(); ++i) {
    key_or |= build.data()[i].key;
    max_key = std::max(max_key, build.data()[i].key);
  }
  const int shift = key_or == 0 ? 0 : std::countr_zero(key_or);
  const uint32_t low_mask = (uint32_t{1} << shift) - 1;
  const uint64_t slots = (uint64_t{max_key} >> shift) + 1;
  std::vector<uint32_t> payload(slots);
  std::vector<bool> present(slots, false);
  for (uint64_t i = 0; i < build.size(); ++i) {
    const mmjoin::Tuple t = build.data()[i];
    const uint64_t slot = t.key >> shift;
    if (present[slot]) {
      std::fprintf(stderr, "perfbench: duplicate build key %u\n", t.key);
      std::exit(2);
    }
    present[slot] = true;
    payload[slot] = t.payload;
  }
  Expected expected;
  for (uint64_t i = 0; i < probe.size(); ++i) {
    const mmjoin::Tuple s = probe.data()[i];
    if ((s.key & low_mask) != 0) continue;
    const uint64_t slot = s.key >> shift;
    if (slot >= slots || !present[slot]) continue;
    ++expected.matches;
    expected.checksum += uint64_t{payload[slot]} + s.payload;
  }
  return expected;
}

Expected OracleFor(const mmjoin::workload::Relation& build,
                   const mmjoin::workload::Relation& probe,
                   const Options& options, RunReport* report) {
  Expected expected = ComputeExpected(build, probe);
  if (expected.matches != probe.size()) report->oracle_ok = false;
  if (options.corrupt_oracle) ++expected.matches;
  return expected;
}

void Die(const char* what, const mmjoin::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(2);
}

double CounterDelta(const std::map<std::string, uint64_t>& before,
                    const std::map<std::string, uint64_t>& after,
                    const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  return static_cast<double>((a == after.end() ? 0 : a->second) -
                             (b == before.end() ? 0 : b->second));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace perfbench
