#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "join/internal.h"
#include "join/join_algorithm.h"
#include "thread/executor.h"
#include "util/bits.h"
#include "util/log.h"
#include "util/timer.h"

namespace mmjoin::join {

std::unique_ptr<JoinAlgorithm> CreateJoin(Algorithm algorithm) {
  using internal::MakeChtJoin;
  using internal::MakeCprJoin;
  using internal::MakeMwayJoin;
  using internal::MakeNopJoin;
  using internal::MakePrJoin;
  switch (algorithm) {
    case Algorithm::kNOP:
      return MakeNopJoin(/*array_table=*/false);
    case Algorithm::kNOPA:
      return MakeNopJoin(/*array_table=*/true);
    case Algorithm::kCHTJ:
      return MakeChtJoin();
    case Algorithm::kMWAY:
      return MakeMwayJoin();
    case Algorithm::kPRB:
    case Algorithm::kPRO:
    case Algorithm::kPRL:
    case Algorithm::kPRA:
    case Algorithm::kPROiS:
    case Algorithm::kPRLiS:
    case Algorithm::kPRAiS:
      return MakePrJoin(algorithm);
    case Algorithm::kCPRL:
    case Algorithm::kCPRA:
      return MakeCprJoin(algorithm);
  }
  MMJOIN_CHECK(false && "unknown algorithm");
  return nullptr;
}

namespace {

// Builds below this many tuples per worker are scanned inline: reading
// 2^18 tuples takes about as long as waking a team (~40 us each on a
// 4-core x86 host).
constexpr std::size_t kShapeScanGrain = std::size_t{1} << 18;

// Partial shape of one contiguous range; `diff` ORs every key's XOR with
// the relation's first key, so its lowest set bit is the lowest bit in which
// any two keys differ.
struct alignas(kCacheLineSize) ShapeScan {
  uint32_t min = kEmptyKey;
  uint32_t max = 0;
  uint32_t diff = 0;
};
static_assert(sizeof(ShapeScan) == kCacheLineSize,
              "ShapeScan must occupy exactly one cache line");

ShapeScan ScanRange(const Tuple* tuples, std::size_t begin, std::size_t end,
                    uint32_t first) {
  uint32_t lo = kEmptyKey, hi = 0, diff = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const uint32_t key = tuples[i].key;
    lo = std::min(lo, key);
    hi = std::max(hi, key);
    diff |= key ^ first;
  }
  return ShapeScan{lo, hi, diff};
}

}  // namespace

StatusOr<KeyShape> ScanKeyShape(const JoinConfig& config,
                                ConstTupleSpan build) {
  if (build.empty()) return KeyShape{};
  const uint32_t first = build[0].key;
  const int team = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(config.num_threads, 1)),
      CeilDiv(build.size(), kShapeScanGrain)));
  std::vector<ShapeScan> parts(static_cast<std::size_t>(team));
  if (team == 1) {
    parts[0] = ScanRange(build.data(), 0, build.size(), first);
  } else {
    MMJOIN_RETURN_IF_ERROR(internal::ExecutorOf(config).ParallelFor(
        team, build.size(),
        [&](std::size_t begin, std::size_t end,
            const thread::WorkerContext& ctx) {
          parts[static_cast<std::size_t>(ctx.thread_id)] =
              ScanRange(build.data(), begin, end, first);
        }));
  }
  ShapeScan total;
  for (const ShapeScan& part : parts) {
    total.min = std::min(total.min, part.min);
    total.max = std::max(total.max, part.max);
    total.diff |= part.diff;
  }
  return KeyShape{total.min, total.max,
                  total.diff == 0
                      ? 0u
                      : static_cast<uint32_t>(std::countr_zero(total.diff))};
}

StatusOr<JoinResult> JoinAlgorithm::Run(numa::NumaSystem* system,
                                        const JoinConfig& config,
                                        ConstTupleSpan build,
                                        ConstTupleSpan probe) {
  const int64_t scan_start = NowNanos();
  MMJOIN_ASSIGN_OR_RETURN(const KeyShape shape, ScanKeyShape(config, build));
  const int64_t shape_ns = NowNanos() - scan_start;
  if (shape.has_sentinel()) {
    return InvalidArgumentError(
        std::string(NameOf(id())) +
        ": build key 0xFFFFFFFF is reserved (the hash tables' empty-slot "
        "marker)");
  }
  if (shape.base != 0 || shape.shift != 0) {
    MMJOIN_LOG(kDebug, "join.key_shape")
        .Field("algo", NameOf(id()))
        .Field("base", shape.base)
        .Field("max", shape.max)
        .Field("shift", shape.shift)
        .Field("stripped_domain", shape.stripped_domain());
  }
  MMJOIN_ASSIGN_OR_RETURN(JoinResult result,
                          Execute(system, config, build, probe, shape));
  result.key_shape = shape;
  result.times.shape_ns = shape_ns;
  return result;
}

}  // namespace mmjoin::join
