// JoinAlgorithm interface and factory.
//
// Every algorithm consumes a build relation R (the smaller side, unique or
// near-unique keys) and a probe relation S, and returns an aggregate
// JoinResult -- the micro-benchmark methodology shared by all papers this
// study reproduces (no result materialization unless a MatchSink is set).

#ifndef MMJOIN_JOIN_JOIN_ALGORITHM_H_
#define MMJOIN_JOIN_JOIN_ALGORITHM_H_

#include <memory>

#include "join/join_defs.h"
#include "numa/system.h"
#include "util/status.h"
#include "util/types.h"
#include "workload/relation.h"

namespace mmjoin::join {

class JoinAlgorithm {
 public:
  virtual ~JoinAlgorithm() = default;

  virtual Algorithm id() const = 0;

  // Executes the join. First scans the build keys for their KeyShape (on
  // the join's executor) and rejects a build key equal to kEmptyKey with
  // InvalidArgument -- the hash tables use it as their empty-slot marker.
  // The algorithm then partitions, hashes and indexes on the stripped key,
  // so its plan depends only on what the scan observed; the shape is
  // returned in JoinResult::key_shape.
  //
  // Recoverable failures -- allocation failure (real or via the alloc.*
  // failpoints), invalid configuration, a poisoned executor -- come back as
  // a non-OK Status with all phase buffers released; invariant violations
  // still abort. A non-OK return leaves `system` without leaked regions.
  StatusOr<JoinResult> Run(numa::NumaSystem* system, const JoinConfig& config,
                           ConstTupleSpan build, ConstTupleSpan probe);

 protected:
  // The algorithm proper, given the shape of `build`.
  virtual StatusOr<JoinResult> Execute(numa::NumaSystem* system,
                                       const JoinConfig& config,
                                       ConstTupleSpan build,
                                       ConstTupleSpan probe,
                                       const KeyShape& shape) = 0;
};

// One pass over the build keys: minimum, maximum and the low bits they all
// share (see KeyShape). Large inputs are scanned in parallel on the
// config's executor, small ones inline on the caller.
StatusOr<KeyShape> ScanKeyShape(const JoinConfig& config,
                                ConstTupleSpan build);

std::unique_ptr<JoinAlgorithm> CreateJoin(Algorithm algorithm);

// Convenience wrapper over CreateJoin + Run for Relation inputs. Validates
// `config` against the relation sizes first.
StatusOr<JoinResult> RunJoin(Algorithm algorithm, numa::NumaSystem* system,
                             const JoinConfig& config,
                             const workload::Relation& build,
                             const workload::Relation& probe);

// For benches and examples that have no recovery path: prints the status to
// stderr and aborts on failure.
JoinResult RunJoinOrDie(Algorithm algorithm, numa::NumaSystem* system,
                        const JoinConfig& config,
                        const workload::Relation& build,
                        const workload::Relation& probe);

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_JOIN_ALGORITHM_H_
