// Per-layer kernel timing for the traced mode: the public partition, hash
// and sort entry points, called directly on a workload's own relations.

#ifndef MMJOIN_PERFBENCH_LAYERS_H_
#define MMJOIN_PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "core/joiner.h"
#include "workload/relation.h"

namespace perfbench {

// Adds partition.*, hash.* and sort.* metrics to `metrics`, using the
// joiner's executor for the parallel partitioning kernels.
void MeasureLayers(mmjoin::core::Joiner* joiner,
                   const mmjoin::workload::Relation& build,
                   const mmjoin::workload::Relation& probe,
                   std::map<std::string, double>* metrics);

}  // namespace perfbench

#endif  // MMJOIN_PERFBENCH_LAYERS_H_
