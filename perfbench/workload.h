// One benchmark run of a workload: set-up, the 13-algorithm join rounds,
// and the service's closed loop.

#ifndef MMJOIN_PERFBENCH_WORKLOAD_H_
#define MMJOIN_PERFBENCH_WORKLOAD_H_

#include "common.h"

namespace perfbench {

// Untraced (options.trace false): the end-to-end metrics, timed by the
// harness's clock. Traced: the per-layer metrics, with the program's
// observability on and spans recorded around every call into a layer.
RunReport RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // MMJOIN_PERFBENCH_WORKLOAD_H_
