// Deterministic fork-join parallelism for synopsis construction.
//
// ParallelFor runs fn(0) .. fn(n-1) with transient workers pulling indices
// from a shared atomic counter; each index is executed exactly once and
// callers write results to fixed per-index slots, so output is identical
// for any thread count or scheduling. Thread start-up cost is noise for
// build-time work (milliseconds and up). Query execution does not fan out:
// segments run back to back on the calling thread (query/segment_exec.h).
#ifndef PAIRWISEHIST_COMMON_PARALLEL_H_
#define PAIRWISEHIST_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace pairwisehist {

/// Runs fn(i) for every i in [0, n) on up to `nthreads` transient threads
/// (0 = one per hardware core, 1 = serial on the calling thread). Blocks
/// until every index has run. `fn` must be safe to call concurrently for
/// distinct indices and must not throw.
void ParallelFor(size_t n, unsigned nthreads,
                 const std::function<void(size_t)>& fn);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_COMMON_PARALLEL_H_
