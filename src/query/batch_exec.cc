#include "query/batch_exec.h"

#include <algorithm>

#include "query/partial_agg.h"

namespace pairwisehist {

// ---------------------------------------------------------------------------
// SegmentedExecutor batch execution (declared in segment_exec.h; lives here
// with the rest of the batch machinery).

Status SegmentedExecutor::ExecuteBatchInto(
    const std::vector<const SegmentedPlan*>& plans,
    const std::vector<QueryResult*>& results) const {
  if (plans.size() != results.size()) {
    return Status::InvalidArgument("batch plans/results size mismatch");
  }
  if (plans.empty()) return Status::OK();
  PoolLease<BatchExecScratch> lease(batch_pool_.get());
  return ExecuteBatchImpl(plans.data(), results.data(), plans.size(), *lease);
}

Status SegmentedExecutor::ExecuteBatchInto(const SegmentedPlan* plans,
                                           QueryResult* results,
                                           size_t n) const {
  if (n == 0) return Status::OK();
  PoolLease<BatchExecScratch> lease(batch_pool_.get());
  BatchExecScratch& scratch = *lease;
  scratch.plan_ptrs.resize(n);
  scratch.result_ptrs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch.plan_ptrs[i] = &plans[i];
    scratch.result_ptrs[i] = &results[i];
  }
  return ExecuteBatchImpl(scratch.plan_ptrs.data(), scratch.result_ptrs.data(),
                          n, scratch);
}

Status SegmentedExecutor::ExecuteBatchImpl(const SegmentedPlan* const* plans,
                                           QueryResult* const* results,
                                           size_t nq,
                                           BatchExecScratch& scratch) const {
  for (size_t q = 0; q < nq; ++q) {
    if (plans[q] == nullptr || !plans[q]->valid()) {
      return Status::Internal("SegmentedPlan used before Prepare");
    }
  }
  // Extend lazily compiled plans (post-append segments) up front, under
  // each plan's own mutex, so execution below reads stable state.
  for (size_t q = 0; q < nq; ++q) {
    PH_RETURN_IF_ERROR(EnsurePlans(plans[q]->state_.get()));
  }

  const size_t nseg = engines_.size();
  if (nseg == 1) {
    // Monolithic special case: the whole batch in one engine call.
    scratch.cps.resize(nq);
    scratch.outs.resize(nq);
    for (size_t q = 0; q < nq; ++q) {
      scratch.cps[q] = &plans[q]->state_->plans[0];
      scratch.outs[q] = results[q];
    }
    return engines_[0]->ExecuteBatchInto(scratch.cps, scratch.outs);
  }

  // One engine call per segment runs the whole batch's mergeable partials
  // on that segment through the engine's batched partial path, so grid
  // sharing is amortized inside every segment too. Pruned (plan, segment)
  // pairs contribute nothing, exactly like single-plan execution. The
  // merge below reads every (query, segment) slot, so stale groups from a
  // previous lease are cleared up front.
  scratch.parts.resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    scratch.parts[q].resize(nseg);
    for (PartialResult& pr : scratch.parts[q]) pr.groups.clear();
  }
  for (size_t s = 0; s < nseg; ++s) {
    scratch.cps.clear();
    scratch.part_outs.clear();
    for (size_t q = 0; q < nq; ++q) {
      SegmentedPlan::State* st = plans[q]->state_.get();
      if (st->skip[s]) continue;
      scratch.cps.push_back(&st->plans[s]);
      scratch.part_outs.push_back(&scratch.parts[q][s]);
    }
    if (!scratch.cps.empty()) {
      PH_RETURN_IF_ERROR(engines_[s]->ExecutePartialBatchInto(
          scratch.cps, scratch.part_outs));
    }
  }
  if (options_.ledger != nullptr) {
    for (size_t q = 0; q < nq; ++q) {
      const SegmentedPlan::State& st = *plans[q]->state_;
      if (st.query.group_by.empty()) RecordFeedback(st, scratch.parts[q]);
    }
  }

  // Deterministic merge per query in segment order — the same merge the
  // single-plan path runs, so the batch leaves results bit-identical to
  // the per-query loop.
  const KernelOps* ks = &GetKernels(options_.engine.kernels);
  for (size_t q = 0; q < nq; ++q) {
    const Query& query = plans[q]->state_->query;
    MergePartialResults(query.func, !query.group_by.empty(), scratch.parts[q],
                        results[q], ks);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PreparedBatch

Status PreparedBatch::ExecuteInto(std::vector<QueryResult>* results) const {
  if (exec_ == nullptr) {
    return Status::Internal("PreparedBatch used before Db::PrepareBatch");
  }
  const size_t nq = plan_of_query_.size();
  results->resize(nq);
  if (plans_.size() == nq) {
    // No duplicates: plan_of_query_ is the identity by construction, so
    // execute straight into the caller's (warm) results through the
    // contiguous overload — no per-call pointer marshalling at all.
    return exec_->ExecuteBatchInto(plans_.data(), results->data(), nq);
  }
  // Execute the distinct plans as one batch, then scatter to statement
  // order (duplicates copy the shared result — identical by determinism).
  std::vector<QueryResult> distinct(plans_.size());
  PH_RETURN_IF_ERROR(
      exec_->ExecuteBatchInto(plans_.data(), distinct.data(), plans_.size()));
  for (size_t q = 0; q < nq; ++q) {
    (*results)[q] = distinct[plan_of_query_[q]];
  }
  return Status::OK();
}

StatusOr<std::vector<QueryResult>> PreparedBatch::Execute() const {
  std::vector<QueryResult> results;
  PH_RETURN_IF_ERROR(ExecuteInto(&results));
  return results;
}

}  // namespace pairwisehist
