// The three benchmark workloads and the helpers they share. Each workload
// drives the library only through its public API, makes its inputs from
// the seed, checks every answer, and fills a Report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "query/ast.h"

namespace pairwisehist {
struct ServingStats;
}  // namespace pairwisehist

namespace perfbench {

/// Seed of every dataset (appended batches included) and of the ad-hoc and
/// accuracy statement sets. Like the paper's fixed datasets and evaluation
/// workloads, this keeps accuracy and synopsis size deterministic
/// regression gates; --seed drives the read traffic (the served dashboard
/// pages and the order ad-hoc statements are issued in).
constexpr uint64_t kReferenceSeed = 1;

void RunDashboardHttp(const Args& args, Report* report);
void RunAdhocEngine(const Args& args, Report* report);
void RunIngestMixed(const Args& args, Report* report);

/// Accuracy against exact answers, as the paper reports it: median
/// relative error of the estimate, and the share of estimates whose
/// bounds contain the exact value. Statements whose exact selection is
/// empty do not count.
class Accuracy {
 public:
  void Add(const pairwisehist::QueryResult& exact,
           const pairwisehist::QueryResult& approx);
  double MedianRelErrPct() const { return Median(errors_); }
  double BoundHitPct() const;

 private:
  std::vector<double> errors_;
  size_t bounds_evaluated_ = 0;
  size_t bounds_hit_ = 0;
};

/// The serving counters of the measured load (the difference of two
/// ServingDb::Stats): plan-cache hit rate, and pipeline grouping (pipelined
/// bursts the HTTP batch handler runs through QueryBatch) reported apart
/// from ReadCoalescer grouping.
void ReportServingCounters(const pairwisehist::ServingStats& before,
                           const pairwisehist::ServingStats& after,
                           Report* report);

/// True when every field of every group is bit-identical.
bool SameResult(const pairwisehist::QueryResult& a,
                const pairwisehist::QueryResult& b);

/// True when the exact answer selected rows but the estimate is an error
/// marker (empty or non-finite) — an answer the checks reject.
bool MissingEstimate(const pairwisehist::QueryResult& exact,
                     const pairwisehist::QueryResult& approx);

/// Aborts the run when `st` (a library Status or StatusOr) failed.
template <typename S>
void Must(const S& st, const char* what) {
  if (!st.ok()) Fatal(std::string(what) + ": " + st.ToString());
}
template <typename T>
void MustOk(const T& st_or, const char* what) {
  if (!st_or.ok()) Fatal(std::string(what) + ": " + st_or.status().ToString());
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
