#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "serve/serving_db.h"

namespace perfbench {

using pairwisehist::AggResult;
using pairwisehist::QueryResult;

void Accuracy::Add(const QueryResult& exact, const QueryResult& approx) {
  if (exact.groups.empty() || approx.groups.empty()) return;
  const AggResult& e = exact.groups[0].agg;
  const AggResult& a = approx.groups[0].agg;
  if (e.empty_selection || std::isnan(e.estimate)) return;
  if (std::isnan(a.estimate)) return;
  errors_.push_back(RelErrPct(e.estimate, a.estimate));
  if (!a.empty_selection && !std::isnan(a.lower) && !std::isnan(a.upper)) {
    ++bounds_evaluated_;
    const double tol = 1e-9 * std::max(1.0, std::fabs(e.estimate));
    if (e.estimate >= a.lower - tol && e.estimate <= a.upper + tol) {
      ++bounds_hit_;
    }
  }
}

double Accuracy::BoundHitPct() const {
  return bounds_evaluated_ == 0
             ? 0
             : 100.0 * static_cast<double>(bounds_hit_) /
                   static_cast<double>(bounds_evaluated_);
}

void ReportServingCounters(const pairwisehist::ServingStats& before,
                           const pairwisehist::ServingStats& after,
                           Report* report) {
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t lookups = hits + after.cache_misses - before.cache_misses;
  const uint64_t pgroups = after.batches - before.batches;
  const uint64_t cgroups = after.coalesced_groups - before.coalesced_groups;
  report->Layer("serve.plan_cache.hit_pct", "%", 100.0 * ratio(hits, lookups));
  report->Layer("serve.pipeline.groups", "count",
                static_cast<double>(pgroups));
  report->Layer("serve.pipeline.avg_group", "count",
                ratio(after.batch_statements - before.batch_statements,
                      pgroups));
  report->Layer("serve.coalescer.groups", "count",
                static_cast<double>(cgroups));
  report->Layer("serve.coalescer.avg_group", "count",
                ratio(after.coalesced_statements - before.coalesced_statements,
                      cgroups));
  report->Layer("serve.coalescer.max_group", "count",
                static_cast<double>(after.max_group));
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.groups.size() != b.groups.size()) return false;
  for (size_t i = 0; i < a.groups.size(); ++i) {
    const AggResult& x = a.groups[i].agg;
    const AggResult& y = b.groups[i].agg;
    if (a.groups[i].label != b.groups[i].label ||
        x.empty_selection != y.empty_selection ||
        !SameBits(x.estimate, y.estimate) || !SameBits(x.lower, y.lower) ||
        !SameBits(x.upper, y.upper)) {
      return false;
    }
  }
  return true;
}

bool MissingEstimate(const QueryResult& exact, const QueryResult& approx) {
  if (exact.groups.empty()) return false;
  const AggResult& e = exact.groups[0].agg;
  if (e.empty_selection || !std::isfinite(e.estimate)) return false;
  if (approx.groups.empty()) return true;
  return !std::isfinite(approx.groups[0].agg.estimate);
}

}  // namespace perfbench
