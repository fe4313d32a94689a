// Segmented synopsis benchmark: query latency + accuracy vs segment count.
//
// Builds the same dataset as one monolithic synopsis and as 4- and
// 16-segment sharded Dbs, runs a selectivity-floored workload against
// each, and reports build time, prepared-execute latency, median relative
// error vs exact, and CI coverage. Emits BENCH_segments.json for CI's perf
// trajectory. Expected shape: latency grows mildly with segment count
// (one partial per segment + merge), accuracy degrades as segments shrink relative to M
// (sparse 2-d refinement), and build parallelism improves wall-clock.
//
// No google-benchmark dependency: self-calibrating timing loops, so this
// runs on bare machines and in every CI configuration.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"
#include "query/exact.h"

using namespace pairwisehist;
using namespace pairwisehist::bench;

namespace {

template <typename F>
double TimePerCallUs(F&& body) {
  int reps = 1;
  for (;;) {
    double t0 = NowSeconds();
    for (int i = 0; i < reps; ++i) body();
    double dt = NowSeconds() - t0;
    if (dt > 0.02 || reps >= (1 << 22)) {
      return dt * 1e6 / reps;
    }
    reps *= 4;
  }
}

}  // namespace

int main() {
  Banner("Segmented synopsis: latency + accuracy vs segment count");
  const size_t rows = EnvSize("PH_SCALE_ROWS", 200000);
  const size_t nqueries = EnvSize("PH_QUERIES", 40);

  auto table = MakeDataset("power", rows, 71);
  if (!table.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }

  WorkloadConfig wcfg = InitialWorkloadConfig(17);
  wcfg.num_queries = nqueries;
  wcfg.min_predicates = 1;
  wcfg.max_predicates = 3;
  wcfg.functions = {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                    AggFunc::kMin,   AggFunc::kMax, AggFunc::kMedian};
  auto workload = GenerateWorkload(table.value(), wcfg);
  if (!workload.ok() || workload->empty()) {
    std::fprintf(stderr, "workload generation failed\n");
    return 1;
  }

  // Exact ground truth, once.
  std::vector<double> exact;
  exact.reserve(workload->size());
  for (const Query& q : workload.value()) {
    auto r = ExecuteExact(table.value(), q);
    exact.push_back(r.ok() ? r->Scalar().estimate : 0.0);
  }

  std::printf("%8s %12s %14s %14s %12s %12s\n", "segments", "build s",
              "med lat us", "med err %", "CI cover %", "storage");
  std::string configs_json;
  const size_t kSegmentCounts[] = {1, 4, 16};
  for (size_t nseg : kSegmentCounts) {
    DbOptions options;
    options.synopsis.sample_size = 0;  // full-scan builds: same data seen
    options.target_segment_rows = nseg == 1 ? 0 : (rows + nseg - 1) / nseg;
    auto t0 = NowSeconds();
    auto db = Db::FromTable(table->Slice(0, rows), options);
    double build_s = NowSeconds() - t0;
    if (!db.ok()) {
      std::fprintf(stderr, "build (%zu segments) failed: %s\n", nseg,
                   db.status().ToString().c_str());
      return 1;
    }

    std::vector<double> latencies, errors;
    size_t bounds_total = 0, bounds_correct = 0;
    for (size_t i = 0; i < workload->size(); ++i) {
      auto pq = db->Prepare((*workload)[i]);
      if (!pq.ok()) continue;
      auto first = pq->Execute();
      if (!first.ok() || first->Scalar().empty_selection) continue;
      QueryResult reused;
      latencies.push_back(TimePerCallUs(
          [&]() { (void)pq->ExecuteInto(&reused); }));
      const AggResult& agg = first->Scalar();
      errors.push_back(RelativeErrorPct(exact[i], agg.estimate));
      ++bounds_total;
      if (exact[i] >= agg.lower && exact[i] <= agg.upper) ++bounds_correct;
    }

    double med_lat = Median(latencies);
    double med_err = Median(errors);
    double cover = bounds_total == 0
                       ? 0.0
                       : 100.0 * bounds_correct / bounds_total;
    size_t bytes = db->StorageBytes();
    std::printf("%8zu %12.2f %14.2f %14.3f %12.1f %12s\n", nseg, build_s,
                med_lat, med_err, cover, HumanBytes(bytes).c_str());

    char row[320];
    std::snprintf(row, sizeof(row),
                  "%s    {\"segments\": %zu, \"build_seconds\": %.3f, "
                  "\"median_latency_us\": %.3f, \"median_error_pct\": %.4f, "
                  "\"bounds_correct_rate\": %.2f, \"storage_bytes\": %zu, "
                  "\"queries\": %zu}",
                  configs_json.empty() ? "" : ",\n", nseg, build_s, med_lat,
                  med_err, cover, bytes, latencies.size());
    configs_json += row;
  }

  char head[160];
  std::snprintf(head, sizeof(head),
                "{\n  \"bench\": \"segments\",\n  \"scale_rows\": %zu,\n"
                "  \"configs\": [\n",
                rows);
  WriteBenchJson("BENCH_segments.json",
                 std::string(head) + configs_json + "\n  ]\n}");
  return 0;
}
