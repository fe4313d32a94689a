// adhoc_engine: one in-process caller issuing one-shot Db::ExecuteSql over
// the paper's Table-5 workload preset (1-5 predicates, AND/OR, COUNT/SUM/
// AVG/MIN/MAX/MEDIAN/VAR) on `flights`, 200k rows, built with GreedyGD
// compression as one synopsis. Set-up is build -> Save PWS3 -> Open
// (memory-mapped) -> integrity sweep; queries run on the reopened Db. It
// bypasses HTTP, the plan cache, the coalescer and segment fan-out.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/db.h"
#include "datagen/datasets.h"
#include "gd/greedy_gd.h"
#include "harness/workload.h"
#include "query/exact.h"
#include "query/sql_parser.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pairwisehist;

constexpr size_t kSetupRepeats = 3;

struct SetupTimes {
  double build_s = 0;
  double save_ms = 0;
  double open_ms = 0;
  double verify_ms = 0;
  double slowdown = 1;  ///< host slowdown while it ran
  double total_s() const {
    return build_s + (save_ms + open_ms + verify_ms) / 1e3;
  }
};

/// One set-up: build with compression, save PWS3, reopen memory-mapped and
/// sweep its checksums. `*built` receives the built (pre-save) Db.
Db SetUp(const Table& table, const std::string& path, SetupTimes* t,
         std::optional<Db>* built) {
  Table copy = table;
  DbOptions options;
  options.compress = true;
  options.keep_table = false;
  double t0 = NowSec();
  auto db = Db::FromTable(std::move(copy), options);
  MustOk(db, "Db::FromTable");
  t->build_s = NowSec() - t0;
  t0 = NowSec();
  Must(db.value().Save(path, SaveFormat::kPws3), "Db::Save");
  t->save_ms = (NowSec() - t0) * 1e3;
  DbOptions open;
  open.open_mode = OpenMode::kMmap;
  open.scrub = false;
  t0 = NowSec();
  auto opened = Db::Open(path, open);
  MustOk(opened, "Db::Open");
  t->open_ms = (NowSec() - t0) * 1e3;
  t0 = NowSec();
  Must(opened.value().VerifyIntegrity(), "Db::VerifyIntegrity");
  t->verify_ms = (NowSec() - t0) * 1e3;
  built->emplace(std::move(db).value());
  return std::move(opened).value();
}

/// Unloaded single-caller layer probes: request r is statement
/// r % sqls.size(). Untraced one-shot calls (into `untraced_us`) and traced
/// ones, then each layer in turn over all requests: its children
/// Db::Prepare and PreparedQuery::Execute; the parser and AqpEngine::Compile
/// under Prepare; AqpEngine::Execute under Execute.
void ProbeLayers(const Db& db, const std::vector<std::string>& sqls,
                 size_t reps, SpanRecorder* rec,
                 std::vector<double>* untraced_us) {
  std::vector<PreparedQuery> prepared;
  std::vector<Query> parsed;
  std::vector<CompiledQuery> compiled;
  for (const std::string& sql : sqls) {
    auto pq = db.Prepare(sql);
    MustOk(pq, "Db::Prepare");
    prepared.push_back(std::move(pq).value());
    auto q = ParseSql(sql);
    MustOk(q, "ParseSql");
    auto cq = db.engine().Compile(q.value());
    MustOk(cq, "AqpEngine::Compile");
    parsed.push_back(std::move(q).value());
    compiled.push_back(std::move(cq).value());
  }
  auto k = [&](size_t r) { return r % sqls.size(); };
  // Untraced and traced one-shot passes alternate, so both see the same
  // machine state.
  std::vector<int64_t> root;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (const std::string& sql : sqls) {
      const double t0 = NowSec();
      auto res = db.ExecuteSql(sql);
      untraced_us->push_back((NowSec() - t0) * 1e6);
      MustOk(res, "Db::ExecuteSql");
    }
    const auto ids = TimeLayer(rec, "api.db.execute_sql",
                               std::vector<int64_t>(sqls.size(), -1), false,
                               [&](size_t r) {
      MustOk(db.ExecuteSql(sqls[k(r)]), "Db::ExecuteSql");
    }, rep * sqls.size());
    root.insert(root.end(), ids.begin(), ids.end());
  }
  const auto prep = TimeLayer(rec, "api.db.prepare", root, false,
                              [&](size_t r) {
    MustOk(db.Prepare(sqls[k(r)]), "Db::Prepare");
  });
  const auto exec = TimeLayer(rec, "api.db.execute", root, false,
                              [&](size_t r) {
    MustOk(prepared[k(r)].Execute(), "PreparedQuery::Execute");
  });
  TimeLayer(rec, "query.sql_parser.parse", prep, false, [&](size_t r) {
    MustOk(ParseSql(sqls[k(r)]), "ParseSql");
  });
  TimeLayer(rec, "query.engine.compile", prep, false, [&](size_t r) {
    MustOk(db.engine().Compile(parsed[k(r)]), "AqpEngine::Compile");
  });
  TimeLayer(rec, "query.engine.execute", exec, false, [&](size_t r) {
    MustOk(db.engine().Execute(compiled[k(r)]), "AqpEngine::Execute");
  });
}

}  // namespace

void RunAdhocEngine(const Args& args, Report* report) {
  const size_t rows = args.smoke ? 20000 : 200000;
  auto table_or = MakeDataset("flights", rows, kReferenceSeed);
  MustOk(table_or, "MakeDataset(flights)");
  LogPhase("data");
  const Table& table = table_or.value();
  // The paper's Table-5 evaluation: a fixed dataset and workload. The seed
  // shuffles the order the one-shot caller issues the statements in.
  WorkloadConfig wc = ScaledWorkloadConfig(kReferenceSeed);
  if (args.smoke) wc.num_queries = 40;
  auto workload = GenerateWorkload(table, wc);
  MustOk(workload, "GenerateWorkload");
  const std::vector<Query>& queries = workload.value();
  if (queries.empty()) Fatal("empty workload");
  std::vector<std::string> sqls;
  for (const Query& q : queries) sqls.push_back(q.ToSql());
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(args.seed));
  LogPhase("workload");

  // Set-up, several times; the last reopened Db answers.
  std::vector<SetupTimes> times(kSetupRepeats);
  std::optional<Db> db, built;
  std::string path;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    db.reset();
    built.reset();
    if (!path.empty()) std::remove(path.c_str());
    path = args.workdir + "/flights-" + std::to_string(i) + ".pws3";
    const double t0 = NowSec();
    db.emplace(SetUp(table, path, &times[i], &built));
    times[i].slowdown = HostSlowdown(t0, NowSec());
  }
  const double gd_ratio =
      built->compressed() != nullptr
          ? static_cast<double>(table.RawSizeBytes()) /
                static_cast<double>(built->compressed()->CompressedSizeBytes())
          : 0;
  built.reset();
  const double rss = RssMb();
  LogPhase("set-up");
  struct stat st_buf {};
  const double pws3_bytes =
      stat(path.c_str(), &st_buf) == 0 ? static_cast<double>(st_buf.st_size)
                                       : 0;

  // Ground truth from the generated table, and the expected one-shot
  // answers from prepared execution on the reopened Db (both untimed).
  std::vector<QueryResult> exact(queries.size()), expected(queries.size());
  std::vector<double> exact_us;
  Accuracy acc;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double t0 = NowSec();
    auto e = ExecuteExact(table, queries[i]);
    exact_us.push_back((NowSec() - t0) * 1e6);
    MustOk(e, "ExecuteExact");
    exact[i] = std::move(e).value();
    auto pq = db->Prepare(sqls[i]);
    MustOk(pq, "Db::Prepare");
    auto r = pq.value().Execute();
    MustOk(r, "PreparedQuery::Execute");
    expected[i] = std::move(r).value();
    acc.Add(exact[i], expected[i]);
  }
  if (args.corrupt && !expected[0].groups.empty()) {
    expected[0].groups[0].agg.upper += 1.0;
  }
  LogPhase("expected and exact");

  // Closed loop, one caller: one-shot ExecuteSql in workload order, on one
  // CPU so that the host correction is that CPU's.
  const int cpu = PinToProbedCpu();
  for (const std::string& sql : sqls) (void)db->ExecuteSql(sql);  // warm-up
  std::vector<Timed> lat;
  lat.reserve(1 << 21);
  const double t_start = NowSec();
  double now = t_start;
  for (size_t i = 0; now - t_start < args.seconds; ++i) {
    const size_t k = order[i % order.size()];
    const double t0 = NowSec();
    auto r = db->ExecuteSql(sqls[k]);
    now = NowSec();
    lat.push_back({now - t_start, (now - t0) * 1e6});
    report->checks.Record(r.ok() && SameResult(r.value(), expected[k]) &&
                          !MissingEstimate(exact[k], r.value()));
  }
  const LoadStats ws = CorrectedLoad(lat, args.seconds, t_start, cpu);
  LogPhase("load");

  std::vector<double> setup_s, build_s, save_ms, open_ms, verify_ms;
  for (const SetupTimes& t : times) {
    setup_s.push_back(t.total_s() / t.slowdown);
    build_s.push_back(t.build_s);
    save_ms.push_back(t.save_ms);
    open_ms.push_back(t.open_ms);
    verify_ms.push_back(t.verify_ms);
  }
  report->E2e("setup_s", "s", Median(setup_s));
  report->E2e("rss_mb", "MiB", rss);
  report->E2e("correct_pct", "%", report->checks.OkPct());
  report->E2e("stmt_qps", "1/s", ws.per_s);
  report->E2e("latency_p50_us", "us", ws.p50_us);
  report->E2e("latency_p99_us", "us", ws.p99_us);
  report->E2e("median_rel_err_pct", "%", acc.MedianRelErrPct());
  report->E2e("bound_hit_pct", "%", acc.BoundHitPct());
  report->E2e("synopsis_bytes", "bytes",
              static_cast<double>(db->StorageBytes()));

  report->Layer("query.exact.execute_us", "us", Median(exact_us));
  report->Layer("api.db.build_s", "s", Median(build_s));
  report->Layer("core.pws3.save_ms", "ms", Median(save_ms));
  report->Layer("core.pws3.open_ms", "ms", Median(open_ms));
  report->Layer("core.integrity.verify_ms", "ms", Median(verify_ms));
  report->Layer("gd.compression_ratio", "x", gd_ratio);
  report->Layer("core.pws3.bytes", "bytes", pws3_bytes);
  report->Layer("query.segment_exec.segments_avg", "count",
                static_cast<double>(db->num_segments()));
  if (!args.trace) return;

  // GreedyGD alone, on the same table (it also runs inside the build).
  {
    const double t0 = NowSec();
    auto c = CompressTable(table);
    const double dt = NowSec() - t0;
    MustOk(c, "CompressTable");
    report->Layer("gd.compress_s", "s", dt);
  }
  // Layer-in-turn probes, unloaded, one caller.
  const size_t reps = args.smoke ? 2 : 5;
  std::vector<double> untraced;
  SpanRecorder rec(reps * sqls.size() * 6 + 16);
  ProbeLayers(*db, sqls, reps, &rec, &untraced);
  LogPhase("layer probes");
  auto self = rec.SelfTimesUs();
  auto dur = rec.DurationsUs();
  double self_sum_mean = 0;
  for (const auto& [name, v] : self) self_sum_mean += Mean(v);
  const double untraced_mean = Mean(untraced);
  report->Layer("api.db.execute_sql_us", "us",
                Median(self["api.db.execute_sql"]));
  report->Layer("api.db.prepare_us", "us", Median(self["api.db.prepare"]));
  report->Layer("api.db.execute_us", "us", Median(self["api.db.execute"]));
  report->Layer("query.sql_parser.parse_us", "us",
                Median(self["query.sql_parser.parse"]));
  report->Layer("query.engine.compile_us", "us",
                Median(self["query.engine.compile"]));
  report->Layer("query.engine.execute_us", "us",
                Median(self["query.engine.execute"]));
  report->Layer("trace.unloaded_us", "us", Median(untraced));
  report->Layer("trace.coverage_pct", "%",
                100.0 * self_sum_mean / untraced_mean);
  report->Layer("trace.overhead_pct", "%",
                100.0 * (Mean(dur["api.db.execute_sql"]) - untraced_mean) /
                    untraced_mean);
  report->Layer("trace.span_ns", "ns", SpanRecorder::CalibrateSpanNs());
  if (!rec.WriteCsv(args.workdir + "/spans.csv")) Fatal("cannot write spans");
}

}  // namespace perfbench
