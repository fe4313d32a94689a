// dashboard_http: the production front door. Four keep-alive loopback
// connections, closed loop; each client pipelines 8-statement dashboard
// pages (all eight aggregates share one 5-predicate filter) and cycles
// through 8 seeded pages, so the 64 distinct statements fit the plan
// cache. The table is `power`, 200k rows in 4 segments of 50k, with no
// appends. Every HTTP answer must be byte-equal to the in-process
// Db::ExecuteBatch answer for the same statement.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "datagen/datasets.h"
#include "query/exact.h"
#include "query/partial_agg.h"
#include "query/sql_parser.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/service.h"
#include "serve/serving_db.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pairwisehist;

constexpr size_t kClients = 4;
constexpr size_t kPageStatements = 8;
constexpr size_t kServedPages = 8;
constexpr size_t kAccuracyPages = 64;
constexpr size_t kSetupRepeats = 3;

using Page = std::vector<std::string>;

/// Value at quantile q of a column (from a strided sample).
double ColumnQuantile(const Table& t, const std::string& col, double q) {
  auto c = t.FindColumn(col);
  MustOk(c, "power column");
  const std::vector<double>& v = c.value()->values();
  std::vector<double> sample;
  const size_t stride = std::max<size_t>(1, v.size() / 4096);
  for (size_t i = 0; i < v.size(); i += stride) sample.push_back(v[i]);
  return Quantile(sample, q);
}

/// Seeded dashboard pages: one 5-predicate filter per page (bench_serve's
/// shape, with seeded thresholds), eight aggregates of one column. A page
/// whose filter selects fewer than 100 rows is drawn again.
std::vector<Page> MakePages(const Table& table, uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  static const char* kAggCols[] = {"global_active_power",
                                   "global_reactive_power", "voltage",
                                   "global_intensity", "sub_metering_1",
                                   "sub_metering_2"};
  static const char* kFuncs[] = {"COUNT", "SUM",   "AVG",    "VAR",
                                 "MIN",   "MAX",   "MEDIAN", "MEAN"};
  std::vector<Page> pages;
  while (pages.size() < n) {
    char where[512];
    std::snprintf(
        where, sizeof(where),
        " FROM power WHERE hour >= %d AND voltage > %.2f AND "
        "global_intensity > %.1f AND sub_metering_3 < %.1f AND "
        "day_of_week < %d;",
        static_cast<int>(u(rng) * 12),
        ColumnQuantile(table, "voltage", 0.05 + 0.45 * u(rng)),
        ColumnQuantile(table, "global_intensity", 0.05 + 0.45 * u(rng)),
        ColumnQuantile(table, "sub_metering_3", 0.5 + 0.45 * u(rng)),
        3 + static_cast<int>(u(rng) * 5));
    auto count =
        ExecuteExactSql(table, std::string("SELECT COUNT(*)") + where);
    MustOk(count, "page selectivity");
    if (count.value().groups.empty() ||
        count.value().groups[0].agg.estimate < 100) {
      continue;
    }
    const std::string col = kAggCols[pages.size() % 6];
    Page page;
    for (const char* f : kFuncs) {
      page.push_back(std::string("SELECT ") + f + "(" + col + ")" + where);
    }
    pages.push_back(std::move(page));
  }
  return pages;
}

std::string QueryBody(const std::string& sql) {
  std::string body = "{\"sql\":";
  AppendJsonString(&body, sql);
  body += "}";
  return body;
}

/// The exact response body /query answers with for `result` at epoch 0.
std::string ExpectedBody(const QueryResult& result) {
  std::string body = "{\"epoch\":0,\"result\":";
  AppendQueryResult(&body, result);
  body += "}";
  return body;
}

DbOptions DashboardOptions(size_t rows) {
  DbOptions o;
  // bench_serve's synopsis settings.
  o.synopsis.sample_size = rows / 2;
  o.synopsis.min_points_override = 64;
  o.keep_table = false;
  o.target_segment_rows = rows / 4;
  return o;
}

struct Served {
  std::unique_ptr<ServingDb> serving;
  std::unique_ptr<HttpServer> server;
};

/// One set-up: build the Db, wrap it for serving, start the server.
/// Returns the seconds spent in those calls, corrected for the host.
double SetUp(const Table& table, size_t rows, Served* out) {
  Table copy = table;
  return HostSeconds([&] {
    auto db = Db::FromTable(std::move(copy), DashboardOptions(rows));
    MustOk(db, "Db::FromTable");
    out->serving = std::make_unique<ServingDb>(std::move(db).value());
    out->server = std::make_unique<HttpServer>(
        MakeServingHandler(out->serving.get()),
        MakeServingBatchHandler(out->serving.get()));
    Must(out->server->Start(0), "HttpServer::Start");
  });
}

/// Closed loop: kClients connections, each pipelining its pages in turn.
/// `expected[p][i]` is the body statement i of page p must answer with.
/// `*t_start` receives the NowSec() time the measurement began.
std::vector<Timed> RunLoad(
    uint16_t port, const std::vector<std::vector<std::string>>& bodies,
    const std::vector<std::vector<std::string>>& expected, double seconds,
    double warmup_seconds, Checks* checks, double* t_start) {
  std::atomic<bool> measuring{false}, stop{false};
  std::atomic<double> start{0};
  std::atomic<size_t> ready{0};
  std::vector<std::vector<Timed>> lat(kClients);
  std::vector<uint64_t> attempted(kClients, 0), failed(kClients, 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client;
      const bool connected = client.Connect("127.0.0.1", port).ok();
      ready.fetch_add(1);
      if (!connected) {
        ++attempted[c];
        ++failed[c];
        return;
      }
      lat[c].reserve(1 << 16);
      for (size_t p = c; !stop.load(std::memory_order_acquire); ++p) {
        const size_t page = p % bodies.size();
        const bool timed = measuring.load(std::memory_order_acquire);
        const double t0 = NowSec();
        auto resps =
            client.RequestPipelined("POST", "/query", bodies[page]);
        const double dt = NowSec() - t0;
        if (!timed) continue;
        for (size_t i = 0; i < bodies[page].size(); ++i) {
          const bool ok = resps.ok() &&
                          resps.value().size() == bodies[page].size() &&
                          resps.value()[i].status == 200 &&
                          resps.value()[i].body == expected[page][i];
          ++attempted[c];
          if (!ok) ++failed[c];
        }
        lat[c].push_back({t0 + dt - start.load(), dt * 1e6});
        if (!resps.ok()) {
          client.Close();
          if (!client.Connect("127.0.0.1", port).ok()) return;
        }
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  const double w0 = NowSec();
  while (NowSec() - w0 < warmup_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double t0 = NowSec();
  *t_start = t0;
  start.store(t0);
  measuring.store(true, std::memory_order_release);
  while (NowSec() - t0 < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  std::vector<Timed> pages;
  for (size_t c = 0; c < kClients; ++c) {
    pages.insert(pages.end(), lat[c].begin(), lat[c].end());
    checks->attempted += attempted[c];
    checks->failed += failed[c];
  }
  return pages;
}

/// Unloaded single-caller layer probes: each page is timed at every layer
/// boundary in turn — loopback HTTP, the batch handler, ServingDb::
/// QueryBatch, Db::ExecuteBatch and each segment's AqpEngine batch — and
/// every layer's span is linked to the layer above it for that page.
/// `untraced_us` receives untraced HTTP round trips of the same pages.
void ProbeLayers(Served* s, const std::vector<Page>& pages,
                 const std::vector<std::vector<std::string>>& bodies,
                 size_t reps, SpanRecorder* rec,
                 std::vector<double>* untraced_us) {
  HttpClient client;
  Must(client.Connect("127.0.0.1", s->server->port()), "probe connect");
  HttpServer::BatchHandler handler = MakeServingBatchHandler(s->serving.get());
  std::shared_ptr<const DbSnapshot> snap = s->serving->snapshot();
  const Db& db = snap->db;
  const SegmentedExecutor& exec = db.executor();

  // Inputs of every layer, built once so only the calls are timed.
  struct PageInputs {
    std::vector<HttpRequest> reqs;
    std::vector<PreparedQuery> prepared;
    // Per segment: compiled plans, partial results and pointers to both.
    std::vector<std::vector<CompiledQuery>> compiled;
    std::vector<std::vector<PartialResult>> parts;
    std::vector<std::vector<const CompiledQuery*>> plan_ptrs;
    std::vector<std::vector<PartialResult*>> part_ptrs;
  };
  const size_t segs = exec.NumSegments();
  std::vector<PageInputs> inputs(pages.size());
  for (size_t p = 0; p < pages.size(); ++p) {
    PageInputs& in = inputs[p];
    for (size_t i = 0; i < pages[p].size(); ++i) {
      HttpRequest req;
      req.method = "POST";
      req.path = "/query";
      req.body = bodies[p][i];
      in.reqs.push_back(std::move(req));
      auto pq = db.Prepare(pages[p][i]);
      MustOk(pq, "Db::Prepare");
      in.prepared.push_back(std::move(pq).value());
    }
    in.compiled.resize(segs);
    in.parts.resize(segs);
    in.plan_ptrs.resize(segs);
    in.part_ptrs.resize(segs);
    for (size_t seg = 0; seg < segs; ++seg) {
      for (const std::string& sql : pages[p]) {
        auto q = ParseSql(sql);
        MustOk(q, "ParseSql");
        auto cq = exec.engine(seg).Compile(q.value());
        MustOk(cq, "AqpEngine::Compile");
        in.compiled[seg].push_back(std::move(cq).value());
      }
      in.parts[seg].resize(pages[p].size());
      for (size_t i = 0; i < pages[p].size(); ++i) {
        in.plan_ptrs[seg].push_back(&in.compiled[seg][i]);
        in.part_ptrs[seg].push_back(&in.parts[seg][i]);
      }
    }
  }

  // Request r is page r % pages.size(). Untraced and traced round trips
  // alternate by pass; then each layer in turn, top down, every call back to
  // back like the loaded loop; a span links to the span of the layer above
  // for the same request.
  auto page = [&](size_t r) { return r % pages.size(); };
  std::vector<QueryResult> results;
  std::vector<Status> statuses;
  std::vector<int64_t> http;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t p = 0; p < pages.size(); ++p) {
      const double t0 = NowSec();
      auto resps = client.RequestPipelined("POST", "/query", bodies[p]);
      untraced_us->push_back((NowSec() - t0) * 1e6);
      MustOk(resps, "unloaded page");
    }
    const auto ids = TimeLayer(rec, "serve.http",
                               std::vector<int64_t>(pages.size(), -1), false,
                               [&](size_t r) {
      MustOk(client.RequestPipelined("POST", "/query", bodies[page(r)]),
             "probe page");
    }, rep * pages.size());
    http.insert(http.end(), ids.begin(), ids.end());
  }
  const auto svc = TimeLayer(rec, "serve.service", http, false, [&](size_t r) {
    if (handler(inputs[page(r)].reqs).size() != pages[page(r)].size()) {
      Fatal("batch handler answer count");
    }
  });
  const auto sdb =
      TimeLayer(rec, "serve.serving_db", svc, false, [&](size_t r) {
        Must(s->serving->QueryBatch(pages[page(r)], &results, &statuses),
             "ServingDb::QueryBatch");
      });
  const auto dbs = TimeLayer(rec, "api.db", sdb, /*parallel_children=*/true,
                             [&](size_t r) {
    Must(db.ExecuteBatch(inputs[page(r)].prepared, &results),
         "Db::ExecuteBatch");
  });
  for (size_t seg = 0; seg < segs; ++seg) {
    TimeLayer(rec, "query.engine", dbs, false, [&](size_t r) {
      PageInputs& in = inputs[page(r)];
      Must(exec.engine(seg).ExecutePartialBatchInto(in.plan_ptrs[seg],
                                                    in.part_ptrs[seg]),
           "AqpEngine::ExecutePartialBatchInto");
    });
  }
}

}  // namespace

void RunDashboardHttp(const Args& args, Report* report) {
  const size_t rows = args.smoke ? 20000 : 200000;
  auto table_or = MakeDataset("power", rows, kReferenceSeed);
  MustOk(table_or, "MakeDataset(power)");
  const Table& table = table_or.value();
  // Accuracy is measured on fixed reference pages; the served pages come
  // from the seed.
  const std::vector<Page> reference =
      MakePages(table, kReferenceSeed, kAccuracyPages);
  const std::vector<Page> served = MakePages(table, args.seed, kServedPages);
  LogPhase("data and pages");

  // Set-up, several times; the last one serves.
  Served s;
  std::vector<double> setup;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    s.server.reset();  // the server holds the ServingDb: stop it first
    s.serving.reset();
    setup.push_back(SetUp(table, rows, &s));
  }
  const double rss = RssMb();
  LogPhase("set-up");
  const Db& db = s.serving->snapshot()->db;

  // Expected bodies from in-process Db::ExecuteBatch (untimed), and the
  // accuracy of the reference pages against exact answers.
  auto execute_page = [&](const Page& page) {
    std::vector<PreparedQuery> pqs;
    for (const std::string& sql : page) {
      auto pq = db.Prepare(sql);
      MustOk(pq, "Db::Prepare");
      pqs.push_back(std::move(pq).value());
    }
    std::vector<QueryResult> results;
    Must(db.ExecuteBatch(pqs, &results), "Db::ExecuteBatch");
    return std::make_pair(std::move(pqs), std::move(results));
  };
  std::vector<std::vector<std::string>> bodies(kServedPages);
  std::vector<std::vector<std::string>> expected(kServedPages);
  for (size_t p = 0; p < kServedPages; ++p) {
    const auto [pqs, results] = execute_page(served[p]);
    for (size_t i = 0; i < served[p].size(); ++i) {
      bodies[p].push_back(QueryBody(served[p][i]));
      expected[p].push_back(ExpectedBody(results[i]));
    }
  }
  Accuracy acc;
  for (const Page& page : reference) {
    const auto [pqs, results] = execute_page(page);
    for (size_t i = 0; i < page.size(); ++i) {
      auto exact = ExecuteExact(table, pqs[i].query());
      MustOk(exact, "ExecuteExact");
      acc.Add(exact.value(), results[i]);
    }
  }
  if (args.corrupt) expected[0][0][expected[0][0].size() - 3] ^= 1;
  LogPhase("expected and exact");

  const ServingStats before = s.serving->Stats();
  double t_start = 0;
  const std::vector<Timed> load =
      RunLoad(s.server->port(), bodies, expected, args.seconds,
              args.smoke ? 0.1 : 0.5, &report->checks, &t_start);
  const ServingStats after = s.serving->Stats();
  if (load.empty()) Fatal("no page completed");
  const LoadStats ws = CorrectedLoad(load, args.seconds, t_start);
  LogPhase("load");

  const double page_p50 = ws.p50_us;
  report->E2e("setup_s", "s", Median(setup));
  report->E2e("rss_mb", "MiB", rss);
  report->E2e("correct_pct", "%", report->checks.OkPct());
  report->E2e("stmt_qps", "1/s",
              ws.per_s * static_cast<double>(kPageStatements));
  report->E2e("latency_p50_us", "us", page_p50);
  report->E2e("latency_p99_us", "us", ws.p99_us);
  report->E2e("median_rel_err_pct", "%", acc.MedianRelErrPct());
  report->E2e("bound_hit_pct", "%", acc.BoundHitPct());
  report->E2e("synopsis_bytes", "bytes",
              static_cast<double>(db.StorageBytes()));

  ReportServingCounters(before, after, report);
  report->Layer("query.segment_exec.segments_avg", "count",
                static_cast<double>(db.num_segments()));
  if (!args.trace) return;

  // Traced: layer-in-turn probes, unloaded, one caller.
  const size_t reps = args.smoke ? 20 : 400;
  std::vector<double> untraced;
  SpanRecorder rec(reps * kServedPages * 8 + 64);
  ProbeLayers(&s, served, bodies, reps, &rec, &untraced);
  LogPhase("layer probes");
  auto self = rec.SelfTimesUs();
  auto dur = rec.DurationsUs();
  // Per page: the slowest and the summed segment batch.
  std::vector<double> seg_max, seg_sum;
  {
    std::vector<double> mx(rec.size(), 0), sm(rec.size(), 0);
    std::vector<bool> has(rec.size(), false);
    for (size_t i = 0; i < rec.size(); ++i) {
      const Span& sp = rec.span(i);
      if (std::string(sp.name) != "query.engine" || sp.parent < 0) continue;
      const double d = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
      mx[sp.parent] = std::max(mx[sp.parent], d);
      sm[sp.parent] += d;
      has[sp.parent] = true;
    }
    for (size_t i = 0; i < rec.size(); ++i) {
      if (has[i]) {
        seg_max.push_back(mx[i]);
        seg_sum.push_back(sm[i]);
      }
    }
  }
  // Critical path per page: transport, JSON handler, ServingDb, fan-out
  // and the slowest segment.
  const double path_mean = Mean(self["serve.http"]) +
                           Mean(self["serve.service"]) +
                           Mean(self["serve.serving_db"]) +
                           Mean(self["api.db"]) + Mean(seg_max);
  report->Layer("serve.http.transport_us", "us", Median(self["serve.http"]));
  report->Layer("serve.service.json_us", "us", Median(self["serve.service"]));
  report->Layer("serve.serving_db.overhead_us", "us",
                Median(self["serve.serving_db"]));
  report->Layer("api.db.execute_batch_us", "us", Median(dur["api.db"]));
  report->Layer("query.segment_exec.fanout_us", "us", Median(self["api.db"]));
  report->Layer("query.engine.batch_max_us", "us", Median(seg_max));
  report->Layer("query.engine.batch_sum_us", "us", Median(seg_sum));
  report->Layer("serve.queue_wait_us", "us",
                ws.raw_p50_us - Median(untraced));
  report->Layer("trace.unloaded_us", "us", Median(untraced));
  report->Layer("trace.coverage_pct", "%", 100.0 * path_mean / Mean(untraced));
  report->Layer("trace.overhead_pct", "%",
                100.0 * (Mean(dur["serve.http"]) - Mean(untraced)) /
                    Mean(untraced));
  report->Layer("trace.span_ns", "ns", SpanRecorder::CalibrateSpanNs());
  if (!rec.WriteCsv(args.workdir + "/spans.csv")) {
    Fatal("cannot write spans");
  }
  s.server->Stop();
}

}  // namespace perfbench
