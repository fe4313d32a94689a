// ingest_mixed: reads beside writes on a durable in-process ServingDb. The
// WAL fsyncs on every append (kAlways, local filesystem) and background
// compaction runs every 50 ms. An open-loop writer appends one 1.3k-row
// `power` batch every 100 ms, each timed from its due time; two closed-loop
// readers call ServingDb::Query over ~300 ad-hoc statements. After
// the final Checkpoint and Recover the row count must equal the base rows
// plus every acknowledged append. Accuracy comes from an untimed serial
// replay of the same appends through Db::Append, so it does not depend on
// thread timing.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "datagen/datasets.h"
#include "harness/workload.h"
#include "serve/serving_db.h"
#include "storage/wal.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pairwisehist;

constexpr size_t kSetupRepeats = 3;
constexpr size_t kReaders = 2;
constexpr size_t kAccuracyEvery = 10;  // appends between accuracy passes
constexpr size_t kReadProbeReps = 5;
/// Segment and compaction builds of the served Db run on one thread each,
/// so the writer, the compactor and the two readers never want more than
/// the 4 cores: with builds fanned out over 3 or 4 threads the read tail
/// measured the scheduler (read p99 spread 12-15% between runs, one run in
/// five 4x higher).
constexpr unsigned kServedBuildThreads = 1;

struct Config {
  size_t base_rows = 200000;
  /// 13k rows/s, as 1.3k-row batches every 100 ms so that a 20 s run holds
  /// 200 appends: at 20k rows/s single-threaded compaction fell behind by a
  /// different amount each run, and so did the segment count reads pay for.
  size_t batch_rows = 1300;
  double interval_s = 0.100;
  size_t read_statements = 300;
  size_t accuracy_per_pass = 15;
  size_t probe_appends = 60;
  size_t probe_reads = 100;
};

CompactionOptions Compaction() {
  CompactionOptions c;
  c.enabled = true;
  c.interval_ms = 50;
  return c;
}

/// `build_threads`: kServedBuildThreads for the served Db, 0 (one per core)
/// for the untimed replay. Construction output is identical for any value.
DbOptions IngestDbOptions(size_t base_rows, bool keep_table,
                          unsigned build_threads) {
  DbOptions o;
  o.build_threads = build_threads;
  o.synopsis.sample_size = base_rows / 2;
  o.synopsis.min_points_override = 64;
  o.keep_table = keep_table;
  o.target_segment_rows = base_rows;
  o.compact = Compaction();
  // Each reader executes its segments serially: the two readers already
  // keep two cores busy, and cross-thread fan-out made the read tail vary
  // far more from run to run (segment fan-out is exercised by
  // dashboard_http).
  o.exec_threads = 1;
  return o;
}

ServingOptions Serving(const std::string& dir) {
  ServingOptions s;
  s.durability.dir = dir;
  s.durability.fsync = WalOptions::Fsync::kAlways;
  s.compaction = Compaction();
  return s;
}

/// One set-up: build the base Db and start durable serving in `dir`.
double SetUp(const Table& base, const std::string& dir,
             std::unique_ptr<ServingDb>* out) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Table copy = base;
  return HostSeconds([&] {
    auto db = Db::FromTable(
        std::move(copy),
        IngestDbOptions(base.NumRows(), false, kServedBuildThreads));
    MustOk(db, "Db::FromTable");
    auto serving =
        ServingDb::CreateDurable(std::move(db).value(), Serving(dir));
    MustOk(serving, "ServingDb::CreateDurable");
    *out = std::move(serving).value();
  });
}

struct LoadResult {
  std::vector<Timed> reads;
  std::vector<double> append_ms;
  std::vector<double> late_ms;
  uint64_t acked_rows = 0;
  double t_start = 0;  ///< NowSec() time the reads' at_s count from
  double seconds = 0;
  double backlog_max = 0;
  double segments_avg = 0;
};

LoadResult RunLoad(ServingDb* serving, const std::vector<Table>& batches,
                   const std::vector<std::string>& sqls, double interval_s,
                   Checks* checks) {
  LoadResult r;
  std::atomic<bool> stop{false};
  std::vector<std::vector<Timed>> lat(kReaders);
  const double t_base = NowSec();
  r.t_start = t_base;
  std::vector<Checks> reader_checks(kReaders);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      QueryResult result;
      lat[t].reserve(1 << 17);
      for (size_t i = t * sqls.size() / kReaders;
           !stop.load(std::memory_order_acquire); ++i) {
        const std::string& sql = sqls[i % sqls.size()];
        const double t0 = NowSec();
        const Status st = serving->Query(sql, &result);
        const double t1 = NowSec();
        lat[t].push_back({t1 - t_base, (t1 - t0) * 1e6});
        reader_checks[t].Record(st.ok());
      }
    });
  }
  // Open-loop writer on this thread's schedule; a sampler watches the
  // compaction backlog and the segment count.
  std::atomic<bool> writer_done{false};
  std::vector<double> backlog, segments;
  std::thread sampler([&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      backlog.push_back(
          static_cast<double>(serving->Stats().compaction_backlog));
      segments.push_back(
          static_cast<double>(serving->snapshot()->db.num_segments()));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batches.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(interval_s * i));
    std::this_thread::sleep_until(due);
    const auto sent = std::chrono::steady_clock::now();
    const Status st = serving->Append(batches[i]);
    const auto done = std::chrono::steady_clock::now();
    r.append_ms.push_back(
        std::chrono::duration<double, std::milli>(done - due).count());
    r.late_ms.push_back(
        std::chrono::duration<double, std::milli>(sent - due).count());
    checks->Record(st.ok());
    if (st.ok()) r.acked_rows += batches[i].NumRows();
  }
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  writer_done.store(true, std::memory_order_release);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  sampler.join();
  for (size_t t = 0; t < kReaders; ++t) {
    r.reads.insert(r.reads.end(), lat[t].begin(), lat[t].end());
    checks->attempted += reader_checks[t].attempted;
    checks->failed += reader_checks[t].failed;
  }
  r.backlog_max = backlog.empty()
                      ? 0
                      : *std::max_element(backlog.begin(), backlog.end());
  r.segments_avg = Mean(segments);
  return r;
}

/// Untimed serial replay of the same append sequence through Db::Append
/// (same compaction options). After every kAccuracyEvery-th append the next
/// `per_pass` read statements (rotating through all of them) run against
/// exact answers.
Db Replay(const Table& base, const std::vector<Table>& batches,
          const std::vector<Query>& queries, size_t per_pass, Accuracy* acc) {
  auto db = Db::FromTable(base, IngestDbOptions(base.NumRows(), true, 0));
  MustOk(db, "replay Db::FromTable");
  for (size_t i = 0; i < batches.size(); ++i) {
    Must(db.value().Append(batches[i]), "replay Db::Append");
    if ((i + 1) % kAccuracyEvery != 0) continue;
    const size_t pass = (i + 1) / kAccuracyEvery - 1;
    for (size_t j = 0; j < per_pass; ++j) {
      const Query& q = queries[(pass * per_pass + j) % queries.size()];
      auto approx = db.value().Execute(q);
      MustOk(approx, "replay Db::Execute");
      auto exact = db.value().ExecuteExact(q);
      MustOk(exact, "replay Db::ExecuteExact");
      acc->Add(exact.value(), approx.value());
    }
  }
  return std::move(db).value();
}

}  // namespace

void RunIngestMixed(const Args& args, Report* report) {
  Config cfg;
  if (args.smoke) {
    cfg.base_rows = 20000;
    cfg.batch_rows = 500;
    cfg.interval_s = 0.05;
    cfg.read_statements = 30;
    cfg.accuracy_per_pass = 5;
    cfg.probe_appends = 3;
    cfg.probe_reads = 10;
  }
  const size_t appends = std::max<size_t>(
      kAccuracyEvery, static_cast<size_t>(args.seconds / cfg.interval_s));

  auto base_or = MakeDataset("power", cfg.base_rows, kReferenceSeed);
  MustOk(base_or, "MakeDataset(power)");
  const Table& base = base_or.value();
  std::vector<Table> batches, probe_batches;
  for (size_t i = 0; i < appends + 2 * cfg.probe_appends; ++i) {
    auto b = MakeDataset("power", cfg.batch_rows,
                         kReferenceSeed * 100003 + i + 1);
    MustOk(b, "MakeDataset(batch)");
    (i < appends ? batches : probe_batches).push_back(std::move(b).value());
  }
  // The appended batches and the statements are fixed references (the
  // statements also serve as the accuracy set); the seed shuffles the order
  // the readers issue them in.
  WorkloadConfig wc = ScaledWorkloadConfig(kReferenceSeed);
  wc.num_queries = cfg.read_statements;
  auto workload = GenerateWorkload(base, wc);
  MustOk(workload, "GenerateWorkload");
  const std::vector<Query>& queries = workload.value();
  if (queries.empty()) Fatal("empty workload");
  std::vector<std::string> sqls;
  for (const Query& q : queries) sqls.push_back(q.ToSql());
  std::shuffle(sqls.begin(), sqls.end(), std::mt19937_64(args.seed));
  LogPhase("data and workload");

  // Set-up, several times; the last one serves.
  std::unique_ptr<ServingDb> serving;
  std::vector<double> setup;
  std::string dir;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    serving.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = args.workdir + "/serving-" + std::to_string(i);
    setup.push_back(SetUp(base, dir, &serving));
  }
  const double rss = RssMb();
  LogPhase("set-up");

  for (const std::string& sql : sqls) {  // warm the plan cache
    QueryResult r;
    Must(serving->Query(sql, &r), "warm-up ServingDb::Query");
  }
  const ServingStats before = serving->Stats();
  LoadResult load =
      RunLoad(serving.get(), batches, sqls, cfg.interval_s, &report->checks);
  const ServingStats after = serving->Stats();
  LogPhase("load");
  uint64_t expected_rows = base.NumRows() + load.acked_rows;
  const std::vector<ServingDb::CompactionEvent> events =
      serving->CompactionLog();

  // Traced: unloaded layer probes of the append and the read path.
  SpanRecorder rec(3 * cfg.probe_appends +
                   2 * kReadProbeReps * cfg.probe_reads + 16);
  std::vector<double> untraced_append, untraced_read;
  if (args.trace) {
    // Unloaded means no background work either: restart from a checkpoint
    // without background compaction, whose merges and the checkpoints
    // after them (which hold the append lock) would otherwise land on
    // some probes and not others.
    Must(serving->Checkpoint(), "ServingDb::Checkpoint");
    serving.reset();
    ServingOptions quiet = Serving(dir);
    quiet.compaction.interval_ms = 0;
    auto restarted = ServingDb::Recover(quiet);
    MustOk(restarted, "ServingDb::Recover");
    serving = std::move(restarted).value();
    auto wal = Wal::Open(args.workdir + "/probe.wal", WalOptions{});
    MustOk(wal, "Wal::Open");
    // Untraced and traced probes alternate, so both see the same state.
    for (size_t k = 0; k < cfg.probe_appends; ++k) {
      const Table& plain = probe_batches[2 * k];
      const double t0 = NowSec();
      Must(serving->Append(plain), "probe ServingDb::Append");
      untraced_append.push_back((NowSec() - t0) * 1e6);
      expected_rows += plain.NumRows();

      const Table& b = probe_batches[2 * k + 1];
      std::shared_ptr<const DbSnapshot> snap = serving->snapshot();
      const int64_t with = rec.Begin("api.db.with_appended", k);
      auto next = snap->db.WithAppended(b);
      rec.End(with);
      MustOk(next, "Db::WithAppended");
      const int64_t log = rec.Begin("storage.wal.append", k);
      const Status wst = wal.value().Append(EncodeWalBatch(snap->epoch + 1, b));
      rec.End(log);
      Must(wst, "Wal::Append");
      snap.reset();
      const int64_t root = rec.Begin("serve.serving_db.append", k);
      const Status ast = serving->Append(b);
      rec.End(root);
      Must(ast, "probe ServingDb::Append");
      rec.Adopt(with, root);
      rec.Adopt(log, root);
      expected_rows += b.NumRows();
    }
    // Reads: untraced and traced ServingDb::Query passes alternate, then
    // the child layer in its own loop over the same statements.
    for (size_t k = 0; k < cfg.probe_reads; ++k) {  // refill the plan cache
      QueryResult r;
      Must(serving->Query(sqls[k % sqls.size()], &r), "ServingDb::Query");
    }
    // Read requests are numbered after the append requests.
    const size_t first = cfg.probe_appends;
    auto sql = [&](size_t r) -> const std::string& {
      return sqls[((r - first) % cfg.probe_reads) % sqls.size()];
    };
    std::shared_ptr<const DbSnapshot> snap = serving->snapshot();
    std::vector<PreparedQuery> prepared;
    for (size_t k = 0; k < cfg.probe_reads; ++k) {
      auto pq = snap->db.Prepare(sql(first + k));
      MustOk(pq, "Db::Prepare");
      prepared.push_back(std::move(pq).value());
    }
    QueryResult result;
    std::vector<int64_t> root;
    for (size_t rep = 0; rep < kReadProbeReps; ++rep) {
      for (size_t k = 0; k < cfg.probe_reads; ++k) {
        const double t0 = NowSec();
        Must(serving->Query(sql(first + k), &result), "probe ServingDb::Query");
        untraced_read.push_back((NowSec() - t0) * 1e6);
      }
      const auto ids = TimeLayer(&rec, "serve.serving_db.query",
                                 std::vector<int64_t>(cfg.probe_reads, -1),
                                 false, [&](size_t r) {
        Must(serving->Query(sql(r), &result), "probe ServingDb::Query");
      }, first + rep * cfg.probe_reads);
      root.insert(root.end(), ids.begin(), ids.end());
    }
    TimeLayer(&rec, "query.segment_exec.execute", root, false, [&](size_t r) {
      Must(prepared[(r - first) % cfg.probe_reads].ExecuteInto(&result),
           "PreparedQuery::ExecuteInto");
    }, first);
  }
  LogPhase("layer probes");

  // Restart: final checkpoint, close, recover, count rows.
  double t0 = NowSec();
  Must(serving->Checkpoint(), "ServingDb::Checkpoint");
  const double checkpoint_ms = (NowSec() - t0) * 1e3;
  serving.reset();
  t0 = NowSec();
  auto recovered = ServingDb::Recover(Serving(dir));
  const double recover_ms = (NowSec() - t0) * 1e3;
  MustOk(recovered, "ServingDb::Recover");
  if (args.corrupt) ++expected_rows;
  report->checks.Record(recovered.value()->snapshot()->db.total_rows() ==
                        expected_rows);
  recovered.value().reset();
  LogPhase("checkpoint and recover");

  // Accuracy from the serial replay, and the compaction builds replayed
  // from the serving compaction log.
  Accuracy acc;
  Db replay = Replay(base, batches, queries, cfg.accuracy_per_pass, &acc);
  LogPhase("replay");
  std::vector<double> build_ms;
  for (const auto& ev : events) {
    if (ev.spec.row_end > replay.total_rows() || build_ms.size() >= 3) continue;
    const double b0 = NowSec();
    auto run = replay.BuildCompaction(ev.spec);
    build_ms.push_back((NowSec() - b0) * 1e3);
    MustOk(run, "Db::BuildCompaction");
  }

  report->E2e("setup_s", "s", Median(setup));
  report->E2e("rss_mb", "MiB", rss);
  report->E2e("correct_pct", "%", report->checks.OkPct());
  const LoadStats ws = CorrectedLoad(load.reads, load.seconds, load.t_start);
  report->E2e("stmt_qps", "1/s", ws.per_s);
  report->E2e("latency_p50_us", "us", ws.p50_us);
  report->E2e("latency_p99_us", "us", ws.p99_us);
  report->E2e("median_rel_err_pct", "%", acc.MedianRelErrPct());
  report->E2e("bound_hit_pct", "%", acc.BoundHitPct());
  report->E2e("synopsis_bytes", "bytes",
              static_cast<double>(replay.StorageBytes()));

  const double appended_rows =
      static_cast<double>(std::max<uint64_t>(1, load.acked_rows));
  const double n_appends = static_cast<double>(
      std::max<uint64_t>(1, after.appends - before.appends));
  report->Layer("ingest.append_p50_ms", "ms", Quantile(load.append_ms, 0.50));
  report->Layer("ingest.append_p95_ms", "ms", Quantile(load.append_ms, 0.95));
  report->Layer("ingest.writer_late_ms", "ms", Quantile(load.late_ms, 0.95));
  report->Layer("storage.wal.bytes_per_row", "bytes",
                static_cast<double>(after.wal_bytes - before.wal_bytes) /
                    appended_rows);
  report->Layer("storage.wal.fsyncs_per_append", "count",
                static_cast<double>(after.wal_fsyncs - before.wal_fsyncs) /
                    n_appends);
  report->Layer("storage.compactor.runs", "count",
                static_cast<double>(after.compaction_runs -
                                    before.compaction_runs));
  report->Layer("storage.compactor.rows_rewritten_per_row", "count",
                static_cast<double>(after.compaction_rows_rewritten -
                                    before.compaction_rows_rewritten) /
                    appended_rows);
  report->Layer("storage.compactor.backlog_max", "count", load.backlog_max);
  report->Layer("storage.compactor.build_ms", "ms", Median(build_ms));
  report->Layer("query.segment_exec.segments_avg", "count", load.segments_avg);
  ReportServingCounters(before, after, report);
  report->Layer("serve.serving_db.checkpoint_ms", "ms", checkpoint_ms);
  report->Layer("serve.serving_db.recover_ms", "ms", recover_ms);
  if (!args.trace) return;

  auto self = rec.SelfTimesUs();
  auto dur = rec.DurationsUs();
  const double append_cov =
      (Mean(self["serve.serving_db.append"]) +
       Mean(self["api.db.with_appended"]) + Mean(self["storage.wal.append"])) /
      Mean(untraced_append);
  const double read_cov = (Mean(self["serve.serving_db.query"]) +
                           Mean(self["query.segment_exec.execute"])) /
                          Mean(untraced_read);
  std::fprintf(stderr, "perfbench: coverage: append %.1f%%, read %.1f%%\n",
               100.0 * append_cov, 100.0 * read_cov);
  report->Layer("api.db.with_appended_ms", "ms",
                Median(self["api.db.with_appended"]) / 1e3);
  report->Layer("storage.wal.append_ms", "ms",
                Median(self["storage.wal.append"]) / 1e3);
  report->Layer("serve.serving_db.publish_ms", "ms",
                Median(self["serve.serving_db.append"]) / 1e3);
  report->Layer("serve.serving_db.read_overhead_us", "us",
                Median(self["serve.serving_db.query"]));
  report->Layer("query.segment_exec.execute_us", "us",
                Median(self["query.segment_exec.execute"]));
  report->Layer("trace.unloaded_us", "us", Median(untraced_read));
  report->Layer("trace.coverage_pct", "%",
                100.0 * std::min(append_cov, read_cov));
  report->Layer("trace.overhead_pct", "%",
                100.0 * (Mean(dur["serve.serving_db.query"]) -
                         Mean(untraced_read)) /
                    Mean(untraced_read));
  report->Layer("trace.span_ns", "ns", SpanRecorder::CalibrateSpanNs());
  if (!rec.WriteCsv(args.workdir + "/spans.csv")) Fatal("cannot write spans");
}

}  // namespace perfbench
