// perfbench: the repository benchmark binary.
//
//   perfbench --workload <dashboard_http|adhoc_engine|ingest_mixed>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--smoke] [--corrupt]
//
// Prints a readable summary, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one. perfbench/run.py
// builds this binary and completes the metric set from BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Fatal;
using perfbench::Metric;
using perfbench::Report;

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fatal("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--workdir") {
      a.workdir = value();
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--corrupt") {
      a.corrupt = true;
    } else {
      Fatal("unknown argument " + k);
    }
  }
  if (a.workdir.empty()) Fatal("--workdir is required");
  if (!(a.seconds > 0)) Fatal("--seconds must be positive");
  return a;
}

void PrintJsonLine(const Report& r, bool trace) {
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  std::string out = "{\"correct\": ";
  out += r.checks.failed == 0 && r.checks.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.checks.attempted);
  out += ", \"failed\": " + std::to_string(r.checks.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) Fatal("metric " + m.name + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  perfbench::LogPhase("start");
  perfbench::StartSpeedProbe();
  Report report;
  if (args.workload == "dashboard_http") {
    perfbench::RunDashboardHttp(args, &report);
  } else if (args.workload == "adhoc_engine") {
    perfbench::RunAdhocEngine(args, &report);
  } else if (args.workload == "ingest_mixed") {
    perfbench::RunIngestMixed(args, &report);
  } else {
    Fatal("unknown workload '" + args.workload + "'");
  }
  report.Layer("host.slowdown", "x", perfbench::RunSlowdown());
  perfbench::StopSpeedProbe();
  std::printf("# %s seed=%llu attempted=%llu failed=%llu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(report.checks.attempted),
              static_cast<unsigned long long>(report.checks.failed));
  for (const auto* list : {&report.end_to_end, &report.per_layer}) {
    for (const Metric& m : *list) {
      std::printf("#   %-44s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  PrintJsonLine(report, args.trace);
  std::fflush(stdout);
  return 0;
}
