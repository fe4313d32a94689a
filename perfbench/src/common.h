// Shared plumbing of the benchmark binary: command-line options, clocks,
// order statistics, the metric report and small helpers every workload
// uses. Nothing here calls into the library.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small data and short loops, for the self-test.
  bool smoke = false;
  /// Deliberately corrupts one expected answer (self-test of the checks).
  bool corrupt = false;
  /// Scratch directory for files the workload writes (WAL, checkpoints).
  std::string workdir;
};

inline double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile of unsorted values (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// A completed request: when it completed (seconds since the measurement
/// began) and how long it took (microseconds).
struct Timed {
  double at_s = 0;
  double us = 0;
};

/// Host-speed probe. The shared host this benchmark runs on speeds each
/// virtual CPU up and slows it down by tens of percent, over seconds and
/// over minutes, whatever the program does. One background thread per CPU,
/// pinned to it, times a fixed kernel (dependent loads from a 64 KiB table
/// mixed with floating-point work) every 25 ms in its own thread CPU time,
/// and reads the CPU's steal ticks (time the host ran something else on
/// it): being descheduled by the workload's threads does not count, a
/// slower or busier host does. Timings are divided by the slowdown measured
/// while they were taken, so they read as they would on the reference host.
void StartSpeedProbe();
void StopSpeedProbe();
/// Probe cost over [t0, t1) (NowSec() clock) over the reference cost
/// kProbeReferenceNs: for each CPU the median of its samples divided by the
/// share of its time not stolen, averaged over the CPUs, or of CPU `cpu`
/// alone when it is not -1. 1 when no probe ran then.
double HostSlowdown(double t0, double t1, int cpu = -1);
/// The slowdown over the whole run, averaged over the CPUs.
double RunSlowdown();
/// Pins the calling thread to one probed CPU and returns that CPU, or -1
/// when it cannot. A single-caller workload pins its caller so that its
/// timings are corrected by the speed of the CPU they ran on.
int PinToProbedCpu();
/// Probe cost, in thread CPU nanoseconds, on the reference host: the median
/// over a few hundred probe samples on a shared 4-vCPU Xeon (Sapphire
/// Rapids, 2.0 GHz) KVM guest.
constexpr double kProbeReferenceNs = 23000;

/// Seconds spent in `fn`, divided by the host slowdown while it ran.
template <typename Fn>
double HostSeconds(Fn&& fn) {
  const double t0 = NowSec();
  fn();
  const double t1 = NowSec();
  return (t1 - t0) / HostSlowdown(t0, t1);
}

/// Throughput and latency over the run's whole one-second windows, each
/// sample corrected by the host slowdown of its window (of CPU `cpu` alone
/// when it is not -1): requests per second times the slowdown, latency
/// divided by it. `t_start` is the NowSec() time the samples' `at_s` count
/// from. Quantiles are over every sample of the run: a run holds hundreds
/// of thousands, so thousands lie beyond its p99.
struct LoadStats {
  double per_s = 0;  ///< requests completed per second
  double p50_us = 0;
  double p99_us = 0;
  double raw_p50_us = 0;  ///< p50 as measured, without the correction
};
LoadStats CorrectedLoad(const std::vector<Timed>& samples, double seconds,
                        double t_start, int cpu = -1);

/// Resident set size of this process in MiB.
double RssMb();

/// Fails the run: prints the reason to stderr and exits non-zero without a
/// result line.
[[noreturn]] void Fatal(const std::string& what);

/// Logs to stderr the seconds since the previous call (progress of a run).
void LogPhase(const char* name);

/// Counts every checked answer; a wrong or failed one is a failure.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Share of attempts answered correctly, in percent.
  double OkPct() const {
    return attempted == 0 ? 0
                          : 100.0 * static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

/// One named measurement.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What a workload hands back: end-to-end metrics (untraced runs) and
/// per-layer metrics (traced runs). Names must match BENCHMARK.json.
struct Report {
  Checks checks;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  void E2e(const std::string& name, const std::string& unit, double v) {
    end_to_end.push_back({name, unit, v});
  }
  void Layer(const std::string& name, const std::string& unit, double v) {
    per_layer.push_back({name, unit, v});
  }
};

/// Bit-level equality of two doubles (NaN equal to the same NaN).
bool SameBits(double a, double b);

/// Relative error in percent (the paper's metric; 100% when exact is 0 and
/// the estimate is not).
double RelErrPct(double exact, double estimate);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
