#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5));
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

namespace {

constexpr size_t kProbeTableEntries = 1 << 14;  // 64 KiB: L2-resident
constexpr size_t kProbeSteps = 4096;
constexpr int kProbeEveryMs = 25;

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// One probe thread per CPU the process may run on, each pinned to its CPU.
class SpeedProbe {
 public:
  SpeedProbe() : table_(kProbeTableEntries) {
    uint32_t x = 2463534242u;
    for (uint32_t& v : table_) {  // xorshift32: a fixed pseudo-random table
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      v = x;
    }
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
      CPU_SET(0, &allowed);
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
    samples_.resize(cpus_.size());
    for (size_t i = 0; i < cpus_.size(); ++i) {
      threads_.emplace_back([this, i] { Loop(i); });
    }
  }
  ~SpeedProbe() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  const std::vector<int>& cpus() const { return cpus_; }

  double Slowdown(double t0, double t1, int cpu) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> per_cpu;
    for (size_t i = 0; i < cpus_.size(); ++i) {
      if (cpu >= 0 && cpus_[i] != cpu) continue;
      std::vector<double> in;
      const Sample* first = nullptr;
      const Sample* last = nullptr;
      for (const Sample& s : samples_[i]) {
        if (s.at < t0 || s.at >= t1) continue;
        in.push_back(s.ns);
        if (first == nullptr) first = &s;
        last = &s;
      }
      if (in.empty()) continue;
      // The share of the CPU's time the host gave to others: the probe's
      // own clock stops then, the workload's wall-clock timings do not.
      const double ticks = last->ticks - first->ticks;
      const double stolen =
          ticks > 0 ? std::min(0.9, (last->steal - first->steal) / ticks) : 0;
      per_cpu.push_back(Median(std::move(in)) / (1.0 - stolen));
    }
    return per_cpu.empty() ? 1.0 : Mean(per_cpu) / kProbeReferenceNs;
  }

 private:
  void Loop(size_t i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i], &one);
    const bool pinned = pthread_setaffinity_np(pthread_self(), sizeof(one),
                                               &one) == 0;
    while (!stop_.load(std::memory_order_acquire)) {
      sink_ += Kernel();  // loads the table into this CPU's caches
      const double c0 = ThreadCpuNs();
      sink_ += Kernel();
      const double ns = ThreadCpuNs() - c0;
      double ticks = 0, steal = 0;
      if (pinned && ReadCpuTicks(cpus_[i], &ticks, &steal)) {
        std::lock_guard<std::mutex> lock(mu_);
        samples_[i].push_back({NowSec(), ns, ticks, steal});
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kProbeEveryMs));
    }
  }

  /// Dependent loads from the table mixed with floating-point work.
  uint64_t Kernel() const {
    uint32_t idx = 1;
    double acc = 1.0;
    for (size_t i = 0; i < kProbeSteps; ++i) {
      idx = table_[idx & (kProbeTableEntries - 1)] ^ static_cast<uint32_t>(i);
      acc = acc * 0.999999 + static_cast<double>(idx & 1023);
    }
    return idx + static_cast<uint64_t>(acc);
  }

  /// Reads CPU `cpu`'s line of /proc/stat: all its ticks and its steal
  /// ticks (time the host ran something else on it).
  static bool ReadCpuTicks(int cpu, double* ticks, double* steal) {
    std::ifstream stat("/proc/stat");
    const std::string want = "cpu" + std::to_string(cpu);
    std::string name;
    while (stat >> name) {
      if (name != want) {
        stat.ignore(1 << 12, '\n');
        continue;
      }
      // user nice system idle iowait irq softirq steal
      double v[8] = {};
      for (double& x : v) stat >> x;
      if (!stat) return false;
      *ticks = v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7];
      *steal = v[7];
      return true;
    }
    return false;
  }

  struct Sample {
    double at = 0;     ///< NowSec()
    double ns = 0;     ///< thread CPU ns of one timed kernel pass
    double ticks = 0;  ///< the CPU's /proc/stat ticks, all states
    double steal = 0;  ///< of which stolen by the host
  };

  std::vector<uint32_t> table_;
  std::vector<int> cpus_;
  mutable std::mutex mu_;
  std::vector<std::vector<Sample>> samples_;  // per CPU
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> sink_{0};
  std::vector<std::thread> threads_;
};

/// Left running, not destroyed, when Fatal() exits the process.
SpeedProbe* g_probe = nullptr;

}  // namespace

void StartSpeedProbe() {
  if (g_probe == nullptr) g_probe = new SpeedProbe();
}

void StopSpeedProbe() {
  delete g_probe;
  g_probe = nullptr;
}

double HostSlowdown(double t0, double t1, int cpu) {
  return g_probe == nullptr ? 1.0 : g_probe->Slowdown(t0, t1, cpu);
}

double RunSlowdown() { return HostSlowdown(0, NowSec() + 1); }

int PinToProbedCpu() {
  if (g_probe == nullptr || g_probe->cpus().empty()) return -1;
  const int cpu = g_probe->cpus().front();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0 ? cpu
                                                                        : -1;
}

LoadStats CorrectedLoad(const std::vector<Timed>& samples, double seconds,
                        double t_start, int cpu) {
  const size_t n = std::max<size_t>(1, static_cast<size_t>(seconds));
  std::vector<double> slowdown(n), counts(n, 0);
  for (size_t w = 0; w < n; ++w) {
    slowdown[w] = HostSlowdown(t_start + static_cast<double>(w),
                               t_start + static_cast<double>(w + 1), cpu);
  }
  std::vector<double> raw, corrected;
  raw.reserve(samples.size());
  corrected.reserve(samples.size());
  for (const Timed& t : samples) {
    if (t.at_s < 0 || t.at_s >= static_cast<double>(n)) continue;
    const size_t w = static_cast<size_t>(t.at_s);
    counts[w] += 1;
    raw.push_back(t.us);
    corrected.push_back(t.us / slowdown[w]);
  }
  double per_s = 0;
  for (size_t w = 0; w < n; ++w) per_s += counts[w] * slowdown[w];
  per_s /= static_cast<double>(n);
  auto log = [](const char* what, const std::vector<double>& v,
                const char* fmt) {
    std::fprintf(stderr, "perfbench: per-second %s:", what);
    for (double x : v) std::fprintf(stderr, fmt, x);
    std::fprintf(stderr, "\n");
  };
  std::vector<std::vector<double>> bins(n);
  for (const Timed& t : samples) {
    if (t.at_s < 0 || t.at_s >= static_cast<double>(n)) continue;
    const size_t w = static_cast<size_t>(t.at_s);
    bins[w].push_back(t.us / slowdown[w]);
  }
  std::vector<double> window_p50, window_p99;
  for (const std::vector<double>& b : bins) {
    window_p50.push_back(Quantile(b, 0.50));
    window_p99.push_back(Quantile(b, 0.99));
  }
  log("counts", counts, " %.0f");
  log("host slowdown", slowdown, " %.3f");
  log("corrected p50", window_p50, " %.2f");
  log("corrected p99", window_p99, " %.2f");
  std::fprintf(stderr,
               "perfbench: as measured: %.1f/s, p50 %.2f us, p99 %.2f us "
               "(%zu samples)\n",
               Mean(counts), Quantile(raw, 0.5), Quantile(raw, 0.99),
               raw.size());
  return {per_s, Quantile(corrected, 0.50), Quantile(corrected, 0.99),
          Quantile(raw, 0.50)};
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::exit(2);
}

void LogPhase(const char* name) {
  static double last = NowSec();
  const double now = NowSec();
  std::fprintf(stderr, "perfbench: %-24s %8.3f s\n", name, now - last);
  last = now;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double RelErrPct(double exact, double estimate) {
  if (exact == 0.0) return estimate == 0.0 ? 0.0 : 100.0;
  return std::fabs(estimate - exact) / std::fabs(exact) * 100.0;
}

}  // namespace perfbench
