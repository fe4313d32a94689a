#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace pairwisehist {

void ParallelFor(size_t n, unsigned nthreads,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (nthreads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    nthreads = hw > 0 ? hw : 1;
  }
  nthreads = static_cast<unsigned>(std::min<size_t>(nthreads, n));
  if (nthreads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(nthreads - 1);
  for (unsigned t = 0; t + 1 < nthreads; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
}

}  // namespace pairwisehist
