#include "hist/histogram.h"

#include <algorithm>
#include <cmath>

namespace pairwisehist {

size_t HistogramDim::BinIndex(double value) const {
  // upper_bound - 1: first edge strictly greater than value, minus one.
  auto it = std::upper_bound(edges.begin(), edges.end(), value);
  if (it == edges.begin()) return 0;
  size_t t = static_cast<size_t>(it - edges.begin()) - 1;
  if (t >= NumBins()) t = NumBins() - 1;
  return t;
}

void HistogramDim::MidpointBinIndices(const HistogramDim& grid,
                                      uint32_t* out) const {
  const double* e = edges.data();
  const size_t m = edges.size();
  const size_t last = NumBins() - 1;
  size_t j = 0;  // upper_bound of the current midpoint: e[0, j) <= mid
  for (size_t g = 0; g < grid.NumBins(); ++g) {
    const double mid = (grid.edges[g] + grid.edges[g + 1]) / 2.0;
    while (j < m && !(mid < e[j])) ++j;
    out[g] = static_cast<uint32_t>(j == 0 ? 0 : std::min(j - 1, last));
  }
}

uint64_t HistogramDim::TotalCount() const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

void HistogramDim::BuildCountPrefix() {
  const size_t k = NumBins();
  count_prefix.resize(k + 1);
  count_prefix[0] = 0;
  for (size_t t = 0; t < k; ++t) {
    count_prefix[t + 1] = count_prefix[t] + counts[t];
  }
}

void PairHistogram::BuildCellPrefix() {
  const size_t ki = dim_i.NumBins();
  const size_t kj = dim_j.NumBins();
  // Dense per-row cell prefixes (exact: totals stay below 2^53). Costs
  // 2x the dense cell matrix in memory, all execution-index-only.
  cell_prefix_i.resize(ki * (kj + 1));
  for (size_t ti = 0; ti < ki; ++ti) {
    const uint64_t* row = cells.data() + ti * kj;
    uint64_t* pre = cell_prefix_i.mut_data() + ti * (kj + 1);
    pre[0] = 0;
    for (size_t tj = 0; tj < kj; ++tj) pre[tj + 1] = pre[tj] + row[tj];
  }
  cell_prefix_j.resize(kj * (ki + 1));
  for (size_t tj = 0; tj < kj; ++tj) {
    uint64_t* pre = cell_prefix_j.mut_data() + tj * (ki + 1);
    pre[0] = 0;
    for (size_t ti = 0; ti < ki; ++ti) {
      pre[ti + 1] = pre[ti] + cells[ti * kj + tj];
    }
  }
  // Column-major transposes: row tp holds the prefix up to pred bin tp for
  // every aggregation bin at once (contiguous), enabling whole-grid run
  // reductions. Built by accumulating each boundary row from the previous
  // one plus the matching cell column/row.
  cell_colpre_i.assign((kj + 1) * ki, 0);
  for (size_t tp = 0; tp < kj; ++tp) {
    const uint64_t* prev = cell_colpre_i.data() + tp * ki;
    uint64_t* next = cell_colpre_i.mut_data() + (tp + 1) * ki;
    for (size_t ti = 0; ti < ki; ++ti) {
      next[ti] = prev[ti] + cells[ti * kj + tp];
    }
  }
  cell_colpre_j.assign((ki + 1) * kj, 0);
  for (size_t tp = 0; tp < ki; ++tp) {
    const uint64_t* prev = cell_colpre_j.data() + tp * kj;
    uint64_t* next = cell_colpre_j.mut_data() + (tp + 1) * kj;
    const uint64_t* row = cells.data() + tp * kj;
    for (size_t tj = 0; tj < kj; ++tj) {
      next[tj] = prev[tj] + row[tj];
    }
  }
}

namespace {

// Midpoint snapped to the half-integer grid (see the comment at the use
// site). Falls back to the exact midpoint if snapping would leave the bin.
double SplitPoint(double lower, double upper) {
  double mid = (lower + upper) / 2.0;
  double snapped = std::floor(mid) + 0.5;
  if (snapped > lower && snapped < upper) return snapped;
  return mid;
}

// Appends one finished bin's metadata.
void EmitBin(HistogramDim* out, double upper_edge, double v_min, double v_max,
             uint64_t unique, uint64_t count) {
  out->edges.push_back(upper_edge);
  out->v_min.push_back(v_min);
  out->v_max.push_back(v_max);
  out->unique.push_back(unique);
  out->counts.push_back(count);
}

// Algorithm 2 (RefineBin1D): recursively split [lower, upper) over the
// sorted values [begin, end) until each bin is uniform or unsplittable.
// Emits finished bins (in ascending order) into `out`.
void RefineBin1D(const double* begin, const double* end, double lower,
                 double upper, int depth, const RefineConfig& config,
                 const Chi2CriticalCache& critical, HistogramDim* out) {
  const size_t n = static_cast<size_t>(end - begin);
  if (n == 0) {
    // Empty bin: keep the slot with edge metadata (Algorithm 2 line 4).
    EmitBin(out, upper, lower, upper, 0, 0);
    return;
  }
  uint64_t u = CountUniqueSorted(begin, end);
  if (u == 1) {
    EmitBin(out, upper, *begin, *begin, 1, n);
    return;
  }
  bool splittable = n >= config.min_points && depth < config.max_depth &&
                    (upper - lower) > config.min_width;
  if (splittable) {
    UniformityResult test =
        TestUniform(begin, end, lower, upper, u, critical);
    splittable = !test.uniform;
  }
  if (!splittable) {
    EmitBin(out, upper, *begin, *(end - 1), u, n);
    return;
  }
  // Equal-width split at the bin midpoint (the paper found equal-width
  // slightly better than equal-depth). The midpoint is snapped to a
  // half-integer so every edge stays on the 0.5 grid of the integer code
  // domain — which keeps edges exactly representable in the compact
  // storage encoding (all edges x2 are integers).
  double z = SplitPoint(lower, upper);
  const double* mid = std::lower_bound(begin, end, z);
  RefineBin1D(begin, mid, lower, z, depth + 1, config, critical, out);
  RefineBin1D(mid, end, z, upper, depth + 1, config, critical, out);
}

}  // namespace

HistogramDim BuildHistogram1D(const std::vector<double>& sorted_values,
                              const std::vector<double>& initial_edges,
                              const RefineConfig& config,
                              const Chi2CriticalCache& critical) {
  HistogramDim out;
  if (initial_edges.size() < 2) return out;
  out.edges.push_back(initial_edges.front());
  const double* data = sorted_values.data();
  const double* data_end = data + sorted_values.size();
  const double* cursor = data;
  for (size_t t = 0; t + 1 < initial_edges.size(); ++t) {
    double lower = initial_edges[t];
    double upper = initial_edges[t + 1];
    const double* next = (t + 2 == initial_edges.size())
                             ? data_end
                             : std::lower_bound(cursor, data_end, upper);
    RefineBin1D(cursor, next, lower, upper, 0, config, critical, &out);
    cursor = next;
  }
  return out;
}

namespace {

// A point set inside one rectangle during 2-d refinement. Holds indices into
// the caller's xi/xj arrays.
struct RectPoints {
  std::vector<uint32_t> rows;
};

// Collects the sorted values of one dimension for the given rows.
void SortedDimValues(const std::vector<double>& coords,
                     const std::vector<uint32_t>& rows,
                     std::vector<double>* scratch) {
  scratch->clear();
  scratch->reserve(rows.size());
  for (uint32_t r : rows) scratch->push_back(coords[r]);
  std::sort(scratch->begin(), scratch->end());
}

// RefineBin2D: recursively split the rectangle until both dimensions test
// uniform or the point count / width floor stops us. New interior edges are
// appended to `new_edges_i` / `new_edges_j` (they apply to the whole row or
// column of this pair's histogram, matching the paper's Fig. 5).
void RefineBin2D(const std::vector<double>& xi, const std::vector<double>& xj,
                 std::vector<uint32_t> rows, double lo_i, double hi_i,
                 double lo_j, double hi_j, int depth,
                 const RefineConfig& config, const Chi2CriticalCache& critical,
                 std::vector<double>* new_edges_i,
                 std::vector<double>* new_edges_j,
                 std::vector<double>* scratch) {
  if (rows.size() <= config.min_points || depth >= config.max_depth) return;

  SortedDimValues(xi, rows, scratch);
  uint64_t ui = CountUniqueSorted(scratch->data(),
                                  scratch->data() + scratch->size());
  UniformityResult ti = TestUniform(scratch->data(),
                                    scratch->data() + scratch->size(), lo_i,
                                    hi_i, ui, critical);
  SortedDimValues(xj, rows, scratch);
  uint64_t uj = CountUniqueSorted(scratch->data(),
                                  scratch->data() + scratch->size());
  UniformityResult tj = TestUniform(scratch->data(),
                                    scratch->data() + scratch->size(), lo_j,
                                    hi_j, uj, critical);

  bool can_split_i = !ti.uniform && ui > 1 && (hi_i - lo_i) > config.min_width;
  bool can_split_j = !tj.uniform && uj > 1 && (hi_j - lo_j) > config.min_width;
  if (!can_split_i && !can_split_j) return;

  // Split the least uniform dimension (largest statistic/critical ratio).
  bool split_i = can_split_i && (!can_split_j || ti.Ratio() >= tj.Ratio());

  const std::vector<double>& coords = split_i ? xi : xj;
  double z = split_i ? SplitPoint(lo_i, hi_i) : SplitPoint(lo_j, hi_j);
  (split_i ? new_edges_i : new_edges_j)->push_back(z);

  std::vector<uint32_t> left, right;
  left.reserve(rows.size() / 2);
  right.reserve(rows.size() / 2);
  for (uint32_t r : rows) {
    (coords[r] < z ? left : right).push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();
  if (split_i) {
    RefineBin2D(xi, xj, std::move(left), lo_i, z, lo_j, hi_j, depth + 1,
                config, critical, new_edges_i, new_edges_j, scratch);
    RefineBin2D(xi, xj, std::move(right), z, hi_i, lo_j, hi_j, depth + 1,
                config, critical, new_edges_i, new_edges_j, scratch);
  } else {
    RefineBin2D(xi, xj, std::move(left), lo_i, hi_i, lo_j, z, depth + 1,
                config, critical, new_edges_i, new_edges_j, scratch);
    RefineBin2D(xi, xj, std::move(right), lo_i, hi_i, z, hi_j, depth + 1,
                config, critical, new_edges_i, new_edges_j, scratch);
  }
}

// Builds per-dimension metadata (counts, v±, unique, parent) for refined
// edges over the paired values.
HistogramDim BuildDimMetadata(const std::vector<double>& values,
                              std::vector<double> refined_edges,
                              const HistogramDim& h1) {
  HistogramDim dim;
  dim.edges = std::move(refined_edges);
  size_t k = dim.edges.size() - 1;
  dim.counts.assign(k, 0);
  dim.v_min.assign(k, 0);
  dim.v_max.assign(k, 0);
  dim.unique.assign(k, 0);
  dim.parent.resize(k);
  for (size_t t = 0; t < k; ++t) {
    // Parent 1-d bin: the one containing this refined bin's lower edge
    // (refined edges are a superset of the 1-d edges).
    dim.parent[t] = static_cast<uint32_t>(h1.BinIndex(dim.edges[t]));
    // Empty-bin defaults mirror RefineBin1D's convention.
    dim.v_min[t] = dim.edges[t];
    dim.v_max[t] = dim.edges[t + 1];
  }
  // Sort a copy of the values once; walk bins over it.
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  size_t cursor = 0;
  for (size_t t = 0; t < k && cursor < sorted.size(); ++t) {
    size_t begin = cursor;
    double upper = dim.edges[t + 1];
    bool last = (t + 1 == k);
    while (cursor < sorted.size() &&
           (last || sorted[cursor] < upper)) {
      ++cursor;
    }
    if (cursor > begin) {
      dim.counts[t] = cursor - begin;
      dim.v_min[t] = sorted[begin];
      dim.v_max[t] = sorted[cursor - 1];
      dim.unique[t] =
          CountUniqueSorted(sorted.data() + begin, sorted.data() + cursor);
    }
  }
  return dim;
}

}  // namespace

PairHistogram BuildPairHistogram(const std::vector<double>& xi,
                                 const std::vector<double>& xj,
                                 uint32_t col_i, uint32_t col_j,
                                 const HistogramDim& h1_i,
                                 const HistogramDim& h1_j,
                                 const RefineConfig& config,
                                 const Chi2CriticalCache& critical) {
  PairHistogram ph;
  ph.col_i = col_i;
  ph.col_j = col_j;
  const size_t n = xi.size();
  const size_t ki0 = h1_i.NumBins();
  const size_t kj0 = h1_j.NumBins();

  // Initial cell assignment on the 1-d edges.
  std::vector<uint32_t> cell_of(n);
  std::vector<uint32_t> cell_count(ki0 * kj0, 0);
  for (size_t r = 0; r < n; ++r) {
    size_t ti = h1_i.BinIndex(xi[r]);
    size_t tj = h1_j.BinIndex(xj[r]);
    uint32_t cell = static_cast<uint32_t>(ti * kj0 + tj);
    cell_of[r] = cell;
    ++cell_count[cell];
  }

  // Group row indices by cell (counting sort).
  std::vector<uint32_t> offset(ki0 * kj0 + 1, 0);
  for (size_t c = 0; c < cell_count.size(); ++c) {
    offset[c + 1] = offset[c] + cell_count[c];
  }
  std::vector<uint32_t> grouped(n);
  {
    std::vector<uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (size_t r = 0; r < n; ++r) {
      grouped[cursor[cell_of[r]]++] = static_cast<uint32_t>(r);
    }
  }

  // Refine each over-full cell; gather new edges per dimension.
  std::vector<double> new_edges_i, new_edges_j, scratch;
  for (size_t ti = 0; ti < ki0; ++ti) {
    for (size_t tj = 0; tj < kj0; ++tj) {
      size_t cell = ti * kj0 + tj;
      uint32_t cnt = cell_count[cell];
      if (cnt <= config.min_points) continue;
      std::vector<uint32_t> rows(grouped.begin() + offset[cell],
                                 grouped.begin() + offset[cell + 1]);
      RefineBin2D(xi, xj, std::move(rows), h1_i.edges[ti],
                  h1_i.edges[ti + 1], h1_j.edges[tj], h1_j.edges[tj + 1], 0,
                  config, critical, &new_edges_i, &new_edges_j, &scratch);
    }
  }

  // Merge refined edges with the 1-d edges.
  auto merge_edges = [](std::span<const double> base,
                        std::vector<double>& extra) {
    std::vector<double> all(base.begin(), base.end());
    all.insert(all.end(), extra.begin(), extra.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
  };
  std::vector<double> edges_i = merge_edges(h1_i.edges, new_edges_i);
  std::vector<double> edges_j = merge_edges(h1_j.edges, new_edges_j);

  ph.dim_i = BuildDimMetadata(xi, edges_i, h1_i);
  ph.dim_j = BuildDimMetadata(xj, edges_j, h1_j);

  // Final cell counts on the refined grid.
  size_t ki = ph.dim_i.NumBins();
  size_t kj = ph.dim_j.NumBins();
  ph.cells.assign(ki * kj, 0);
  for (size_t r = 0; r < n; ++r) {
    size_t ti = ph.dim_i.BinIndex(xi[r]);
    size_t tj = ph.dim_j.BinIndex(xj[r]);
    ++ph.cells[ti * kj + tj];
  }
  return ph;
}

}  // namespace pairwisehist
