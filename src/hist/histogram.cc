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
  BinWalker walk(edges);
  for (size_t g = 0; g < grid.NumBins(); ++g) {
    out[g] = static_cast<uint32_t>(
        walk.Next((grid.edges[g] + grid.edges[g + 1]) / 2.0));
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

// One over-full cell's points during 2-d refinement, held twice: sorted by
// xi (with each point's xj alongside) and sorted by xj (with its xi).
// Every uniformity test reads a dimension's sorted values straight off its
// list, so refinement never sorts.
struct SortedPoints {
  double* by_i;     // xi ascending
  double* by_i_xj;  // xj of the same points
  double* by_j;     // xj ascending
  double* by_j_xi;  // xi of the same points
  size_t n;

  SortedPoints Sub(size_t begin, size_t count) const {
    return {by_i + begin, by_i_xj + begin, by_j + begin, by_j_xi + begin,
            count};
  }
};

// Moves the entries of the parallel arrays (sorted, other) with other < z
// to the front, keeping both sides in their existing order (so `sorted`
// stays sorted on each side). `scratch` holds 2n doubles.
void StablePartitionBelow(double* sorted, double* other, size_t n, double z,
                          double* scratch) {
  double* right_sorted = scratch;
  double* right_other = scratch + n;
  size_t left = 0, right = 0;
  for (size_t k = 0; k < n; ++k) {
    if (other[k] < z) {
      sorted[left] = sorted[k];
      other[left] = other[k];
      ++left;
    } else {
      right_sorted[right] = sorted[k];
      right_other[right] = other[k];
      ++right;
    }
  }
  std::copy(right_sorted, right_sorted + right, sorted + left);
  std::copy(right_other, right_other + right, other + left);
}

// RefineBin2D: recursively split the rectangle until both dimensions test
// uniform or the point count / width floor stops us. New interior edges are
// appended to `new_edges_i` / `new_edges_j` (they apply to the whole row or
// column of this pair's histogram, matching the paper's Fig. 5).
void RefineBin2D(SortedPoints pts, double lo_i, double hi_i, double lo_j,
                 double hi_j, int depth, const RefineConfig& config,
                 const Chi2CriticalCache& critical,
                 std::vector<double>* new_edges_i,
                 std::vector<double>* new_edges_j, double* scratch) {
  const size_t n = pts.n;
  if (n <= config.min_points || depth >= config.max_depth) return;

  uint64_t ui = CountUniqueSorted(pts.by_i, pts.by_i + n);
  UniformityResult ti =
      TestUniform(pts.by_i, pts.by_i + n, lo_i, hi_i, ui, critical);
  uint64_t uj = CountUniqueSorted(pts.by_j, pts.by_j + n);
  UniformityResult tj =
      TestUniform(pts.by_j, pts.by_j + n, lo_j, hi_j, uj, critical);

  bool can_split_i = !ti.uniform && ui > 1 && (hi_i - lo_i) > config.min_width;
  bool can_split_j = !tj.uniform && uj > 1 && (hi_j - lo_j) > config.min_width;
  if (!can_split_i && !can_split_j) return;

  // Split the least uniform dimension (largest statistic/critical ratio).
  bool split_i = can_split_i && (!can_split_j || ti.Ratio() >= tj.Ratio());

  double z = split_i ? SplitPoint(lo_i, hi_i) : SplitPoint(lo_j, hi_j);
  (split_i ? new_edges_i : new_edges_j)->push_back(z);

  // The list sorted on the split dimension already splits at z; the other
  // list is partitioned stably into the same two point sets.
  size_t left;
  if (split_i) {
    left = std::lower_bound(pts.by_i, pts.by_i + n, z) - pts.by_i;
    StablePartitionBelow(pts.by_j, pts.by_j_xi, n, z, scratch);
  } else {
    left = std::lower_bound(pts.by_j, pts.by_j + n, z) - pts.by_j;
    StablePartitionBelow(pts.by_i, pts.by_i_xj, n, z, scratch);
  }
  const SortedPoints lower = pts.Sub(0, left);
  const SortedPoints upper = pts.Sub(left, n - left);
  if (split_i) {
    RefineBin2D(lower, lo_i, z, lo_j, hi_j, depth + 1, config, critical,
                new_edges_i, new_edges_j, scratch);
    RefineBin2D(upper, z, hi_i, lo_j, hi_j, depth + 1, config, critical,
                new_edges_i, new_edges_j, scratch);
  } else {
    RefineBin2D(lower, lo_i, hi_i, lo_j, z, depth + 1, config, critical,
                new_edges_i, new_edges_j, scratch);
    RefineBin2D(upper, lo_i, hi_i, z, hi_j, depth + 1, config, critical,
                new_edges_i, new_edges_j, scratch);
  }
}

// Builds per-dimension metadata (counts, v±, unique, parent) for the
// refined edges of `self` over the pair's rows (those where `other` is
// non-null too), in one walk over self's sorted order. Records each such
// row's refined bin in refined_bin[p].
HistogramDim BuildDimMetadata(const ColumnView& self, const ColumnView& other,
                              std::vector<double> refined_edges,
                              const HistogramDim& h1,
                              uint32_t* refined_bin) {
  const size_t k = refined_edges.size() - 1;
  std::vector<uint64_t> counts(k, 0), unique(k, 0);
  std::vector<double> v_min(k), v_max(k);
  std::vector<uint32_t> parent(k);
  // Parent 1-d bin: the one containing this refined bin's lower edge
  // (refined edges are a superset of the 1-d edges).
  BinWalker parent_walk(h1.edges);
  for (size_t t = 0; t < k; ++t) {
    parent[t] = static_cast<uint32_t>(parent_walk.Next(refined_edges[t]));
    // Empty-bin defaults mirror RefineBin1D's convention.
    v_min[t] = refined_edges[t];
    v_max[t] = refined_edges[t + 1];
  }
  BinWalker bin_walk(refined_edges);
  for (uint32_t p : self.order) {
    if (other.bins[p] == kNullBin) continue;
    const double v = self.values[p];
    const size_t t = bin_walk.Next(v);
    if (counts[t] == 0) {
      v_min[t] = v;
      unique[t] = 1;
    } else if (v != v_max[t]) {
      ++unique[t];
    }
    v_max[t] = v;
    ++counts[t];
    refined_bin[p] = static_cast<uint32_t>(t);
  }
  HistogramDim dim;
  dim.edges = std::move(refined_edges);
  dim.counts = std::move(counts);
  dim.v_min = std::move(v_min);
  dim.v_max = std::move(v_max);
  dim.unique = std::move(unique);
  dim.parent = std::move(parent);
  return dim;
}

}  // namespace

PairHistogram BuildPairHistogram(const ColumnView& ci, const ColumnView& cj,
                                 uint32_t col_i, uint32_t col_j,
                                 const HistogramDim& h1_i,
                                 const HistogramDim& h1_j,
                                 const RefineConfig& config,
                                 const Chi2CriticalCache& critical) {
  PairHistogram ph;
  ph.col_i = col_i;
  ph.col_j = col_j;
  const size_t ns = ci.bins.size();
  const size_t ki0 = h1_i.NumBins();
  const size_t kj0 = h1_j.NumBins();
  const uint32_t* bin_i = ci.bins.data();
  const uint32_t* bin_j = cj.bins.data();

  // Initial cell counts on the 1-d edges, from the precomputed 1-d bins.
  std::vector<uint32_t> cell_count(ki0 * kj0, 0);
  for (size_t p = 0; p < ns; ++p) {
    if (bin_i[p] == kNullBin || bin_j[p] == kNullBin) continue;
    ++cell_count[static_cast<size_t>(bin_i[p]) * kj0 + bin_j[p]];
  }

  // Over-full cells get consecutive slot ranges (in row-major cell order)
  // of the refinement lists; `fill` holds each one's first slot.
  constexpr uint32_t kNotRefined = UINT32_MAX;
  std::vector<uint32_t> fill(cell_count.size(), kNotRefined);
  size_t refined_points = 0, largest = 0;
  for (size_t cell = 0; cell < cell_count.size(); ++cell) {
    if (cell_count[cell] <= config.min_points) continue;
    fill[cell] = static_cast<uint32_t>(refined_points);
    refined_points += cell_count[cell];
    largest = std::max<size_t>(largest, cell_count[cell]);
  }

  std::vector<double> new_edges_i, new_edges_j;
  if (refined_points > 0) {
    // Bucket every over-full cell's points twice, in i-order and in
    // j-order, by walking the two sorted column orders; `next` is a copy of
    // the first slots that advances as the cells fill.
    const size_t m = refined_points;
    std::vector<double> buf(4 * m + 2 * largest);
    const SortedPoints all{buf.data(), buf.data() + m, buf.data() + 2 * m,
                           buf.data() + 3 * m, m};
    auto bucket = [&](const ColumnView& self, const ColumnView& other,
                      std::vector<uint32_t> next, double* sorted,
                      double* companion) {
      for (uint32_t p : self.order) {
        if (bin_i[p] == kNullBin || bin_j[p] == kNullBin) continue;
        uint32_t& at = next[static_cast<size_t>(bin_i[p]) * kj0 + bin_j[p]];
        if (at == kNotRefined) continue;
        sorted[at] = self.values[p];
        companion[at] = other.values[p];
        ++at;
      }
    };
    bucket(ci, cj, fill, all.by_i, all.by_i_xj);
    bucket(cj, ci, std::move(fill), all.by_j, all.by_j_xi);

    // Refine each over-full cell; gather new edges per dimension.
    double* scratch = buf.data() + 4 * m;
    size_t begin = 0;
    for (size_t ti = 0; ti < ki0; ++ti) {
      for (size_t tj = 0; tj < kj0; ++tj) {
        const uint32_t cnt = cell_count[ti * kj0 + tj];
        if (cnt <= config.min_points) continue;
        RefineBin2D(all.Sub(begin, cnt), h1_i.edges[ti], h1_i.edges[ti + 1],
                    h1_j.edges[tj], h1_j.edges[tj + 1], 0, config, critical,
                    &new_edges_i, &new_edges_j, scratch);
        begin += cnt;
      }
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

  // Metadata per dimension; each walk also records every pair row's
  // refined bin, from which the final cells are counted.
  std::vector<uint32_t> refined_i(ns), refined_j(ns);
  ph.dim_i = BuildDimMetadata(ci, cj, merge_edges(h1_i.edges, new_edges_i),
                              h1_i, refined_i.data());
  ph.dim_j = BuildDimMetadata(cj, ci, merge_edges(h1_j.edges, new_edges_j),
                              h1_j, refined_j.data());
  const size_t kj = ph.dim_j.NumBins();
  std::vector<uint64_t> cells(ph.dim_i.NumBins() * kj, 0);
  for (size_t p = 0; p < ns; ++p) {
    if (bin_i[p] == kNullBin || bin_j[p] == kNullBin) continue;
    ++cells[static_cast<size_t>(refined_i[p]) * kj + refined_j[p]];
  }
  ph.cells = std::move(cells);
  return ph;
}

}  // namespace pairwisehist
