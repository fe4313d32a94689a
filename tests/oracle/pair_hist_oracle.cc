#include "tests/oracle/pair_hist_oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <sstream>

namespace pairwisehist {

namespace {

// Same split rule as the library's refinement (hist/histogram.cc).
double SplitPoint(double lower, double upper) {
  double mid = (lower + upper) / 2.0;
  double snapped = std::floor(mid) + 0.5;
  if (snapped > lower && snapped < upper) return snapped;
  return mid;
}

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

PairHistogram OracleBuildPairHistogram(const std::vector<double>& xi,
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

IndexedColumn::IndexedColumn(const std::vector<std::optional<double>>& sample,
                             const HistogramDim& h1) {
  const size_t n = sample.size();
  values_.assign(n, 0.0);
  bins_.assign(n, kNullBin);
  for (size_t p = 0; p < n; ++p) {
    if (!sample[p].has_value()) continue;
    values_[p] = *sample[p];
    bins_[p] = static_cast<uint32_t>(h1.BinIndex(*sample[p]));
    order_.push_back(static_cast<uint32_t>(p));
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return values_[a] < values_[b];
                   });
}

IndexedColumn::IndexedColumn(const std::vector<double>& sample,
                             const HistogramDim& h1)
    : IndexedColumn(std::vector<std::optional<double>>(sample.begin(),
                                                       sample.end()),
                    h1) {}

namespace {

template <typename T>
bool DiffArray(const std::string& what, std::span<const T> got,
               std::span<const T> want, std::ostringstream* out) {
  if (got.size() != want.size()) {
    *out << what << ": size " << got.size() << " vs " << want.size();
    return true;
  }
  for (size_t k = 0; k < got.size(); ++k) {
    // Exact equality: identical builds produce identical values, and NaN
    // never appears in a histogram.
    if (!(got[k] == want[k])) {
      *out << what << "[" << k << "]: " << got[k] << " vs " << want[k];
      return true;
    }
  }
  return false;
}

bool DiffDim(const std::string& which, const HistogramDim& got,
             const HistogramDim& want, std::ostringstream* out) {
  return DiffArray<double>(which + ".edges", got.edges, want.edges, out) ||
         DiffArray<uint64_t>(which + ".counts", got.counts, want.counts,
                             out) ||
         DiffArray<double>(which + ".v_min", got.v_min, want.v_min, out) ||
         DiffArray<double>(which + ".v_max", got.v_max, want.v_max, out) ||
         DiffArray<uint64_t>(which + ".unique", got.unique, want.unique,
                             out) ||
         DiffArray<uint32_t>(which + ".parent", got.parent, want.parent,
                             out);
}

}  // namespace

std::optional<std::string> DiffPairHistograms(const PairHistogram& got,
                                              const PairHistogram& want) {
  std::ostringstream out;
  out << "pair (" << want.col_i << "," << want.col_j << ") ";
  if (got.col_i != want.col_i || got.col_j != want.col_j) {
    out << "built as (" << got.col_i << "," << got.col_j << ")";
    return out.str();
  }
  if (DiffDim("dim_i", got.dim_i, want.dim_i, &out) ||
      DiffDim("dim_j", got.dim_j, want.dim_j, &out) ||
      DiffArray<uint64_t>("cells", got.cells, want.cells, &out)) {
    return out.str();
  }
  return std::nullopt;
}

}  // namespace pairwisehist
