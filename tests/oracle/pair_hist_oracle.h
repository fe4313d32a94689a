// Test-only reference builders for pairwise histograms.
//
// OracleBuildPairHistogram is the straightforward per-pair construction:
// gather the pair's values, re-sort them at every RefineBin2D node, and
// place every value with HistogramDim::BinIndex. The library's
// BuildPairHistogram replaces each of those sorts and searches with walks
// over a per-column sorted sample index; the differential tests require
// the two to agree field for field.
//
// IndexedColumn builds the library's ColumnView input from plain values
// independently of PairwiseHist::Build (std::stable_sort + BinIndex), so
// BuildPairHistogram can be driven directly.
#ifndef PAIRWISEHIST_TESTS_ORACLE_PAIR_HIST_ORACLE_H_
#define PAIRWISEHIST_TESTS_ORACLE_PAIR_HIST_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hist/histogram.h"
#include "hist/uniformity.h"

namespace pairwisehist {

/// Reference pair build. `xi` / `xj` are the paired values of the rows
/// where BOTH columns are non-null; `h1_i` / `h1_j` supply the initial
/// edges.
PairHistogram OracleBuildPairHistogram(const std::vector<double>& xi,
                                       const std::vector<double>& xj,
                                       uint32_t col_i, uint32_t col_j,
                                       const HistogramDim& h1_i,
                                       const HistogramDim& h1_j,
                                       const RefineConfig& config,
                                       const Chi2CriticalCache& critical);

/// An owned ColumnView over one column's sample (nullopt = null).
class IndexedColumn {
 public:
  IndexedColumn(const std::vector<std::optional<double>>& sample,
                const HistogramDim& h1);
  /// Convenience: a null-free sample.
  IndexedColumn(const std::vector<double>& sample, const HistogramDim& h1);

  ColumnView view() const { return {order_, values_, bins_}; }

 private:
  std::vector<uint32_t> order_;
  std::vector<double> values_;
  std::vector<uint32_t> bins_;
};

/// Field-for-field equality of the built parts of two pair histograms
/// (columns, edges, counts, v±, unique, parent, cells). Returns a
/// description of the first difference, or nullopt when identical.
std::optional<std::string> DiffPairHistograms(const PairHistogram& got,
                                              const PairHistogram& want);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_TESTS_ORACLE_PAIR_HIST_ORACLE_H_
