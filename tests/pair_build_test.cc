// Differential tests for pairwise-histogram construction: the library's
// BuildPairHistogram, which walks a per-column sorted sample index, against
// the test-only per-pair oracle (gather, re-sort at every refinement node,
// BinIndex every value), field for field. Covered both through
// PairwiseHist::Build (the index built in parallel over columns, shared by
// the parallel pair fan-out) and by driving BuildPairHistogram directly.
#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pairwise_hist.h"
#include "datagen/datasets.h"
#include "gd/greedy_gd.h"
#include "gd/preprocess.h"
#include "hist/histogram.h"
#include "tests/oracle/pair_hist_oracle.h"

namespace pairwisehist {
namespace {

// Pairs whose refinement added edges beyond the 1-d grid.
size_t RefinedPairs(const PairwiseHist& ph) {
  size_t refined = 0;
  for (size_t s = 0; s < ph.num_pairs(); ++s) {
    const PairHistogram& p = ph.pair_at(s);
    if (p.dim_i.NumBins() > ph.hist1d(p.col_i).NumBins() ||
        p.dim_j.NumBins() > ph.hist1d(p.col_j).NumBins()) {
      ++refined;
    }
  }
  return refined;
}

// Rebuilds every pair of `ph` with the oracle over the same sample and the
// same 1-d histograms and requires identical output. Returns the number of
// pairs checked.
size_t ExpectPairsMatchOracle(const PreprocessedTable& pre,
                              const PairwiseHistConfig& cfg,
                              const PairwiseHist& ph) {
  const size_t n = pre.NumRows();
  const size_t d = pre.NumColumns();
  const size_t ns = cfg.sample_size == 0 ? n : std::min(cfg.sample_size, n);
  EXPECT_EQ(ph.sample_rows(), ns);
  const std::vector<uint32_t> rows = SampleRows(n, ns, cfg.seed);
  EXPECT_EQ(rows.size(), ns);

  // The 1-d histograms hold every non-null sampled value.
  for (size_t c = 0; c < d; ++c) {
    uint64_t nonnull = 0;
    for (uint32_t r : rows) nonnull += pre.codes[c][r] != kMissingCode;
    EXPECT_EQ(ph.hist1d(c).TotalCount(), nonnull) << "column " << c;
  }

  RefineConfig refine;
  refine.min_points = ph.min_points();
  refine.alpha = ph.alpha();
  size_t slot = 0;
  for (uint32_t i = 1; i < d; ++i) {
    for (uint32_t j = 0; j < i; ++j, ++slot) {
      std::vector<double> xi, xj;
      for (uint32_t r : rows) {
        const uint64_t ci = pre.codes[i][r];
        const uint64_t cj = pre.codes[j][r];
        if (ci == kMissingCode || cj == kMissingCode) continue;
        xi.push_back(static_cast<double>(ci));
        xj.push_back(static_cast<double>(cj));
      }
      const PairHistogram want =
          OracleBuildPairHistogram(xi, xj, i, j, ph.hist1d(i), ph.hist1d(j),
                                   refine, ph.critical_cache());
      const std::optional<std::string> diff =
          DiffPairHistograms(ph.pair_at(slot), want);
      EXPECT_FALSE(diff.has_value()) << *diff;
      if (diff.has_value()) return slot;
    }
  }
  EXPECT_EQ(slot, ph.num_pairs());
  return slot;
}

PreprocessedTable MustPreprocess(const Table& table) {
  auto pre = Preprocess(table);
  EXPECT_TRUE(pre.ok()) << pre.status().ToString();
  return std::move(pre).value();
}

bool HasNulls(const PreprocessedTable& pre) {
  for (const auto& col : pre.codes) {
    if (std::find(col.begin(), col.end(), kMissingCode) != col.end()) {
      return true;
    }
  }
  return false;
}

TEST(PairBuildOracle, FlightsSampledWithNulls) {
  auto t = MakeDataset("flights", 30000, 5);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const PreprocessedTable pre = MustPreprocess(t.value());
  ASSERT_TRUE(HasNulls(pre));  // cancelled flights null the in-air fields
  PairwiseHistConfig cfg;
  cfg.sample_size = 12000;
  cfg.build_threads = 4;  // the shared index under a parallel fan-out
  auto ph = PairwiseHist::Build(pre, nullptr, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  EXPECT_EQ(ExpectPairsMatchOracle(pre, cfg, ph.value()), 496u);
  EXPECT_GT(RefinedPairs(ph.value()), 0u);
}

TEST(PairBuildOracle, NullHeavyAquaSampled) {
  auto t = MakeDataset("aqua", 20000, 9);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const PreprocessedTable pre = MustPreprocess(t.value());
  ASSERT_TRUE(HasNulls(pre));
  PairwiseHistConfig cfg;
  cfg.sample_size = 9000;
  cfg.min_points_override = 40;
  auto ph = PairwiseHist::Build(pre, nullptr, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  ExpectPairsMatchOracle(pre, cfg, ph.value());
}

TEST(PairBuildOracle, FlightsUnsampled) {
  auto t = MakeDataset("flights", 8000, 11);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const PreprocessedTable pre = MustPreprocess(t.value());
  PairwiseHistConfig cfg;
  cfg.sample_size = 0;  // every row
  auto ph = PairwiseHist::Build(pre, nullptr, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  ASSERT_EQ(ph->sample_rows(), 8000u);
  ExpectPairsMatchOracle(pre, cfg, ph.value());
}

TEST(PairBuildOracle, SmallMinPointsRecursesDeeply) {
  auto t = MakeDataset("power", 20000, 13);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const PreprocessedTable pre = MustPreprocess(t.value());
  PairwiseHistConfig cfg;
  cfg.sample_size = 10000;
  cfg.min_points_override = 8;
  auto ph = PairwiseHist::Build(pre, nullptr, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  ExpectPairsMatchOracle(pre, cfg, ph.value());
  EXPECT_GT(RefinedPairs(ph.value()), 0u);
}

TEST(PairBuildOracle, GdSeededEdges) {
  auto t = MakeDataset("flights", 20000, 17);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const PreprocessedTable pre = MustPreprocess(t.value());
  auto gd = CompressedTable::Compress(pre);
  ASSERT_TRUE(gd.ok()) << gd.status().ToString();
  PairwiseHistConfig cfg;
  cfg.sample_size = 10000;
  cfg.use_bases_for_edges = true;
  auto ph = PairwiseHist::Build(pre, &gd.value(), cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  // The bases seed more than the {min, max + 1} initial edges somewhere.
  size_t seeded = 0;
  for (size_t c = 0; c < ph->num_columns(); ++c) {
    seeded += ph->hist1d(c).NumBins() > 1;
  }
  EXPECT_GT(seeded, 0u);
  ExpectPairsMatchOracle(pre, cfg, ph.value());
}

TEST(PairBuildOracle, SingleValueAndAllNullColumns) {
  Table table("edge");
  Column spread("spread", DataType::kInt64);
  Column constant("constant", DataType::kInt64);
  Column empty("empty", DataType::kInt64);
  Column sparse("sparse", DataType::kInt64);
  Rng rng(19);
  const size_t n = 6000;
  for (size_t r = 0; r < n; ++r) {
    const double x = std::floor(rng.Uniform(0, 400));
    spread.Append(x);
    constant.Append(7);
    empty.AppendNull();
    if (rng.Bernoulli(0.4)) {
      sparse.AppendNull();
    } else {
      sparse.Append(x < 200 ? std::floor(rng.Uniform(0, 20))
                            : std::floor(rng.Uniform(300, 320)));
    }
  }
  table.AddColumn(std::move(spread));
  table.AddColumn(std::move(constant));
  table.AddColumn(std::move(empty));
  table.AddColumn(std::move(sparse));
  const PreprocessedTable pre = MustPreprocess(table);
  PairwiseHistConfig cfg;
  cfg.sample_size = 5000;
  cfg.min_points_override = 30;
  auto ph = PairwiseHist::Build(pre, nullptr, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  ExpectPairsMatchOracle(pre, cfg, ph.value());
  EXPECT_EQ(ph->hist1d(1).NumBins(), 1u);  // one value, one bin
  EXPECT_EQ(ph->hist1d(2).TotalCount(), 0u);
  EXPECT_GT(RefinedPairs(ph.value()), 0u);
}

// ---------------------------------------------------------------------------
// BuildPairHistogram driven directly.

HistogramDim Build1D(const std::vector<std::optional<double>>& sample,
                     const RefineConfig& config,
                     const Chi2CriticalCache& critical) {
  std::vector<double> sorted;
  for (const auto& v : sample) {
    if (v.has_value()) sorted.push_back(*v);
  }
  std::sort(sorted.begin(), sorted.end());
  if (sorted.empty()) return BuildHistogram1D({}, {1.0, 2.0}, config, critical);
  return BuildHistogram1D(sorted, {sorted.front(), sorted.back() + 1.0},
                          config, critical);
}

void ExpectDirectMatchesOracle(
    const std::vector<std::optional<double>>& si,
    const std::vector<std::optional<double>>& sj, const RefineConfig& config) {
  Chi2CriticalCache critical(config.alpha);
  const HistogramDim h1i = Build1D(si, config, critical);
  const HistogramDim h1j = Build1D(sj, config, critical);
  std::vector<double> xi, xj;
  for (size_t p = 0; p < si.size(); ++p) {
    if (!si[p].has_value() || !sj[p].has_value()) continue;
    xi.push_back(*si[p]);
    xj.push_back(*sj[p]);
  }
  const PairHistogram got =
      BuildPairHistogram(IndexedColumn(si, h1i).view(),
                         IndexedColumn(sj, h1j).view(), 1, 0, h1i, h1j,
                         config, critical);
  const PairHistogram want =
      OracleBuildPairHistogram(xi, xj, 1, 0, h1i, h1j, config, critical);
  const std::optional<std::string> diff = DiffPairHistograms(got, want);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

// Correlated columns with ties and independent nulls in each, on a grid of
// `grain`: a grain of 0.5 puts values exactly on half-integer split points.
void CorrelatedSample(size_t n, double null_rate, double grain, uint64_t seed,
                      std::vector<std::optional<double>>* si,
                      std::vector<std::optional<double>>* sj) {
  Rng rng(seed);
  si->clear();
  sj->clear();
  auto on_grid = [grain](double x) { return std::floor(x / grain) * grain; };
  for (size_t r = 0; r < n; ++r) {
    const double u = on_grid(rng.Uniform(0, 300));
    const double v = on_grid(u < 150 ? rng.Uniform(0, 40)
                                     : rng.Uniform(200, 260));
    si->push_back(rng.Bernoulli(null_rate) ? std::nullopt
                                           : std::optional<double>(u));
    sj->push_back(rng.Bernoulli(null_rate) ? std::nullopt
                                           : std::optional<double>(v));
  }
}

TEST(PairBuildDirect, RandomNullsAndConfigsMatchOracle) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::vector<std::optional<double>> si, sj;
    CorrelatedSample(500 + 700 * seed, 0.05 * (seed % 5),
                     seed % 3 == 0 ? 0.5 : 1.0, seed, &si, &sj);
    RefineConfig config;
    config.min_points = 5 + 20 * (seed % 4);
    config.alpha = seed % 2 == 0 ? 0.001 : 0.05;
    SCOPED_TRACE(seed);
    ExpectDirectMatchesOracle(si, sj, config);
  }
}

TEST(PairBuildDirect, MaxDepthCutOffMatchesOracle) {
  std::vector<std::optional<double>> si, sj;
  CorrelatedSample(8000, 0.1, 1.0, 23, &si, &sj);
  for (int depth : {0, 1, 2, 3, 5}) {
    RefineConfig config;
    config.min_points = 4;
    config.max_depth = depth;
    SCOPED_TRACE(depth);
    ExpectDirectMatchesOracle(si, sj, config);
  }
}

TEST(PairBuildDirect, EmptyAndDisjointInputs) {
  RefineConfig config;
  config.min_points = 10;
  // No rows at all.
  ExpectDirectMatchesOracle({}, {}, config);
  // Rows, but never both columns non-null at once.
  std::vector<std::optional<double>> si, sj;
  for (int r = 0; r < 400; ++r) {
    si.push_back(r % 2 == 0 ? std::optional<double>(r) : std::nullopt);
    sj.push_back(r % 2 == 1 ? std::optional<double>(r % 37) : std::nullopt);
  }
  ExpectDirectMatchesOracle(si, sj, config);
  // One side all-null.
  std::vector<std::optional<double>> nulls(si.size());
  ExpectDirectMatchesOracle(si, nulls, config);
}

}  // namespace
}  // namespace pairwisehist
