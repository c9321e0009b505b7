// The forest fit walks columns sorted once per fit instead of sorting the
// node's (value, label) pairs at every node. These tests keep the
// per-node-sort CART as a reference and require every tree to match it
// node for node, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "core/realtime_detector.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "sim/cohort.hpp"

namespace esl::ml {
namespace {

using Node = DecisionTree::NodeView;

Real gini(std::size_t positives, std::size_t total) {
  const Real p = static_cast<Real>(positives) / static_cast<Real>(total);
  return 2.0 * p * (1.0 - p);
}

/// The per-node-sort CART: at every node, sort the (value, label) pairs
/// of each candidate feature and score each boundary between distinct
/// values.
struct ReferenceTree {
  const Matrix& x;
  const std::vector<int>& y;
  const TreeConfig& config;
  Rng& rng;
  std::vector<Node> nodes;

  std::size_t build(std::vector<std::size_t>& indices, std::size_t begin,
                    std::size_t end, std::size_t level) {
    const std::size_t count = end - begin;
    std::size_t positives = 0;
    for (std::size_t i = begin; i < end; ++i) {
      positives += static_cast<std::size_t>(y[indices[i]]);
    }
    const std::size_t index = nodes.size();
    nodes.push_back(Node{});
    nodes[index].positive_fraction =
        static_cast<Real>(positives) / static_cast<Real>(count);
    if (positives == 0 || positives == count || level + 1 >= config.max_depth ||
        count < config.min_samples_split) {
      return index;
    }
    std::vector<std::size_t> features(x.cols());
    std::iota(features.begin(), features.end(), std::size_t{0});
    if (config.features_per_split > 0 &&
        config.features_per_split < features.size()) {
      rng.shuffle(features);
      features.resize(config.features_per_split);
    }
    bool valid = false;
    std::size_t best_feature = 0;
    Real best_threshold = 0.0;
    Real best_impurity = std::numeric_limits<Real>::max();
    std::vector<std::pair<Real, int>> sorted;
    for (const std::size_t f : features) {
      sorted.clear();
      for (std::size_t i = begin; i < end; ++i) {
        sorted.emplace_back(x(indices[i], f), y[indices[i]]);
      }
      std::sort(sorted.begin(), sorted.end());
      std::size_t left_pos = 0;
      for (std::size_t i = 1; i < count; ++i) {
        left_pos += static_cast<std::size_t>(sorted[i - 1].second);
        const std::size_t right_n = count - i;
        if (sorted[i].first == sorted[i - 1].first ||
            i < config.min_samples_leaf || right_n < config.min_samples_leaf) {
          continue;
        }
        const Real impurity =
            (static_cast<Real>(i) * gini(left_pos, i) +
             static_cast<Real>(right_n) * gini(positives - left_pos, right_n)) /
            static_cast<Real>(count);
        if (impurity < best_impurity) {
          valid = true;
          best_feature = f;
          best_threshold = 0.5 * (sorted[i - 1].first + sorted[i].first);
          best_impurity = impurity;
        }
      }
    }
    if (!valid) {
      return index;
    }
    const auto middle = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(begin),
        indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t row) { return x(row, best_feature) <= best_threshold; });
    const auto mid = static_cast<std::size_t>(middle - indices.begin());
    if (mid == begin || mid == end) {
      return index;
    }
    nodes[index].is_leaf = false;
    nodes[index].feature = best_feature;
    nodes[index].threshold = best_threshold;
    nodes[index].left = build(indices, begin, mid, level + 1);
    nodes[index].right = build(indices, mid, end, level + 1);
    return index;
  }
};

std::vector<Node> reference_tree(const Matrix& x, const std::vector<int>& y,
                                 std::vector<std::size_t> indices, Rng& rng,
                                 const TreeConfig& config) {
  ReferenceTree tree{x, y, config, rng, {}};
  tree.build(indices, 0, indices.size(), 0);
  return tree.nodes;
}

void expect_same_tree(const DecisionTree& tree, const std::vector<Node>& ref,
                      const std::string& where) {
  ASSERT_EQ(tree.node_count(), ref.size()) << where;
  for (std::size_t n = 0; n < ref.size(); ++n) {
    const Node got = tree.node(n);
    const Node& want = ref[n];
    ASSERT_EQ(got.is_leaf, want.is_leaf) << where << " node " << n;
    ASSERT_EQ(got.feature, want.feature) << where << " node " << n;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.threshold),
              std::bit_cast<std::uint64_t>(want.threshold))
        << where << " node " << n;
    ASSERT_EQ(got.left, want.left) << where << " node " << n;
    ASSERT_EQ(got.right, want.right) << where << " node " << n;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.positive_fraction),
              std::bit_cast<std::uint64_t>(want.positive_fraction))
        << where << " node " << n;
  }
}

/// Fits a forest and replays RandomForest::fit's protocol (one fork per
/// tree, the bootstrap draws, then the tree) through the reference CART.
void expect_forest_matches_reference(const Dataset& data, ForestConfig config,
                                     std::uint64_t seed) {
  RandomForest forest(config);
  forest.fit(data, seed);

  TreeConfig tree_config = config.tree;
  tree_config.features_per_split =
      config.features_per_split != 0
          ? config.features_per_split
          : static_cast<std::size_t>(std::lround(
                std::sqrt(static_cast<Real>(data.feature_count()))));
  const auto bootstrap_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.bootstrap_fraction *
                                  static_cast<Real>(data.size())));
  ASSERT_EQ(forest.tree_count(), config.tree_count);
  Rng root(seed);
  for (std::size_t t = 0; t < config.tree_count; ++t) {
    Rng rng = root.fork(t);
    std::vector<std::size_t> bootstrap(bootstrap_size);
    for (auto& index : bootstrap) {
      index = static_cast<std::size_t>(rng.uniform_index(data.size()));
    }
    expect_same_tree(forest.tree(t),
                     reference_tree(data.x, data.y, bootstrap, rng, tree_config),
                     "tree " + std::to_string(t));
  }
}

/// e-Glass training sets from cohort records: a trigger's balanced set
/// (one seizure) and an unbalanced buffer of several records.
class ForestPresortCohortTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const sim::CohortSimulator simulator;
    const auto events = simulator.events_for_patient(4);
    buffer_ = new Dataset();
    triggers_ = new std::vector<Dataset>();
    for (std::size_t e = 0; e < 2; ++e) {
      const signal::EegRecord record =
          simulator.synthesize_sample(events[e], e, 500.0, 600.0);
      const Dataset windows =
          core::build_window_dataset(record, record.seizures());
      Rng rng(e + 1);
      triggers_->push_back(balance_classes(windows, rng));
      buffer_->append(windows);
    }
  }
  static void TearDownTestSuite() {
    delete buffer_;
    delete triggers_;
    buffer_ = nullptr;
    triggers_ = nullptr;
  }

  static Dataset* buffer_;
  static std::vector<Dataset>* triggers_;
};

Dataset* ForestPresortCohortTest::buffer_ = nullptr;
std::vector<Dataset>* ForestPresortCohortTest::triggers_ = nullptr;

TEST_F(ForestPresortCohortTest, TriggerForestsMatchTheSortingReference) {
  for (const Dataset& data : *triggers_) {
    ASSERT_GT(data.positives(), 0u);
    for (const std::uint64_t seed : {7u, 8u}) {
      expect_forest_matches_reference(data, core::RealtimeConfig{}.forest,
                                      seed);
    }
  }
}

TEST_F(ForestPresortCohortTest, BufferForestMatchesTheSortingReference) {
  ASSERT_GE(buffer_->size(), 1000u);
  expect_forest_matches_reference(*buffer_, core::RealtimeConfig{}.forest, 3);
}

/// Random rows whose values are drawn from `levels` distinct values per
/// column (heavy ties when small), with a noisy label on column 0.
Dataset tied_dataset(std::size_t rows, std::size_t cols, int levels,
                     std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  RealVector row(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& v : row) {
      v = static_cast<Real>(rng.uniform_index(static_cast<std::uint64_t>(levels)));
    }
    data.push_back(row, row[0] + rng.normal() > 0.5 * levels ? 1 : 0);
  }
  return data;
}

TEST(ForestPresortParity, HeavyTiesAndConstantColumns) {
  Dataset data = tied_dataset(150, 12, 3, 1);
  for (std::size_t r = 0; r < data.size(); ++r) {
    data.x(r, 4) = 2.5;  // constant columns never split
    data.x(r, 9) = -1.0;
  }
  expect_forest_matches_reference(data, ForestConfig{}, 5);
}

TEST(ForestPresortParity, DuplicateRows) {
  const Dataset base = tied_dataset(40, 8, 50, 2);
  Dataset data;
  for (int copy = 0; copy < 4; ++copy) {
    data.append(base);
  }
  expect_forest_matches_reference(data, ForestConfig{}, 9);
}

TEST(ForestPresortParity, SignedZerosTieWithEachOther) {
  Rng rng(3);
  Dataset data;
  const Real values[] = {-0.0, 0.0, 1.0, -1.0};
  RealVector row(6);
  for (std::size_t r = 0; r < 120; ++r) {
    for (auto& v : row) {
      v = values[rng.uniform_index(4)];
    }
    data.push_back(row, (row[0] + row[1] > 0.0) != rng.bernoulli(0.1) ? 1 : 0);
  }
  ForestConfig config;
  config.features_per_split = 6;  // every feature at every split
  expect_forest_matches_reference(data, config, 11);
}

TEST(ForestPresortParity, GrowthLimitsAndEveryFeaturePerSplit) {
  const Dataset data = tied_dataset(200, 10, 40, 4);
  ForestConfig config;
  config.tree.min_samples_leaf = 4;
  config.tree.min_samples_split = 9;
  expect_forest_matches_reference(data, config, 2);
  config = ForestConfig{};
  config.tree.max_depth = 3;
  config.bootstrap_fraction = 0.6;
  expect_forest_matches_reference(data, config, 2);
  config = ForestConfig{};
  config.features_per_split = data.feature_count();
  expect_forest_matches_reference(data, config, 2);
}

TEST(ForestPresortParity, SingleTreeFitMatchesTheReference) {
  // DecisionTree::fit without a presort supplied sorts the columns
  // itself and walks them the same way.
  const Dataset data = tied_dataset(90, 7, 6, 6);
  TreeConfig config;
  config.features_per_split = 3;
  std::vector<std::size_t> indices;
  Rng draw(12);
  for (std::size_t i = 0; i < 120; ++i) {
    indices.push_back(static_cast<std::size_t>(draw.uniform_index(data.size())));
  }
  Rng rng(4);
  DecisionTree tree;
  tree.fit(data.x, data.y, indices, rng, config);
  Rng reference_rng(4);
  expect_same_tree(tree,
                   reference_tree(data.x, data.y, indices, reference_rng, config),
                   "single tree");
  EXPECT_EQ(rng.next_u64(), reference_rng.next_u64());  // same draws consumed
}

}  // namespace
}  // namespace esl::ml
