#include "ml/decision_tree.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace esl::ml {

namespace {

/// Gini impurity of a (pos, total) count.
Real gini(std::size_t positives, std::size_t total) {
  if (total == 0) {
    return 0.0;
  }
  const Real p = static_cast<Real>(positives) / static_cast<Real>(total);
  return 2.0 * p * (1.0 - p);
}

struct SplitCandidate {
  bool valid = false;
  std::size_t feature = 0;
  Real threshold = 0.0;
  Real impurity = std::numeric_limits<Real>::max();
};

}  // namespace

SortedColumns::SortedColumns(const Matrix& x)
    : rows_(x.rows()), cols_(x.cols()), order_(x.rows() * x.cols()) {
  expects(rows_ <= std::numeric_limits<std::uint32_t>::max(),
          "SortedColumns: too many rows");
  std::vector<std::pair<Real, std::uint32_t>> keyed(rows_);
  for (std::size_t f = 0; f < cols_; ++f) {
    for (std::size_t r = 0; r < rows_; ++r) {
      keyed[r] = {x(r, f), static_cast<std::uint32_t>(r)};
    }
    std::sort(keyed.begin(), keyed.end());
    std::uint32_t* column = order_.data() + f * rows_;
    for (std::size_t k = 0; k < rows_; ++k) {
      column[k] = keyed[k].second;
    }
  }
}

/// One tree's inputs and growth scratch, shared by all of its nodes.
struct DecisionTree::Growth {
  const Matrix& x;
  const std::vector<int>& y;
  const SortedColumns& sorted;
  Rng& rng;
  const TreeConfig& config;
  /// The sample, partitioned in place node by node.
  std::vector<std::size_t> indices;
  /// Copies of each row in the sample. A split sends every copy of a
  /// row the same way, so a node holds all of them.
  std::vector<std::uint32_t> multiplicity;
  /// Stamp of the last node whose range held each row.
  std::vector<std::uint32_t> stamp;
  std::uint32_t node_stamp = 0;
  /// Candidate features of the node being split.
  std::vector<std::size_t> features;
};

void DecisionTree::fit(const Matrix& x, const std::vector<int>& y, Rng& rng,
                       const TreeConfig& config) {
  std::vector<std::size_t> all(x.rows());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  fit(x, y, all, rng, config);
}

void DecisionTree::fit(const Matrix& x, const std::vector<int>& y,
                       const std::vector<std::size_t>& sample_indices,
                       Rng& rng, const TreeConfig& config) {
  fit(x, y, sample_indices, SortedColumns(x), rng, config);
}

void DecisionTree::fit(const Matrix& x, const std::vector<int>& y,
                       const std::vector<std::size_t>& sample_indices,
                       const SortedColumns& sorted, Rng& rng,
                       const TreeConfig& config) {
  expects(x.rows() == y.size(), "DecisionTree::fit: row/label mismatch");
  expects(!sample_indices.empty(), "DecisionTree::fit: no training samples");
  expects(config.max_depth >= 1, "DecisionTree::fit: max_depth must be >= 1");
  expects(sorted.rows() == x.rows() && sorted.cols() == x.cols(),
          "DecisionTree::fit: presorted columns of another matrix");
  Growth g{x, y, sorted, rng, config, sample_indices, {}, {}, 0, {}};
  g.multiplicity.assign(x.rows(), 0);
  for (const std::size_t i : sample_indices) {
    expects(i < x.rows(), "DecisionTree::fit: sample index out of range");
    ++g.multiplicity[i];
  }
  g.stamp.assign(x.rows(), 0);
  g.features.reserve(x.cols());
  nodes_.clear();
  depth_ = 0;
  build(g, 0, g.indices.size(), 0);
  max_split_feature_ = 0;
  for (const Node& node : nodes_) {
    if (!node.is_leaf) {
      max_split_feature_ = std::max(max_split_feature_, node.feature);
    }
  }
}

std::size_t DecisionTree::build(Growth& g, std::size_t begin,
                                std::size_t end, std::size_t level) {
  const Matrix& x = g.x;
  const std::vector<int>& y = g.y;
  const TreeConfig& config = g.config;
  std::vector<std::size_t>& indices = g.indices;
  const std::size_t count = end - begin;
  std::size_t positives = 0;
  for (std::size_t i = begin; i < end; ++i) {
    positives += static_cast<std::size_t>(y[indices[i]]);
  }

  depth_ = std::max(depth_, level);
  const std::size_t node_index = nodes_.size();
  nodes_.push_back(Node{});
  nodes_[node_index].positive_fraction =
      static_cast<Real>(positives) / static_cast<Real>(count);

  const bool pure = (positives == 0 || positives == count);
  if (pure || level + 1 >= config.max_depth ||
      count < config.min_samples_split) {
    return node_index;
  }

  // Feature subset for this split.
  std::vector<std::size_t>& features = g.features;
  features.resize(x.cols());
  for (std::size_t f = 0; f < features.size(); ++f) {
    features[f] = f;
  }
  if (config.features_per_split > 0 &&
      config.features_per_split < features.size()) {
    g.rng.shuffle(features);
    features.resize(config.features_per_split);
  }

  // Best split search. Each candidate column is walked in value order
  // over this node's rows (the stamped ones), each weighted by its
  // multiplicity, and every boundary between two distinct values is
  // scored: the same boundaries, left counts and thresholds as sorting
  // the node's (value, label) pairs.
  const std::uint32_t stamp = ++g.node_stamp;
  for (std::size_t i = begin; i < end; ++i) {
    g.stamp[indices[i]] = stamp;
  }
  SplitCandidate best;
  for (const std::size_t f : features) {
    std::size_t left_n = 0;
    std::size_t left_pos = 0;
    Real previous = 0.0;
    for (const std::uint32_t row : g.sorted.column(f)) {
      if (g.stamp[row] != stamp) {
        continue;
      }
      const Real value = x(row, f);
      const std::size_t right_n = count - left_n;
      if (left_n > 0 && value != previous &&
          left_n >= config.min_samples_leaf &&
          right_n >= config.min_samples_leaf) {
        const Real impurity =
            (static_cast<Real>(left_n) * gini(left_pos, left_n) +
             static_cast<Real>(right_n) *
                 gini(positives - left_pos, right_n)) /
            static_cast<Real>(count);
        if (impurity < best.impurity) {
          best.valid = true;
          best.feature = f;
          best.threshold = 0.5 * (previous + value);
          best.impurity = impurity;
        }
      }
      const std::uint32_t copies = g.multiplicity[row];
      left_n += copies;
      left_pos += copies * static_cast<std::size_t>(y[row]);
      if (left_n == count) {
        break;  // every row of the node is on the left
      }
      previous = value;
    }
  }

  if (!best.valid) {
    return node_index;  // no informative split found
  }

  // Partition the index range by the chosen split.
  auto middle = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) { return x(row, best.feature) <= best.threshold; });
  const auto mid =
      static_cast<std::size_t>(middle - indices.begin());
  if (mid == begin || mid == end) {
    return node_index;  // numeric degeneracy; keep the leaf
  }

  nodes_[node_index].is_leaf = false;
  nodes_[node_index].feature = best.feature;
  nodes_[node_index].threshold = best.threshold;
  const std::size_t left_child = build(g, begin, mid, level + 1);
  nodes_[node_index].left = left_child;
  const std::size_t right_child = build(g, mid, end, level + 1);
  nodes_[node_index].right = right_child;
  return node_index;
}

DecisionTree::NodeView DecisionTree::node(std::size_t index) const {
  expects(index < nodes_.size(), "DecisionTree::node: index out of range");
  const Node& n = nodes_[index];
  return {n.is_leaf, n.feature, n.threshold, n.left, n.right,
          n.positive_fraction};
}

Real DecisionTree::predict_proba(std::span<const Real> row) const {
  expects(!nodes_.empty(), "DecisionTree::predict_proba: tree not fitted");
  std::size_t node = 0;
  while (!nodes_[node].is_leaf) {
    expects(nodes_[node].feature < row.size(),
            "DecisionTree::predict_proba: row too narrow");
    node = row[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].positive_fraction;
}

int DecisionTree::predict(std::span<const Real> row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

void DecisionTree::accumulate_proba(const Matrix& rows,
                                    std::vector<Real>& sums) const {
  expects(!nodes_.empty(), "DecisionTree::accumulate_proba: tree not fitted");
  expects(sums.size() == rows.rows(),
          "DecisionTree::accumulate_proba: sums size mismatch");
  expects(rows.rows() == 0 || max_split_feature_ < rows.cols(),
          "DecisionTree::accumulate_proba: rows too narrow");
  const Node* nodes = nodes_.data();
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    const Real* row = rows.row(r).data();
    std::size_t node = 0;
    while (!nodes[node].is_leaf) {
      node = row[nodes[node].feature] <= nodes[node].threshold
                 ? nodes[node].left
                 : nodes[node].right;
    }
    sums[r] += nodes[node].positive_fraction;
  }
}

}  // namespace esl::ml
