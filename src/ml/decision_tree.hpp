// CART decision tree (Gini impurity) — the base learner of the random
// forest classifier used by the real-time detector [7, 28].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace esl::ml {

/// Tree growth limits.
struct TreeConfig {
  std::size_t max_depth = 16;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Features examined per split; 0 means all (no subsampling).
  std::size_t features_per_split = 0;
};

/// The row order of every column of a training matrix, ascending by
/// value (ties in any order), computed once so that each tree grown on
/// the matrix walks rows in value order instead of sorting at every node.
/// A forest builds one per fit and drops it when the fit returns.
class SortedColumns {
 public:
  explicit SortedColumns(const Matrix& x);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Row indices of column `feature`, in ascending value order.
  std::span<const std::uint32_t> column(std::size_t feature) const {
    return std::span<const std::uint32_t>(order_).subspan(feature * rows_,
                                                          rows_);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> order_;  // column-major: cols_ x rows_
};

/// Binary CART classifier.
class DecisionTree {
 public:
  /// Grows the tree on (x, y) using `sample_indices` (with repetitions
  /// allowed, enabling bootstrap training). `rng` drives feature
  /// subsampling.
  void fit(const Matrix& x, const std::vector<int>& y,
           const std::vector<std::size_t>& sample_indices, Rng& rng,
           const TreeConfig& config = {});

  /// The same fit with `sorted` == SortedColumns(x) supplied by the
  /// caller, so that the trees of one forest share one presort.
  void fit(const Matrix& x, const std::vector<int>& y,
           const std::vector<std::size_t>& sample_indices,
           const SortedColumns& sorted, Rng& rng,
           const TreeConfig& config = {});

  /// Convenience fit over all rows.
  void fit(const Matrix& x, const std::vector<int>& y, Rng& rng,
           const TreeConfig& config = {});

  /// Probability that `row` belongs to class 1 (leaf class fraction).
  Real predict_proba(std::span<const Real> row) const;

  /// Hard label with a 0.5 threshold.
  int predict(std::span<const Real> row) const;

  /// Batched traversal: adds this tree's class-1 probability of every row
  /// of `rows` into `sums` (sums.size() == rows.rows()). Iterating rows
  /// inside one tree keeps the node array cache-hot, which is what makes
  /// the engine's batched inference faster than per-window calls.
  void accumulate_proba(const Matrix& rows, std::vector<Real>& sums) const;

  /// Number of nodes (0 before fit).
  std::size_t node_count() const { return nodes_.size(); }
  /// Maximum depth reached while growing.
  std::size_t depth() const { return depth_; }

  /// Read-only view of one fitted node, for model compilation
  /// (ml/compiled_forest.hpp): flattening passes walk the tree without
  /// depending on the node layout. `left`/`right` are indices into this
  /// tree's own node array; meaningless when `is_leaf`.
  struct NodeView {
    bool is_leaf = true;
    std::size_t feature = 0;
    Real threshold = 0.0;
    std::size_t left = 0;
    std::size_t right = 0;
    Real positive_fraction = 0.0;
  };
  NodeView node(std::size_t index) const;

 private:
  struct Node {
    bool is_leaf = true;
    std::size_t feature = 0;
    Real threshold = 0.0;
    std::size_t left = 0;   // index into nodes_
    std::size_t right = 0;  // index into nodes_
    Real positive_fraction = 0.0;
  };

  struct Growth;
  std::size_t build(Growth& g, std::size_t begin, std::size_t end,
                    std::size_t level);

  std::vector<Node> nodes_;
  std::size_t depth_ = 0;
  /// Highest feature index any split uses; lets the batched traversal
  /// validate the row width once instead of per node hop.
  std::size_t max_split_feature_ = 0;
};

}  // namespace esl::ml
