// Immutable compiled inference artifact: a fitted random forest
// flattened into contiguous structure-of-arrays storage.
//
// A fitted RandomForest keeps each tree as a vector of Node structs and
// classifies by hopping node indices through scattered records — fine for
// a wearable classifying one window, wasteful for a service classifying
// a fleet's batch. CompiledForest is a one-time flattening pass: the
// whole ensemble becomes per-forest feature[], threshold[], children[]
// and leaf_value[] arrays with all trees packed back-to-back, and
// predict_into traverses tree-major in row blocks — a block of rows
// advances through one tree level by level, so the inner loop is a
// branch-light select over flat arrays. Leaves are encoded as
// self-loops, so a block runs a fixed per-tree level count with no
// per-row early-exit branch.
//
// Parity contract: per row, trees accumulate in the same order and with
// the same final division by tree_count as RandomForest::predict_proba /
// predict_all_into, so compiled outputs are bit-identical to the
// node-hopping interpreter (tests/ml/test_compiled_forest.cpp).
//
// The artifact is immutable after construction and holds no mutable
// state, which is what makes DetectionService::swap_model safe: deploys
// are a shared_ptr swap under the shard lock, never an in-place retrain.
//
// Layout contract (the single source of truth shared with the on-disk
// artifact writer/mapper in ml/artifact.hpp):
//   * one entry per node, all trees back-to-back in ensemble order;
//   * the topology is stored once, as interleaved child pairs:
//     children[2*n] is node n's left child, children[2*n + 1] its right,
//     both absolute node indices into the same arrays;
//   * leaves self-loop (both children == self, feature 0, threshold
//     +inf), so traversal runs a fixed per-tree level count with no
//     is_leaf branch, and NaN feature values go right (compare false);
//   * leaf_value[n] holds every node's positive fraction but is only
//     read once a row parks on a leaf;
//   * tree_root[t] is the absolute index of tree t's root, tree_depth[t]
//     the level count traversal runs for it (0 for a single-leaf tree);
//   * node indices are uint32 (the constructor rejects ensembles past
//     2^32 nodes), thresholds/leaf values are Real (double);
//   * every accessor returns a std::span view — no accessor copies, so
//     a serializer can stream the arrays straight out and a mapper can
//     serve traversal straight from the bytes it loaded.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/inference_model.hpp"
#include "ml/random_forest.hpp"

namespace esl::ml {

/// Borrowed view of one flattened ensemble — what predict_flat
/// traverses. CompiledForest::view() borrows from its owned vectors and
/// MappedModel (ml/artifact.hpp) points every span straight into an
/// mmap'd artifact, so both run the same traversal. The view owns
/// nothing: whoever holds the arrays must outlive it.
struct FlatForest {
  std::span<const std::uint32_t> feature;
  std::span<const Real> threshold;
  /// Interleaved pairs: children[2*n + 0] = left, children[2*n + 1] =
  /// right (2 * node_count entries).
  std::span<const std::uint32_t> children;
  std::span<const Real> leaf_value;
  std::span<const std::uint32_t> tree_root;
  std::span<const std::uint32_t> tree_depth;
  Real decision_threshold = 0.5;
  std::uint32_t max_feature = 0;

  std::size_t node_count() const { return feature.size(); }
  std::size_t tree_count() const { return tree_root.size(); }
};

/// The one forest traversal: tree-major, in blocks of rows, over any
/// flat view. `rows` must already be z-scored. Overwrites
/// `proba`/`labels` (resized; reused scratch allocates nothing warm).
/// Per row, trees accumulate in ensemble order with one final division
/// by tree_count, so outputs are bit-identical to
/// RandomForest::predict_all_into on the source ensemble.
void predict_flat(const FlatForest& forest, const Matrix& rows,
                  RealVector& proba, std::vector<int>& labels);

class CompiledForest final : public InferenceModel {
 public:
  /// Flattens `forest` (must be fitted). `scaler` is baked in and applied
  /// before traversal; pass {} when rows arrive pre-scaled.
  explicit CompiledForest(const RandomForest& forest, RowScaler scaler = {});

  const char* name() const override { return "compiled"; }
  std::size_t tree_count() const override { return tree_root_.size(); }
  void predict_into(Matrix& raw_rows, RealVector& proba,
                    std::vector<int>& labels) const override;

  /// Total flattened nodes across all trees.
  std::size_t node_count() const { return feature_.size(); }
  /// Deepest tree in the ensemble (levels traversed per block).
  std::size_t max_depth() const { return max_depth_; }
  /// Decision threshold on the averaged tree probability.
  Real decision_threshold() const { return decision_threshold_; }
  const RowScaler& scaler() const { return scaler_; }
  /// Widest feature index any split reads (rows must be wider).
  std::uint32_t max_feature() const { return max_feature_; }

  /// The borrowed traversal view over this artifact's arrays.
  FlatForest view() const;

  // Read-only views of the flat arrays, in flattening order — what
  // ml/artifact.hpp's on-disk serialization streams out. All accessors
  // return spans — never copies.
  std::span<const std::uint32_t> features() const { return feature_; }
  std::span<const Real> thresholds() const { return threshold_; }
  /// Interleaved child pairs: [2*n] = left, [2*n + 1] = right.
  std::span<const std::uint32_t> children() const { return children_; }
  std::span<const Real> leaf_values() const { return leaf_value_; }
  std::span<const std::uint32_t> tree_roots() const { return tree_root_; }
  std::span<const std::uint32_t> tree_depths() const { return tree_depth_; }

 private:
  RowScaler scaler_;
  Real decision_threshold_ = 0.5;
  std::size_t max_depth_ = 0;
  std::uint32_t max_feature_ = 0;

  // One entry per node (two in children_), all trees back-to-back.
  // Children are absolute node indices; leaves self-loop (both children
  // == self, threshold +inf) so traversal needs no is_leaf branch.
  // leaf_value_ holds every node's positive fraction but is only read
  // once a row parks on a leaf.
  std::vector<std::uint32_t> feature_;
  RealVector threshold_;
  std::vector<std::uint32_t> children_;
  RealVector leaf_value_;

  std::vector<std::uint32_t> tree_root_;
  std::vector<std::uint32_t> tree_depth_;  // levels to run per tree
};

}  // namespace esl::ml
