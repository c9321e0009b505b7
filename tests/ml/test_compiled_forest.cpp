#include "ml/compiled_forest.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../support/alloc_counter.hpp"
#include "common/error.hpp"
#include "ml/dataset.hpp"

ESL_DEFINE_COUNTING_ALLOCATOR();

namespace esl::ml {
namespace {

Dataset blobs(std::size_t per_class, std::uint64_t seed, Real separation = 3.0,
              std::size_t extra_noise_features = 6) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < per_class; ++i) {
    for (const int label : {1, 0}) {
      RealVector row;
      row.push_back(rng.normal(label == 1 ? separation : 0.0, 1.0));
      row.push_back(rng.normal(label == 1 ? -separation : 0.0, 1.0));
      for (std::size_t f = 0; f < extra_noise_features; ++f) {
        row.push_back(rng.normal());
      }
      data.push_back(row, label);
    }
  }
  return data;
}

/// Noisy labels and tied feature values: grows bushy trees with
/// duplicate thresholds and no-split leaves at many depths.
Dataset noisy(std::size_t size, std::uint64_t seed,
              std::size_t features = 10) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < size; ++i) {
    RealVector row;
    for (std::size_t f = 0; f < features; ++f) {
      // Quantized values force equal-value runs (non-boundaries) in the
      // split search.
      row.push_back(std::round(rng.normal() * 4.0) / 4.0);
    }
    data.push_back(row, rng.uniform_index(2) == 0 ? 0 : 1);
  }
  return data;
}

/// Asserts CompiledForest(forest) reproduces predict_all_into bit for
/// bit on `rows` (pre-scaled / scaler-free path).
void expect_parity(const RandomForest& forest, const Matrix& rows) {
  RealVector proba_reference;
  std::vector<int> labels_reference;
  forest.predict_all_into(rows, proba_reference, labels_reference);

  const CompiledForest compiled(forest);
  Matrix scratch = rows;  // empty scaler: left untouched
  RealVector proba_compiled;
  std::vector<int> labels_compiled;
  compiled.predict_into(scratch, proba_compiled, labels_compiled);

  EXPECT_EQ(proba_compiled, proba_reference);  // bit-identical, no tolerance
  EXPECT_EQ(labels_compiled, labels_reference);
  EXPECT_EQ(scratch, rows);
}

TEST(CompiledForest, RandomizedParityWithInterpreterIsBitIdentical) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomForest forest;  // default config: 32 trees, depth 16
    forest.fit(noisy(300, seed), seed);
    // Probe with sizes around the traversal block (16): partial blocks,
    // exact blocks, multi-block batches, and a single row.
    for (const std::size_t rows : {1u, 7u, 16u, 33u, 256u}) {
      expect_parity(forest, noisy(rows, seed + 100).x);
    }
  }
}

TEST(CompiledForest, Depth16ForestsAndStumpsStayBitIdentical) {
  for (const std::size_t depth : {1u, 2u, 4u, 16u}) {
    SCOPED_TRACE("max_depth " + std::to_string(depth));
    ForestConfig config;
    config.tree.max_depth = depth;
    RandomForest forest(config);
    forest.fit(blobs(200, depth, 1.0), 9);
    expect_parity(forest, blobs(100, depth + 50, 1.0).x);
  }
}

TEST(CompiledForest, SingleLeafDegenerateTreesSelfLoop) {
  // Pure labels: every bootstrap is single-class, so every tree is one
  // leaf (depth 0) and traversal must park rows on the root immediately.
  Dataset pure;
  Rng rng(3);
  for (std::size_t i = 0; i < 32; ++i) {
    const RealVector row = {rng.normal(), rng.normal()};
    pure.push_back(row, 1);
  }
  ForestConfig config;
  config.tree_count = 4;
  RandomForest forest(config);
  forest.fit(pure, 5);
  const CompiledForest compiled(forest);
  EXPECT_EQ(compiled.max_depth(), 0u);
  EXPECT_EQ(compiled.node_count(), 4u);  // one self-looping leaf per tree

  Matrix rows = blobs(20, 7, 1.0, 0).x;
  RealVector proba;
  std::vector<int> labels;
  compiled.predict_into(rows, proba, labels);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    EXPECT_EQ(proba[r], 1.0);
    EXPECT_EQ(labels[r], 1);
  }
  expect_parity(forest, rows);
}

TEST(CompiledForest, ConstantFeaturesYieldLeafOnlyForest) {
  // No informative split anywhere: build() keeps every root a leaf even
  // though labels are mixed.
  Dataset flat;
  const RealVector constant_row = {1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 40; ++i) {
    flat.push_back(constant_row, i % 2 == 0 ? 1 : 0);
  }
  RandomForest forest;
  forest.fit(flat, 11);
  expect_parity(forest, flat.x);
}

TEST(CompiledForest, BakedScalerMatchesScaleThenPredict) {
  const Dataset train = noisy(400, 21);
  RandomForest forest;
  forest.fit(train, 13);

  // Fit a z-score on the training matrix (one constant column exercises
  // the zero-spread branch).
  RowScaler scaler;
  for (std::size_t f = 0; f < train.feature_count(); ++f) {
    const RealVector column = train.x.column(f);
    Real mean = 0.0;
    for (const Real v : column) {
      mean += v;
    }
    mean /= static_cast<Real>(column.size());
    Real var = 0.0;
    for (const Real v : column) {
      var += (v - mean) * (v - mean);
    }
    scaler.mean.push_back(mean);
    scaler.stddev.push_back(std::sqrt(var / static_cast<Real>(column.size())));
  }
  scaler.stddev.back() = 0.0;  // degenerate column: centered-to-zero path

  const Matrix raw = noisy(64, 22).x;

  // Reference: scale a copy, then the interpreter.
  Matrix scaled = raw;
  scaler.apply(scaled);
  RealVector proba_reference;
  std::vector<int> labels_reference;
  forest.predict_all_into(scaled, proba_reference, labels_reference);

  // Compiled artifact with the scaler baked in, fed raw rows.
  const CompiledForest compiled(forest, scaler);
  Matrix scratch = raw;
  RealVector proba_compiled;
  std::vector<int> labels_compiled;
  compiled.predict_into(scratch, proba_compiled, labels_compiled);
  EXPECT_EQ(proba_compiled, proba_reference);
  EXPECT_EQ(labels_compiled, labels_reference);
  EXPECT_EQ(scratch, scaled);  // rows were z-scored in place

  // The ForestModel adapter over the same forest + scaler agrees too.
  const ForestModel adapter(std::make_shared<const RandomForest>(forest),
                            scaler);
  Matrix adapter_scratch = raw;
  RealVector proba_adapter;
  std::vector<int> labels_adapter;
  adapter.predict_into(adapter_scratch, proba_adapter, labels_adapter);
  EXPECT_EQ(proba_adapter, proba_reference);
  EXPECT_EQ(labels_adapter, labels_reference);
}

TEST(CompiledForest, HonorsDecisionThreshold) {
  ForestConfig config;
  config.threshold = 0.8;
  RandomForest forest(config);
  forest.fit(blobs(150, 31, 1.0), 3);
  const CompiledForest compiled(forest);
  EXPECT_EQ(compiled.decision_threshold(), 0.8);
  expect_parity(forest, blobs(80, 32, 1.0).x);
}

TEST(CompiledForest, IntrospectionMatchesSourceForest) {
  RandomForest forest;
  forest.fit(blobs(100, 41), 17);
  const CompiledForest compiled(forest);
  EXPECT_EQ(compiled.tree_count(), forest.tree_count());
  std::size_t nodes = 0;
  std::size_t depth = 0;
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    nodes += forest.tree(t).node_count();
    depth = std::max(depth, forest.tree(t).depth());
  }
  EXPECT_EQ(compiled.node_count(), nodes);
  EXPECT_EQ(compiled.max_depth(), depth);
  EXPECT_STREQ(compiled.name(), "compiled");
}

TEST(CompiledForest, EmptyBatchProducesEmptyOutputs) {
  RandomForest forest;
  forest.fit(blobs(50, 51), 1);
  const CompiledForest compiled(forest);
  Matrix empty;
  RealVector proba = {1.0, 2.0};       // stale scratch must be overwritten
  std::vector<int> labels = {1, 0, 1};
  compiled.predict_into(empty, proba, labels);
  EXPECT_TRUE(proba.empty());
  EXPECT_TRUE(labels.empty());
}

TEST(CompiledForest, RejectsUnfittedForestAndNarrowRows) {
  const RandomForest unfitted;
  EXPECT_THROW(CompiledForest{unfitted}, InvalidArgument);

  RandomForest forest;
  forest.fit(blobs(50, 61), 1);  // 8 features
  const CompiledForest compiled(forest);
  Matrix narrow(4, 1, 0.5);
  RealVector proba;
  std::vector<int> labels;
  EXPECT_THROW(compiled.predict_into(narrow, proba, labels), InvalidArgument);
}

TEST(CompiledForest, WarmPredictIntoIsAllocationFree) {
  // The engine polls predict_into once per batch on the streaming hot
  // path: after the first (sizing) call, repeated predictions on reused
  // scratch must not touch the heap.
  RandomForest forest;
  forest.fit(noisy(200, 51), 3);
  const CompiledForest compiled(forest);
  Matrix scratch = noisy(64, 52).x;
  RealVector proba;
  std::vector<int> labels;
  for (int warm = 0; warm < 3; ++warm) {
    compiled.predict_into(scratch, proba, labels);
  }
  const std::size_t before = esl::testing::allocation_count();
  for (int i = 0; i < 10; ++i) {
    compiled.predict_into(scratch, proba, labels);
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
}

/// Asserts the free predict_flat over CompiledForest::view() — the one
/// traversal CompiledForest and MappedModel both run — reproduces the
/// node-hop interpreter bit for bit on already-scaled `rows`.
void expect_flat_parity(const RandomForest& forest, const Matrix& rows) {
  RealVector proba_interpreter;
  std::vector<int> labels_interpreter;
  forest.predict_all_into(rows, proba_interpreter, labels_interpreter);

  const CompiledForest compiled(forest);
  RealVector proba;
  std::vector<int> labels;
  predict_flat(compiled.view(), rows, proba, labels);
  EXPECT_EQ(proba, proba_interpreter);  // bit-identical, no tolerance
  EXPECT_EQ(labels, labels_interpreter);
}

TEST(PredictFlat, RandomizedParityAcrossBlockBoundaryBatches) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomForest forest;  // default config: 32 trees, depth 16
    forest.fit(noisy(300, seed), seed);
    // Batch sizes straddling the 16-row traversal block and its
    // multiples: partial blocks, exact blocks, and a large multi-block
    // batch.
    for (const std::size_t rows : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 1024u}) {
      SCOPED_TRACE("rows " + std::to_string(rows));
      expect_flat_parity(forest, noisy(rows, seed + 100).x);
    }
  }
}

TEST(PredictFlat, DepthSweepStaysBitIdentical) {
  // Noisy labels fill every level up to the cap with bushy trees.
  for (const std::size_t depth : {1u, 2u, 4u, 8u, 16u}) {
    SCOPED_TRACE("max_depth " + std::to_string(depth));
    ForestConfig config;
    config.tree.max_depth = depth;
    RandomForest forest(config);
    forest.fit(noisy(250, depth + 7), 9);
    expect_flat_parity(forest, noisy(100, depth + 50).x);
  }
}

TEST(PredictFlat, SingleLeafDegenerateForestParksOnRoot) {
  // Pure labels: every tree is a single self-looping leaf (depth 0), so
  // the view's tree_depth entries are all zero and no level runs.
  Dataset pure;
  Rng rng(3);
  for (std::size_t i = 0; i < 32; ++i) {
    const RealVector row = {rng.normal(), rng.normal()};
    pure.push_back(row, 1);
  }
  ForestConfig config;
  config.tree_count = 4;
  RandomForest forest(config);
  forest.fit(pure, 5);
  const CompiledForest compiled(forest);
  const FlatForest view = compiled.view();
  for (const std::uint32_t depth : view.tree_depth) {
    EXPECT_EQ(depth, 0u);
  }

  const Matrix rows = noisy(40, 11, 2).x;
  RealVector proba;
  std::vector<int> labels;
  predict_flat(view, rows, proba, labels);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    EXPECT_EQ(proba[r], 1.0);
    EXPECT_EQ(labels[r], 1);
  }
  expect_flat_parity(forest, rows);
}

TEST(PredictFlat, ConstantFeaturesYieldLeafOnlyForest) {
  Dataset flat;
  const RealVector constant_row = {1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 40; ++i) {
    flat.push_back(constant_row, i % 2 == 0 ? 1 : 0);
  }
  RandomForest forest;
  forest.fit(flat, 11);
  expect_flat_parity(forest, flat.x);
}

TEST(PredictFlat, BakedScalerMatchesCompiledForest) {
  // CompiledForest::predict_into is "apply the baked scaler, then
  // predict_flat": scaling by hand and calling the free traversal on the
  // same view must agree bit for bit.
  const Dataset train = noisy(300, 21);
  RandomForest forest;
  forest.fit(train, 13);

  RowScaler scaler;
  for (std::size_t f = 0; f < train.feature_count(); ++f) {
    scaler.mean.push_back(0.25 * static_cast<Real>(f));
    scaler.stddev.push_back(1.0 + 0.1 * static_cast<Real>(f));
  }
  scaler.stddev.back() = 0.0;  // degenerate column: centered-to-zero path

  const Matrix raw = noisy(64, 22).x;
  const CompiledForest compiled(forest, scaler);
  Matrix compiled_scratch = raw;
  RealVector proba_compiled;
  std::vector<int> labels_compiled;
  compiled.predict_into(compiled_scratch, proba_compiled, labels_compiled);

  Matrix scaled = raw;
  scaler.apply(scaled);
  RealVector proba;
  std::vector<int> labels;
  predict_flat(compiled.view(), scaled, proba, labels);
  EXPECT_EQ(proba, proba_compiled);
  EXPECT_EQ(labels, labels_compiled);
  EXPECT_EQ(scaled, compiled_scratch);  // predict_into z-scored in place
}

TEST(PredictFlat, EmptyBatchAndErrorPaths) {
  RandomForest forest;
  forest.fit(noisy(60, 41), 1);
  const CompiledForest compiled(forest);

  const Matrix empty;
  RealVector proba = {1.0, 2.0};  // stale scratch must be overwritten
  std::vector<int> labels = {1, 0, 1};
  predict_flat(compiled.view(), empty, proba, labels);
  EXPECT_TRUE(proba.empty());
  EXPECT_TRUE(labels.empty());

  const Matrix narrow(4, 1, 0.5);
  EXPECT_THROW(predict_flat(compiled.view(), narrow, proba, labels),
               InvalidArgument);
}

TEST(ForestModel, RejectsNullAndUnfittedForest) {
  EXPECT_THROW(ForestModel(nullptr, {}), InvalidArgument);
  EXPECT_THROW(ForestModel(std::make_shared<const RandomForest>(), {}),
               InvalidArgument);
}

TEST(RowScaler, EmptyScalerIsIdentityAndMismatchThrows) {
  Matrix rows(2, 3, 1.5);
  const Matrix original = rows;
  RowScaler{}.apply(rows);
  EXPECT_EQ(rows, original);

  RowScaler scaler;
  scaler.mean = {0.0, 0.0};
  scaler.stddev = {1.0, 1.0};
  EXPECT_THROW(scaler.apply(rows), InvalidArgument);  // width mismatch
}

}  // namespace
}  // namespace esl::ml
