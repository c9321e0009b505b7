#include "ml/random_forest.hpp"

#include <cmath>

#include "common/error.hpp"

namespace esl::ml {

void validate(const ForestConfig& config) {
  expects(config.tree_count >= 1,
          "ForestConfig: need at least one tree");
  expects(config.bootstrap_fraction > 0.0 && config.bootstrap_fraction <= 1.0,
          "ForestConfig: bootstrap_fraction must lie in (0, 1]");
  expects(config.threshold > 0.0 && config.threshold < 1.0,
          "ForestConfig: threshold must lie in (0, 1)");
}

RandomForest::RandomForest(ForestConfig config) : config_(config) {
  validate(config_);
}

void RandomForest::fit(const Dataset& data, std::uint64_t seed) {
  validate(config_);
  data.check();
  expects(data.size() >= 2, "RandomForest::fit: dataset too small");

  TreeConfig tree_config = config_.tree;
  if (config_.features_per_split == 0) {
    tree_config.features_per_split = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<Real>(data.feature_count()))));
  } else {
    tree_config.features_per_split = config_.features_per_split;
  }

  const auto bootstrap_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.bootstrap_fraction *
                                  static_cast<Real>(data.size())));

  // Every tree walks the same presorted columns; the presort lives only
  // for this fit.
  const SortedColumns sorted(data.x);
  trees_.assign(config_.tree_count, DecisionTree{});
  Rng root(seed);
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    Rng tree_rng = root.fork(t);
    std::vector<std::size_t> bootstrap(bootstrap_size);
    for (auto& index : bootstrap) {
      index = static_cast<std::size_t>(tree_rng.uniform_index(data.size()));
    }
    trees_[t].fit(data.x, data.y, bootstrap, sorted, tree_rng, tree_config);
  }
}

const DecisionTree& RandomForest::tree(std::size_t index) const {
  expects(index < trees_.size(), "RandomForest::tree: index out of range");
  return trees_[index];
}

Real RandomForest::predict_proba(std::span<const Real> row) const {
  expects(is_fitted(), "RandomForest::predict_proba: not fitted");
  Real sum = 0.0;
  for (const auto& tree : trees_) {
    sum += tree.predict_proba(row);
  }
  return sum / static_cast<Real>(trees_.size());
}

int RandomForest::predict(std::span<const Real> row) const {
  return predict_proba(row) >= config_.threshold ? 1 : 0;
}

std::vector<int> RandomForest::predict_all(const Matrix& rows) const {
  std::vector<int> out;
  RealVector proba;
  predict_all_into(rows, proba, out);
  return out;
}

void RandomForest::predict_all_into(const Matrix& rows, RealVector& proba,
                                    std::vector<int>& labels) const {
  expects(is_fitted(), "RandomForest::predict_all_into: not fitted");
  proba.assign(rows.rows(), 0.0);
  for (const auto& tree : trees_) {
    tree.accumulate_proba(rows, proba);
  }
  const Real tree_count = static_cast<Real>(trees_.size());
  labels.resize(rows.rows());
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    proba[r] /= tree_count;  // same op as predict_proba: bit-equal paths
    labels[r] = proba[r] >= config_.threshold ? 1 : 0;
  }
}

}  // namespace esl::ml
