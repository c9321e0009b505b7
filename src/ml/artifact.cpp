#include "ml/artifact.hpp"

#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace esl::ml {

namespace {

constexpr std::size_t align_up(std::size_t offset) {
  return (offset + k_artifact_alignment - 1) & ~(k_artifact_alignment - 1);
}

}  // namespace

ArtifactLayout artifact_layout(std::uint64_t node_count,
                               std::uint64_t tree_count,
                               std::uint64_t scaler_width) {
  const auto n = static_cast<std::size_t>(node_count);
  const auto t = static_cast<std::size_t>(tree_count);
  const auto w = static_cast<std::size_t>(scaler_width);
  ArtifactLayout layout;
  std::size_t offset = align_up(sizeof(ArtifactHeader));
  const auto place = [&offset](std::size_t* slot, std::size_t bytes) {
    *slot = offset;
    offset = align_up(offset + bytes);
  };
  place(&layout.feature, n * sizeof(std::uint32_t));
  place(&layout.threshold, n * sizeof(Real));
  place(&layout.children, 2 * n * sizeof(std::uint32_t));
  place(&layout.leaf_value, n * sizeof(Real));
  place(&layout.tree_root, t * sizeof(std::uint32_t));
  place(&layout.tree_depth, t * sizeof(std::uint32_t));
  place(&layout.scaler_mean, w * sizeof(Real));
  place(&layout.scaler_stddev, w * sizeof(Real));
  layout.total_bytes = offset;
  return layout;
}

void validate(const ArtifactHeader& header) {
  expects(header.magic == k_artifact_magic,
          "artifact: bad magic (not an esl model artifact)");
  expects(header.version == k_artifact_version,
          "artifact: unsupported format version");
  expects(header.endianness == k_artifact_endianness,
          "artifact: foreign byte order");
  expects(header.real_bytes == sizeof(Real),
          "artifact: Real element width mismatch");
  expects(header.index_bytes == sizeof(std::uint32_t),
          "artifact: index element width mismatch");
  expects(header.tree_count >= 1, "artifact: empty ensemble");
  expects(header.node_count >= header.tree_count,
          "artifact: fewer nodes than trees");
  expects(header.node_count <= std::numeric_limits<std::uint32_t>::max(),
          "artifact: forest exceeds 32-bit node addressing");
  expects(header.scaler_width <= std::numeric_limits<std::uint32_t>::max(),
          "artifact: implausible scaler width");
  expects(header.scaler_width == 0 ||
              header.max_feature < header.scaler_width,
          "artifact: max_feature outside the baked scaler width");
  expects(header.max_depth <= header.node_count,
          "artifact: max_depth exceeds node count");
  // Written by validate(ForestConfig)-checked fits, so (0, 1); the
  // comparison also rejects NaN.
  expects(header.decision_threshold > 0.0 && header.decision_threshold < 1.0,
          "artifact: decision threshold outside (0, 1)");
  const ArtifactLayout layout = artifact_layout(
      header.node_count, header.tree_count, header.scaler_width);
  expects(header.file_bytes == layout.total_bytes,
          "artifact: header counts disagree with declared file size");
}

void validate(const ArtifactHeader& header, std::size_t file_bytes) {
  validate(header);
  expects(file_bytes == header.file_bytes,
          "artifact: file length mismatch (truncated or trailing bytes)");
}

void validate_payload(const ArtifactHeader& header,
                      const FlatForest& forest) {
  const auto n = static_cast<std::uint32_t>(header.node_count);
  for (std::size_t t = 0; t < forest.tree_root.size(); ++t) {
    expects(forest.tree_root[t] < n,
            "artifact: tree root outside the node arrays");
    expects(forest.tree_depth[t] <= header.max_depth,
            "artifact: tree depth exceeds the declared maximum");
  }
  for (std::size_t i = 0; i < forest.feature.size(); ++i) {
    expects(forest.children[2 * i] < n,
            "artifact: left child outside the node arrays");
    expects(forest.children[2 * i + 1] < n,
            "artifact: right child outside the node arrays");
    // predict_flat bounds row width against header.max_feature; a
    // feature id past it would read outside the batch rows.
    expects(forest.feature[i] <= header.max_feature,
            "artifact: feature id exceeds the declared maximum");
  }
}

ArtifactView bind_artifact(std::span<const std::byte> bytes) {
  expects(bytes.size() >= sizeof(ArtifactHeader),
          "artifact: too short for a header");
  const std::byte* base = bytes.data();
  expects(reinterpret_cast<std::uintptr_t>(base) % alignof(Real) == 0,
          "artifact: byte buffer misaligned for Real");

  ArtifactView view;
  // memcpy, not pointer-cast: the header is read once into owned
  // storage; only the payload arrays are served from the bytes.
  std::memcpy(&view.header, base, sizeof(ArtifactHeader));
  validate(view.header, bytes.size());

  const ArtifactLayout layout =
      artifact_layout(view.header.node_count, view.header.tree_count,
                      view.header.scaler_width);
  const auto n = static_cast<std::size_t>(view.header.node_count);
  const auto t = static_cast<std::size_t>(view.header.tree_count);
  const auto w = static_cast<std::size_t>(view.header.scaler_width);
  const auto u32_at = [base](std::size_t offset, std::size_t count) {
    return std::span<const std::uint32_t>(
        reinterpret_cast<const std::uint32_t*>(base + offset), count);
  };
  const auto real_at = [base](std::size_t offset, std::size_t count) {
    return std::span<const Real>(
        reinterpret_cast<const Real*>(base + offset), count);
  };
  view.forest.feature = u32_at(layout.feature, n);
  view.forest.threshold = real_at(layout.threshold, n);
  view.forest.children = u32_at(layout.children, 2 * n);
  view.forest.leaf_value = real_at(layout.leaf_value, n);
  view.forest.tree_root = u32_at(layout.tree_root, t);
  view.forest.tree_depth = u32_at(layout.tree_depth, t);
  view.forest.decision_threshold = view.header.decision_threshold;
  view.forest.max_feature = view.header.max_feature;
  view.scaler_mean = real_at(layout.scaler_mean, w);
  view.scaler_stddev = real_at(layout.scaler_stddev, w);

  validate_payload(view.header, view.forest);
  return view;
}

void save_artifact(const std::string& path, const CompiledForest& forest) {
  const RowScaler& scaler = forest.scaler();
  ensures(scaler.stddev.size() == scaler.mean.size(),
          "save_artifact: scaler mean/stddev width mismatch");

  ArtifactHeader header;
  header.node_count = forest.node_count();
  header.tree_count = forest.tree_count();
  header.scaler_width = scaler.mean.size();
  header.decision_threshold = forest.decision_threshold();
  header.max_depth = forest.max_depth();
  header.max_feature = forest.max_feature();
  const ArtifactLayout layout = artifact_layout(
      header.node_count, header.tree_count, header.scaler_width);
  header.file_bytes = layout.total_bytes;
  // What save writes must be exactly what load accepts.
  validate(header);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw DataError("save_artifact: cannot create " + tmp);
  }
  std::size_t cursor = 0;
  bool ok = true;
  const auto emit = [&](std::size_t offset, const void* data,
                        std::size_t bytes) {
    // Zero-fill the alignment gap up to `offset`, then the array bytes.
    static constexpr char k_zeros[k_artifact_alignment] = {};
    while (ok && cursor < offset) {
      const std::size_t pad = std::min(offset - cursor, sizeof(k_zeros));
      ok = std::fwrite(k_zeros, 1, pad, f) == pad;
      cursor += pad;
    }
    if (ok && bytes > 0) {
      ok = std::fwrite(data, 1, bytes, f) == bytes;
      cursor += bytes;
    }
  };

  emit(0, &header, sizeof(header));
  emit(layout.feature, forest.features().data(),
       forest.features().size_bytes());
  emit(layout.threshold, forest.thresholds().data(),
       forest.thresholds().size_bytes());
  emit(layout.children, forest.children().data(),
       forest.children().size_bytes());
  emit(layout.leaf_value, forest.leaf_values().data(),
       forest.leaf_values().size_bytes());
  emit(layout.tree_root, forest.tree_roots().data(),
       forest.tree_roots().size_bytes());
  emit(layout.tree_depth, forest.tree_depths().data(),
       forest.tree_depths().size_bytes());
  emit(layout.scaler_mean, scaler.mean.data(),
       scaler.mean.size() * sizeof(Real));
  emit(layout.scaler_stddev, scaler.stddev.data(),
       scaler.stddev.size() * sizeof(Real));
  emit(layout.total_bytes, nullptr, 0);  // trailing alignment pad

  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw DataError("save_artifact: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw DataError("save_artifact: cannot rename into " + path);
  }
}

MappedModel::MappedModel(const std::string& path)
    : path_(path), file_(path) {
  // One shared parsing seam with the fuzz harness: header validation,
  // span binding, and the structural payload pass all live in
  // bind_artifact (an mmap base is page-aligned, so the alignment
  // precondition always holds here).
  ArtifactView view = bind_artifact(file_.bytes());
  header_ = view.header;
  flat_ = view.forest;
  mean_ = view.scaler_mean;
  stddev_ = view.scaler_stddev;
}

void MappedModel::predict_into(Matrix& raw_rows, RealVector& proba,
                               std::vector<int>& labels) const {
  // Same scaling loop and traversal as the in-memory CompiledForest,
  // over spans into the mapping: bit-identical by construction.
  scale_rows(mean_, stddev_, raw_rows);
  predict_flat(flat_, raw_rows, proba, labels);
}

std::shared_ptr<const InferenceModel> load_artifact(const std::string& path) {
  return std::make_shared<const MappedModel>(path);
}

}  // namespace esl::ml
