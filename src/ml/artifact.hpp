// Versioned on-disk model artifacts: CompiledForest serialized as one
// flat binary that serving processes mmap and traverse with zero
// deserialization.
//
// The paper's premise is per-patient personalized models; at fleet scale
// training and serving are separate processes, and a personalized model
// is a *file* — trained anywhere, dropped into a registry directory,
// mapped by every shard that serves the patient. CompiledForest is
// already flat structure-of-arrays storage (see the layout contract in
// ml/compiled_forest.hpp), so the wire format is simply a fixed header
// followed by those arrays back-to-back, each 64-byte aligned:
//
//   ArtifactHeader      magic "ESLFRST1", version, endianness tag,
//                       element widths, counts, decision threshold
//   ----- 64-byte aligned payload, arrays in this order -----
//   feature      u32[node_count]
//   threshold    Real[node_count]
//   children     u32[2*node_count]   interleaved [left,right] pairs —
//                                    the only copy of the topology
//   leaf_value   Real[node_count]
//   tree_root    u32[tree_count]
//   tree_depth   u32[tree_count]
//   scaler_mean  Real[scaler_width]  baked z-score (absent when 0)
//   scaler_stddev Real[scaler_width]
//
// save_artifact writes the file (to a temp name, then rename, so a
// registry replace is atomic); MappedModel mmaps it (platform/
// mmap_file.hpp) and serves predict_into straight from the mapping —
// bit-identical to the in-memory CompiledForest over the same fitted
// forest, with zero steady-state allocations per call and pages
// faulting in lazily on first traversal.
//
// Trust model: an artifact file is the boundary between training and
// serving processes — replicated between hosts, it is partially-trusted
// *input*, not internal state. Opening therefore validates in two
// passes before any traversal runs: validate(ArtifactHeader) rejects
// truncated, foreign, or version-skewed files from the fixed prologue
// alone, and validate_payload() makes one O(node_count) structural pass
// over the arrays — every child / root index in range, feature ids
// within the header's declared bound, per-tree depths within the
// declared maximum — so a hostile payload behind a well-formed header
// cannot steer predict_flat outside the mapping (traversal itself is
// depth-bounded, so no payload can make it loop forever either). Both
// passes run inside bind_artifact(), the single parsing seam MappedModel
// and the fuzz harness (fuzz/fuzz_artifact.cpp) share.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "ml/compiled_forest.hpp"
#include "ml/inference_model.hpp"
#include "platform/mmap_file.hpp"

namespace esl::ml {

/// First 8 bytes of every artifact: "ESLFRST1" (little-endian u64).
inline constexpr std::uint64_t k_artifact_magic = 0x31545352464C5345ull;
/// Bumped on any layout change; readers reject other versions. Version 2
/// dropped version 1's separate left/right arrays (children only).
inline constexpr std::uint32_t k_artifact_version = 2;
/// Byte-order tag as written by the producing host. A foreign-endian
/// reader sees it permuted and rejects the file instead of mis-reading
/// every array (artifacts are distributed, not converted).
inline constexpr std::uint32_t k_artifact_endianness = 0x01020304u;
/// Every payload array starts on a 64-byte boundary (cache-line sized;
/// mmap bases are page-aligned, so alignment survives the mapping).
inline constexpr std::size_t k_artifact_alignment = 64;

/// Fixed-size artifact prologue. Plain trivially-copyable scalars only —
/// the header is memcpy'd out of the mapping, never pointer-cast.
struct ArtifactHeader {
  std::uint64_t magic = k_artifact_magic;
  std::uint32_t version = k_artifact_version;
  std::uint32_t endianness = k_artifact_endianness;
  std::uint32_t real_bytes = sizeof(Real);           // element widths are
  std::uint32_t index_bytes = sizeof(std::uint32_t); // part of the format
  std::uint64_t node_count = 0;
  std::uint64_t tree_count = 0;
  /// Baked RowScaler width; 0 = rows arrive pre-scaled.
  std::uint64_t scaler_width = 0;
  /// Exact file size implied by the counts; a mismatch against the real
  /// file length means truncation or trailing garbage.
  std::uint64_t file_bytes = 0;
  Real decision_threshold = 0.5;
  std::uint64_t max_depth = 0;
  std::uint32_t max_feature = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(ArtifactHeader) == 80, "artifact header layout drifted");

/// Byte offset of each payload array (and the total file size) implied
/// by the header counts. Writer and mapper both derive the layout from
/// this one function — there is no second copy of the format.
struct ArtifactLayout {
  std::size_t feature = 0;
  std::size_t threshold = 0;
  std::size_t children = 0;
  std::size_t leaf_value = 0;
  std::size_t tree_root = 0;
  std::size_t tree_depth = 0;
  std::size_t scaler_mean = 0;
  std::size_t scaler_stddev = 0;
  std::size_t total_bytes = 0;
};
ArtifactLayout artifact_layout(std::uint64_t node_count,
                               std::uint64_t tree_count,
                               std::uint64_t scaler_width);

/// Header sanity, in the style of validate(SessionConfig) /
/// validate(ForestConfig): magic, version, endianness, element widths,
/// count bounds, and internal size consistency. Throws InvalidArgument
/// (literal messages only — no heap) before any array is touched.
void validate(const ArtifactHeader& header);
/// Additionally rejects a file whose real length disagrees with the
/// header (truncated download, partial write, trailing garbage).
void validate(const ArtifactHeader& header, std::size_t file_bytes);

/// Structural validation of the payload arrays behind a valid header:
/// every tree_root / children index addresses a real node, every
/// feature id is <= header.max_feature (what predict_flat bounds row
/// width against), and every tree_depth is <= header.max_depth.
/// One O(node_count) pass, run once per open — traversal itself stays
/// check-free. Throws InvalidArgument (literal messages) on violation.
void validate_payload(const ArtifactHeader& header, const FlatForest& forest);

/// A validated, borrowed view over one artifact's bytes: the header
/// (copied out — never served from the mapping) plus spans aimed into
/// the payload arrays. Valid only while the underlying bytes live.
struct ArtifactView {
  ArtifactHeader header;
  FlatForest forest;
  std::span<const Real> scaler_mean;
  std::span<const Real> scaler_stddev;
};

/// Parses `bytes` as a complete artifact: header validation (including
/// the exact-length check), span binding, and the structural payload
/// pass — the one place artifact bytes become typed spans. MappedModel
/// binds its mapping through this, and the fuzz harness drives it
/// directly on arbitrary blobs with no file in between. `bytes.data()`
/// must be at least alignof(Real)-aligned (an mmap base always is).
/// Throws InvalidArgument on any malformed input.
ArtifactView bind_artifact(std::span<const std::byte> bytes);

/// Serializes `forest` (arrays + baked scaler) to `path` as one flat
/// artifact. Writes path + ".tmp" first and renames over `path`, so
/// replacing a live artifact is atomic on POSIX — a concurrent
/// ModelRegistry::open never sees a half-written file. Throws DataError
/// on I/O failure.
void save_artifact(const std::string& path, const CompiledForest& forest);

/// Zero-copy deployable model over an mmap'd artifact file.
///
/// Construction maps the file, validates the header, and aims the
/// FlatForest spans into the mapping; no array is copied or even
/// touched, so "loading" a model is O(header) and pages fault in lazily
/// as traversal first needs them. predict_into runs the same
/// predict_flat as the in-memory CompiledForest built from the same
/// fitted forest — bit-identical — and allocates nothing once the
/// caller's scratch is warm.
///
/// Lifetime: the mapping lives inside this object. Sessions holding the
/// model via shared_ptr (Engine slots, ModelRegistry cache) keep the
/// mapping alive; the file on disk may be replaced (rename) or deleted
/// while mapped — the old pages stay valid until the last holder drops.
class MappedModel final : public InferenceModel {
 public:
  /// Maps `path` read-only.
  explicit MappedModel(const std::string& path);

  const char* name() const override { return "mapped"; }
  std::size_t tree_count() const override { return header_.tree_count; }
  void predict_into(Matrix& raw_rows, RealVector& proba,
                    std::vector<int>& labels) const override;

  const ArtifactHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  std::size_t node_count() const { return header_.node_count; }
  /// Borrowed views straight into the mapping (valid while *this lives).
  const FlatForest& flat() const { return flat_; }
  std::span<const Real> scaler_mean() const { return mean_; }
  std::span<const Real> scaler_stddev() const { return stddev_; }

 private:
  std::string path_;
  platform::MappedFile file_;
  ArtifactHeader header_;
  FlatForest flat_;  // spans into file_.bytes()
  std::span<const Real> mean_;
  std::span<const Real> stddev_;
};

/// Convenience: map `path` behind the InferenceModel seam (what
/// ModelRegistry::open returns).
std::shared_ptr<const InferenceModel> load_artifact(const std::string& path);

}  // namespace esl::ml
