// Crash-safe binary model snapshots: a versioned, section-checksummed
// interchange format for registry models, so shards load a profiled
// network + materialized weights + calibration spec from disk instead of
// rebuilding (weight synthesis + calibration bisection) per process.
//
// Layout (all integers little-endian, no padding, no don't-care bytes):
//
//   header   magic "LOOMSNAP" (8) | version u32 | section_count u32
//   section  id u32 | length u64 | fnv1a64(payload) u64 | payload bytes
//   ...      sections in the exact order kName, kNetwork, kProfile,
//            kInputSpec, kWeights; the last payload must end exactly at EOF
//
// The framing, its validation and the atomic save are common/framed_file's.
// Every byte of the file is covered:
// payload bytes by the per-section FNV-1a checksum, structural bytes (magic, version, counts, ids, lengths,
// checksums) by strict validation — so any truncation, trailing garbage,
// bit flip or version skew fails decode with a typed SnapshotError
// (common/error.hpp), never UB. Pinned by fuzz-style corruption tests in
// tests/test_model_snapshot.cpp.
//
// Writes are crash-safe: save_snapshot writes to `<path>.tmp` and renames
// over `path` only after a successful full write, so a crash mid-write
// never leaves a half-written file at the published name (and a reader
// racing the writer sees either the old complete file or the new one).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/fault_injector.hpp"
#include "serve/model_registry.hpp"

namespace loom::serve {

/// Format version accepted by this build. Bumped on any layout change;
/// decode rejects every other value with SnapshotError (version skew is a
/// corruption mode, not a best-effort migration).
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// FNV-1a over a byte range — the section checksum primitive (also reused
/// by the shard router's rendezvous hash).
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept;
[[nodiscard]] std::uint64_t fnv1a64(const std::string& s) noexcept;

/// Serialize a model to the snapshot byte image (exposed so the corruption
/// tests can flip bits / truncate without touching disk).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Model& model);

/// Decode a snapshot image. Throws SnapshotError on any malformed input;
/// a successful decode round-trips byte-identically (network geometry,
/// precisions, weights, profile and calibration spec all exact, so outputs
/// of a loaded model match the original bit for bit).
[[nodiscard]] Model decode_snapshot(std::span<const std::uint8_t> bytes);

/// Write `model` to `path` atomically (tmp file + rename). Throws
/// SnapshotError on I/O failure.
void save_snapshot(const Model& model, const std::string& path);

/// Read and decode a snapshot from disk. Short reads, truncation and every
/// decode failure throw SnapshotError. When `injector` is non-null its
/// snapshot_corrupt site may flip one deterministic bit of the file image
/// before decoding (the corrupt-snapshot-on-load chaos fault) — which must
/// then surface as SnapshotError like any real corruption.
[[nodiscard]] std::shared_ptr<const Model> load_snapshot(
    const std::string& path, FaultInjector* injector = nullptr);

}  // namespace loom::serve
