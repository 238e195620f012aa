#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fstg::store {

/// --- Content-addressed, crash-safe artifact store ------------------------
///
/// On-disk layout under one cache directory:
///
///   <dir>/cache_meta.json            fstg.cache_meta.v1 (informational)
///   <dir>/lock                       advisory writer lock (flock)
///   <dir>/objects/<hh>/<16hex>.<tag>.blob
///   <dir>/checkpoints/<campaign>/<record>.done
///
/// A blob is addressed by the 64-bit XXH64 of its *inputs* (canonical
/// source text + every option that changes the artifact + the artifact's
/// schema version), so identical derivations across runs land on the same
/// file. Writes are crash-consistent (same-directory temp + fsync + atomic
/// rename + directory fsync) and serialized by an advisory flock; reads
/// never lock — rename atomicity guarantees they see a whole blob or none.
///
/// The load path is strict and non-throwing: truncation, a smashed or
/// bit-flipped header, container/type/schema version skew, a key that does
/// not match the file name, or a payload hash mismatch all classify the
/// blob as corrupt — counted under store.corrupt.<reason>, unlinked
/// (self-repair), and reported to the caller as a plain miss. Corruption
/// can therefore cost a recompute but can never change a result or surface
/// an error to the pipeline.

/// Container format version: bumped when the header layout changes. A blob
/// written by any other container version is a miss (store.corrupt.version).
inline constexpr std::uint32_t kStoreFormatVersion = 1;

/// Fixed blob header size: magic(8) + container(4) + type(4) + schema(4) +
/// pad(4) + key(8) + payload_len(8) + payload_hash(8) + header_hash(8).
inline constexpr std::size_t kBlobHeaderSize = 56;

struct StoreStats {
  std::uint64_t blobs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t corrupt = 0;    ///< header-level damage found while scanning
  std::uint64_t tmp_files = 0;  ///< orphaned temporaries (crash leftovers)
  std::uint64_t checkpoints = 0;
  struct TypeStats {
    std::string tag;
    std::uint64_t blobs = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<TypeStats> types;  ///< tag-sorted
};

struct VerifyOutcome {
  std::uint64_t total = 0;
  std::uint64_t valid = 0;
  std::uint64_t corrupt = 0;
  std::vector<std::string> corrupt_files;  ///< paths relative to the dir
};

struct GcOutcome {
  std::uint64_t removed_corrupt = 0;
  std::uint64_t removed_tmp = 0;
  std::uint64_t evicted = 0;  ///< valid blobs removed to meet max_bytes
  std::uint64_t bytes_freed = 0;
};

class Store {
 public:
  /// Opens (and creates) the cache directory. Never throws: if the
  /// directory cannot be created or written, the store is unusable — every
  /// get is a miss, every put a counted no-op — and the pipeline proceeds
  /// exactly as if no cache were configured.
  explicit Store(std::string dir);

  const std::string& dir() const { return dir_; }
  bool usable() const { return usable_; }

  /// Strict load. True only for a blob that passes every integrity check
  /// and matches (type_id, schema). `tag` is the human-readable stage name
  /// used in the object file name.
  bool get(std::uint64_t key, std::uint32_t type_id, std::uint32_t schema,
           const char* tag, std::string* payload);

  /// Durable store. False (with counters, never an exception) on any
  /// filesystem failure — a read-only or full cache degrades to recompute.
  bool put(std::uint64_t key, std::uint32_t type_id, std::uint32_t schema,
           const char* tag, std::string_view payload);

  /// Directory for one campaign's checkpoint records (created on demand;
  /// empty string if the store is unusable or creation failed).
  std::string checkpoint_dir(const std::string& campaign);

  StoreStats stats() const;
  VerifyOutcome verify() const;
  /// Removes corrupt blobs and orphaned temporaries; when max_bytes >= 0
  /// also evicts oldest-first until the object payload total fits.
  GcOutcome gc(std::int64_t max_bytes = -1);

 private:
  std::string object_dir(std::uint64_t key) const;
  std::string object_path(std::uint64_t key, const char* tag) const;
  /// All blob paths (absolute), with sizes; skips temporaries.
  void scan(std::vector<std::string>* blobs,
            std::vector<std::string>* tmps) const;

  std::string dir_;
  bool usable_ = false;
};

/// Render `stats` as schema fstg.cache_meta.v1 JSON
/// (schemas/fstg_cache_meta.schema.json). Self-checking writers run
/// obs::check_json on the text before emitting it.
std::string cache_meta_json(const StoreStats& stats);

/// --- Process-global store (the --cache-dir flag) -------------------------
///
/// Tools install one store per process; library stages pick it up through
/// `resolve(nullptr)`. Tests pass explicit stores instead.
Store* global_store();
/// Open `dir` as the global store. Returns false (with *error) if the
/// directory is unusable; the previous global store, if any, is replaced
/// only on success.
bool open_global_store(const std::string& dir, std::string* error);
void close_global_store();

/// The store a stage should use: the explicit one if given, else the
/// process-global one, else nullptr (caching disabled).
inline Store* resolve(Store* explicit_store) {
  return explicit_store ? explicit_store : global_store();
}

}  // namespace fstg::store
