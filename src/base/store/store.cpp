#include "base/store/store.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <sstream>

#include "base/log.h"
#include "base/obs/metrics.h"
#include "base/obs/schema.h"
#include "base/store/fs_util.h"
#include "base/store/hash.h"

namespace fstg::store {

namespace {

constexpr char kMagic[8] = {'F', 'S', 'T', 'G', 'B', 'L', 'O', 'B'};

/// Why a blob failed the strict load path. Order matters: checks run
/// cheapest-first and the first failure names the counter.
enum class Corrupt {
  kNone,
  kIo,
  kTruncated,
  kMagic,
  kHeader,
  kVersion,
  kSchema,
  kKey,
  kHash,
};

const char* corrupt_name(Corrupt c) {
  switch (c) {
    case Corrupt::kNone: return "none";
    case Corrupt::kIo: return "io";
    case Corrupt::kTruncated: return "truncated";
    case Corrupt::kMagic: return "magic";
    case Corrupt::kHeader: return "header";
    case Corrupt::kVersion: return "version";
    case Corrupt::kSchema: return "schema";
    case Corrupt::kKey: return "key";
    case Corrupt::kHash: return "hash";
  }
  return "unknown";
}

void count_corrupt(Corrupt c) {
  // One registration per reason; the registry caps protect us anyway.
  obs::counter(std::string("store.corrupt.") + corrupt_name(c)).inc();
}

struct Header {
  std::uint32_t container = 0;
  std::uint32_t type_id = 0;
  std::uint32_t schema = 0;
  std::uint64_t key = 0;
  std::uint64_t payload_len = 0;
  std::uint64_t payload_hash = 0;
};

std::string encode_header(const Header& h, std::string_view payload) {
  std::string out(kBlobHeaderSize, '\0');
  char* p = out.data();
  std::memcpy(p, kMagic, 8);
  std::memcpy(p + 8, &h.container, 4);
  std::memcpy(p + 12, &h.type_id, 4);
  std::memcpy(p + 16, &h.schema, 4);
  const std::uint32_t pad = 0;
  std::memcpy(p + 20, &pad, 4);
  std::memcpy(p + 24, &h.key, 8);
  const std::uint64_t len = payload.size();
  std::memcpy(p + 32, &len, 8);
  const std::uint64_t phash = xxh64(payload);
  std::memcpy(p + 40, &phash, 8);
  const std::uint64_t hhash = xxh64(p, 48);
  std::memcpy(p + 48, &hhash, 8);
  return out;
}

/// Header-only validation (no payload hash). Returns the first failure.
Corrupt decode_header(std::string_view file, Header* h) {
  if (file.size() < kBlobHeaderSize) return Corrupt::kTruncated;
  const char* p = file.data();
  if (std::memcmp(p, kMagic, 8) != 0) return Corrupt::kMagic;
  std::uint64_t hhash_stored = 0;
  std::memcpy(&hhash_stored, p + 48, 8);
  if (xxh64(p, 48) != hhash_stored) return Corrupt::kHeader;
  std::memcpy(&h->container, p + 8, 4);
  std::memcpy(&h->type_id, p + 12, 4);
  std::memcpy(&h->schema, p + 16, 4);
  std::memcpy(&h->key, p + 24, 8);
  std::memcpy(&h->payload_len, p + 32, 8);
  std::memcpy(&h->payload_hash, p + 40, 8);
  if (h->container != kStoreFormatVersion) return Corrupt::kVersion;
  if (h->payload_len != file.size() - kBlobHeaderSize)
    return Corrupt::kTruncated;
  return Corrupt::kNone;
}

/// Full validation of one blob file's bytes against its own header.
Corrupt validate_blob(std::string_view file, Header* h) {
  const Corrupt c = decode_header(file, h);
  if (c != Corrupt::kNone) return c;
  const std::string_view payload = file.substr(kBlobHeaderSize);
  if (xxh64(payload) != h->payload_hash) return Corrupt::kHash;
  return Corrupt::kNone;
}

/// Stage tags become file-name components; anything exotic is mapped to
/// '_' so a tag can never escape the objects directory.
std::string sanitize_tag(const char* tag) {
  std::string s = tag ? tag : "blob";
  if (s.empty()) s = "blob";
  for (char& c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return s;
}

bool is_blob_name(const std::string& name) {
  return name.size() > 5 && name.rfind(".blob") == name.size() - 5;
}

bool is_tmp_name(const std::string& name) {
  return name.find(".tmp.") != std::string::npos;
}

/// "<16hex>.<tag>.blob" -> tag; empty if the name does not fit the shape.
std::string tag_of_name(const std::string& name) {
  if (!is_blob_name(name) || name.size() < 17 + 5 || name[16] != '.')
    return "";
  return name.substr(17, name.size() - 17 - 5);
}

}  // namespace

Store::Store(std::string dir) : dir_(std::move(dir)) {
  std::string error;
  if (!make_dirs(dir_ + "/objects", &error)) {
    log_warn("cache: " + error + "; caching disabled for this run");
    obs::counter("store.open_failed").inc();
    return;
  }
  usable_ = true;
  obs::counter("store.opened").inc();
  // Informational meta record (self-validating, atomic, best-effort):
  // records the container version so a future reader can explain a cold
  // cache after a format bump. Load paths never trust this file.
  const std::string meta_path = dir_ + "/cache_meta.json";
  if (!file_exists(meta_path)) {
    const std::string json = cache_meta_json(StoreStats{});
    std::string verr;
    if (obs::check_json("fstg_cache_meta", json, nullptr, &verr))
      atomic_write_file(meta_path, json, &verr);
  }
}

std::string Store::object_dir(std::uint64_t key) const {
  return dir_ + "/objects/" + hash_hex(key).substr(0, 2);
}

std::string Store::object_path(std::uint64_t key, const char* tag) const {
  return object_dir(key) + "/" + hash_hex(key) + "." + sanitize_tag(tag) +
         ".blob";
}

bool Store::get(std::uint64_t key, std::uint32_t type_id, std::uint32_t schema,
                const char* tag, std::string* payload) {
  static const obs::Counter c_hit = obs::counter("store.hit");
  static const obs::Counter c_miss = obs::counter("store.miss");
  if (!usable_) {
    c_miss.inc();
    return false;
  }
  const std::string path = object_path(key, tag);
  if (!file_exists(path)) {
    c_miss.inc();
    return false;
  }
  std::string file;
  std::string error;
  Corrupt corrupt = Corrupt::kNone;
  Header h;
  if (!read_file(path, &file, &error)) {
    corrupt = Corrupt::kIo;
  } else {
    corrupt = validate_blob(file, &h);
    if (corrupt == Corrupt::kNone) {
      // Container-level integrity holds; now the addressing must agree.
      if (h.key != key)
        corrupt = Corrupt::kKey;
      else if (h.type_id != type_id || h.schema != schema)
        corrupt = Corrupt::kSchema;
    }
  }
  if (corrupt != Corrupt::kNone) {
    count_corrupt(corrupt);
    c_miss.inc();
    // Self-repair: drop the damaged blob so the recompute's put rewrites
    // it. Unlinking is safe against concurrent readers (POSIX keeps their
    // open file alive) and against writers (rename replaces by name).
    if (remove_file(path)) obs::counter("store.repair_unlinked").inc();
    log_warn("cache: corrupt blob (" +
             std::string(corrupt_name(corrupt)) + ") " + path +
             "; treating as miss");
    return false;
  }
  *payload = file.substr(kBlobHeaderSize);
  c_hit.inc();
  return true;
}

bool Store::put(std::uint64_t key, std::uint32_t type_id, std::uint32_t schema,
                const char* tag, std::string_view payload) {
  static const obs::Counter c_ok = obs::counter("store.put_ok");
  static const obs::Counter c_fail = obs::counter("store.put_fail");
  if (!usable_) {
    c_fail.inc();
    return false;
  }
  Header h;
  h.container = kStoreFormatVersion;
  h.type_id = type_id;
  h.schema = schema;
  h.key = key;
  std::string file = encode_header(h, payload);
  file.append(payload.data(), payload.size());

  std::string error;
  if (!make_dirs(object_dir(key), &error)) {
    c_fail.inc();
    log_warn("cache: " + error + "; skipping write");
    return false;
  }
  // Advisory writer lock: concurrent writers of the same key produce
  // identical bytes (keys are content hashes), so this mainly keeps puts
  // from racing gc's unlink pass.
  FileLock lock(dir_ + "/lock");
  if (!atomic_write_file(object_path(key, tag), file, &error)) {
    c_fail.inc();
    log_warn("cache: " + error + "; skipping write");
    return false;
  }
  c_ok.inc();
  return true;
}

std::string Store::checkpoint_dir(const std::string& campaign) {
  if (!usable_) return "";
  std::string safe = sanitize_tag(campaign.c_str());
  const std::string path = dir_ + "/checkpoints/" + safe;
  std::string error;
  if (!make_dirs(path, &error)) {
    log_warn("cache: " + error + "; checkpointing disabled");
    return "";
  }
  return path;
}

void Store::scan(std::vector<std::string>* blobs,
                 std::vector<std::string>* tmps) const {
  const std::string objects = dir_ + "/objects";
  for (const std::string& sub : list_dir(objects)) {
    const std::string subdir = objects + "/" + sub;
    if (!dir_exists(subdir)) {
      if (tmps && is_tmp_name(sub)) tmps->push_back(subdir);
      continue;
    }
    for (const std::string& name : list_dir(subdir)) {
      const std::string path = subdir + "/" + name;
      if (is_tmp_name(name)) {
        if (tmps) tmps->push_back(path);
      } else if (is_blob_name(name)) {
        if (blobs) blobs->push_back(path);
      }
    }
  }
}

StoreStats Store::stats() const {
  StoreStats s;
  if (!usable_) return s;
  std::vector<std::string> blobs, tmps;
  scan(&blobs, &tmps);
  s.tmp_files = tmps.size();
  std::vector<StoreStats::TypeStats> types;
  for (const std::string& path : blobs) {
    const std::int64_t size = file_size(path);
    if (size < 0) continue;
    ++s.blobs;
    s.bytes += static_cast<std::uint64_t>(size);
    std::string head;
    std::string error;
    Header h;
    // Header-level sniff only: stats must stay cheap on big caches.
    if (!read_file(path, &head, &error) ||
        decode_header(head, &h) != Corrupt::kNone)
      ++s.corrupt;
    const std::size_t slash = path.find_last_of('/');
    const std::string tag = tag_of_name(path.substr(slash + 1));
    auto it = std::find_if(types.begin(), types.end(),
                           [&](const auto& t) { return t.tag == tag; });
    if (it == types.end()) {
      types.push_back({tag, 1, static_cast<std::uint64_t>(size)});
    } else {
      ++it->blobs;
      it->bytes += static_cast<std::uint64_t>(size);
    }
  }
  std::sort(types.begin(), types.end(),
            [](const auto& a, const auto& b) { return a.tag < b.tag; });
  s.types = std::move(types);
  for (const std::string& name : list_dir(dir_ + "/checkpoints"))
    if (dir_exists(dir_ + "/checkpoints/" + name)) ++s.checkpoints;
  return s;
}

VerifyOutcome Store::verify() const {
  VerifyOutcome out;
  if (!usable_) return out;
  std::vector<std::string> blobs;
  scan(&blobs, nullptr);
  for (const std::string& path : blobs) {
    ++out.total;
    std::string file;
    std::string error;
    Header h;
    Corrupt c = read_file(path, &file, &error) ? validate_blob(file, &h)
                                               : Corrupt::kIo;
    if (c == Corrupt::kNone) {
      ++out.valid;
    } else {
      ++out.corrupt;
      out.corrupt_files.push_back(
          path.substr(dir_.size() + 1) + " (" + corrupt_name(c) + ")");
    }
  }
  std::sort(out.corrupt_files.begin(), out.corrupt_files.end());
  return out;
}

GcOutcome Store::gc(std::int64_t max_bytes) {
  GcOutcome out;
  if (!usable_) return out;
  FileLock lock(dir_ + "/lock");
  std::vector<std::string> blobs, tmps;
  scan(&blobs, &tmps);
  for (const std::string& path : tmps) {
    const std::int64_t size = file_size(path);
    if (remove_file(path)) {
      ++out.removed_tmp;
      if (size > 0) out.bytes_freed += static_cast<std::uint64_t>(size);
    }
  }
  struct Live {
    std::string path;
    std::int64_t mtime;
    std::int64_t size;
  };
  std::vector<Live> live;
  for (const std::string& path : blobs) {
    std::string file;
    std::string error;
    Header h;
    const Corrupt c = read_file(path, &file, &error) ? validate_blob(file, &h)
                                                     : Corrupt::kIo;
    if (c != Corrupt::kNone) {
      const std::int64_t size = file_size(path);
      if (remove_file(path)) {
        ++out.removed_corrupt;
        if (size > 0) out.bytes_freed += static_cast<std::uint64_t>(size);
      }
      continue;
    }
    live.push_back({path, file_mtime(path), file_size(path)});
  }
  if (max_bytes >= 0) {
    std::uint64_t total = 0;
    for (const Live& b : live) total += static_cast<std::uint64_t>(b.size);
    // Oldest-first eviction; mtime ties broken by path so gc is
    // deterministic for a given directory state.
    std::sort(live.begin(), live.end(), [](const Live& a, const Live& b) {
      return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
    });
    for (const Live& b : live) {
      if (total <= static_cast<std::uint64_t>(max_bytes)) break;
      if (remove_file(b.path)) {
        ++out.evicted;
        out.bytes_freed += static_cast<std::uint64_t>(b.size);
        total -= static_cast<std::uint64_t>(b.size);
      }
    }
  }
  return out;
}

std::string cache_meta_json(const StoreStats& stats) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"fstg.cache_meta.v1\",\n"
     << "  \"store_version\": " << kStoreFormatVersion << ",\n"
     << "  \"blobs\": " << stats.blobs << ",\n"
     << "  \"bytes\": " << stats.bytes << ",\n"
     << "  \"corrupt\": " << stats.corrupt << ",\n"
     << "  \"tmp_files\": " << stats.tmp_files << ",\n"
     << "  \"checkpoints\": " << stats.checkpoints << ",\n"
     << "  \"types\": [\n";
  for (std::size_t i = 0; i < stats.types.size(); ++i) {
    const StoreStats::TypeStats& t = stats.types[i];
    os << "    {\"tag\": " << obs::json_quote(t.tag)
       << ", \"blobs\": " << t.blobs << ", \"bytes\": " << t.bytes << "}"
       << (i + 1 < stats.types.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

namespace {

std::mutex g_global_mu;
std::unique_ptr<Store> g_global_store;

}  // namespace

Store* global_store() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  return g_global_store.get();
}

bool open_global_store(const std::string& dir, std::string* error) {
  auto s = std::make_unique<Store>(dir);
  if (!s->usable()) {
    if (error) *error = "cannot open cache directory " + dir;
    return false;
  }
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_store = std::move(s);
  return true;
}

void close_global_store() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_store.reset();
}

}  // namespace fstg::store
