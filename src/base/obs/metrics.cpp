#include "base/obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <fstream>
#include <mutex>
#include <sstream>

#include "base/obs/schema.h"
#include "base/store/fs_util.h"

namespace fstg::obs {

namespace {

/// One thread's private slice of every sharded metric. Fixed-size so a
/// shard can be read by the scraper while its owner keeps incrementing:
/// nothing ever reallocates. std::atomic members are value-initialized
/// (zero) in C++20.
struct Shard {
  std::atomic<std::uint64_t> counters[kMaxCounters] = {};
  std::atomic<std::uint64_t> hist_buckets[kMaxHistograms][kHistogramBuckets] =
      {};
  std::atomic<std::uint64_t> hist_sum[kMaxHistograms] = {};
  std::atomic<std::uint64_t> hist_count[kMaxHistograms] = {};

  void merge_into(Shard& dst) const {
    for (int i = 0; i < kMaxCounters; ++i)
      dst.counters[i].fetch_add(counters[i].load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
    for (int h = 0; h < kMaxHistograms; ++h) {
      for (int b = 0; b < kHistogramBuckets; ++b)
        dst.hist_buckets[h][b].fetch_add(
            hist_buckets[h][b].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      dst.hist_sum[h].fetch_add(hist_sum[h].load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
      dst.hist_count[h].fetch_add(
          hist_count[h].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }

  void zero() {
    for (int i = 0; i < kMaxCounters; ++i)
      counters[i].store(0, std::memory_order_relaxed);
    for (int h = 0; h < kMaxHistograms; ++h) {
      for (int b = 0; b < kHistogramBuckets; ++b)
        hist_buckets[h][b].store(0, std::memory_order_relaxed);
      hist_sum[h].store(0, std::memory_order_relaxed);
      hist_count[h].store(0, std::memory_order_relaxed);
    }
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
  std::vector<Shard*> live;  ///< shards of running threads
  Shard retired;             ///< merged shards of exited threads
  std::atomic<std::int64_t> gauges[kMaxGauges] = {};
  std::atomic<bool> enabled{true};
  int next_thread_index = 0;
};

/// Leaked on purpose: thread_local shard owners destruct at unpredictable
/// points during shutdown and must always find a live registry.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

/// Registers the calling thread's shard on first metric touch and folds it
/// into `retired` when the thread exits.
struct ShardOwner {
  Shard* shard = nullptr;
  int index = -1;

  ~ShardOwner() {
    if (!shard) return;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    shard->merge_into(r.retired);
    r.live.erase(std::remove(r.live.begin(), r.live.end(), shard),
                 r.live.end());
    delete shard;
  }
};

thread_local ShardOwner t_shard;

ShardOwner& tls_owner() {
  if (!t_shard.shard) {
    Shard* shard = new Shard;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.push_back(shard);
    t_shard.index = r.next_thread_index++;
    t_shard.shard = shard;  // publish last: shard is fully constructed
  }
  return t_shard;
}

int lookup_or_register(std::vector<std::string>& names, int cap,
                       const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return static_cast<int>(i);
  if (static_cast<int>(names.size()) >= cap) return -1;  // inert handle
  names.push_back(name);
  return static_cast<int>(names.size()) - 1;
}

}  // namespace

Counter counter(const std::string& name) {
  return Counter(lookup_or_register(registry().counter_names, kMaxCounters,
                                    name));
}

Gauge gauge(const std::string& name) {
  return Gauge(lookup_or_register(registry().gauge_names, kMaxGauges, name));
}

Histogram histogram(const std::string& name) {
  return Histogram(lookup_or_register(registry().hist_names, kMaxHistograms,
                                      name));
}

void Counter::add(std::uint64_t n) const {
  if (id_ < 0) return;
  Registry& r = registry();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  tls_owner().shard->counters[id_].fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(std::int64_t v) const {
  if (id_ < 0) return;
  Registry& r = registry();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  r.gauges[id_].store(v, std::memory_order_relaxed);
}

void Gauge::add(std::int64_t v) const {
  if (id_ < 0) return;
  Registry& r = registry();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  r.gauges[id_].fetch_add(v, std::memory_order_relaxed);
}

void Gauge::max(std::int64_t v) const {
  if (id_ < 0) return;
  Registry& r = registry();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  std::int64_t cur = r.gauges[id_].load(std::memory_order_relaxed);
  while (v > cur && !r.gauges[id_].compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

int Histogram::bucket_of(std::uint64_t value) {
  if (value == 0) return 0;
  return std::min<int>(std::bit_width(value), kHistogramBuckets - 1);
}

std::uint64_t Histogram::bucket_lo(int b) {
  if (b <= 0) return 0;
  return std::uint64_t{1} << (b - 1);
}

void Histogram::observe(std::uint64_t value) const {
  if (id_ < 0) return;
  Registry& r = registry();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  Shard* shard = tls_owner().shard;
  shard->hist_buckets[id_][bucket_of(value)].fetch_add(
      1, std::memory_order_relaxed);
  shard->hist_sum[id_].fetch_add(value, std::memory_order_relaxed);
  shard->hist_count[id_].fetch_add(1, std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  registry().enabled.store(enabled, std::memory_order_relaxed);
}

bool metrics_enabled() {
  return registry().enabled.load(std::memory_order_relaxed);
}

int thread_index() { return tls_owner().index; }

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

std::int64_t MetricsSnapshot::gauge_value(const std::string& name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

MetricsSnapshot snapshot_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);

  const std::size_t nc = r.counter_names.size();
  const std::size_t nh = r.hist_names.size();
  std::vector<std::uint64_t> counts(nc, 0);
  std::vector<HistogramSnapshot> hists(nh);
  for (std::size_t h = 0; h < nh; ++h) {
    hists[h].name = r.hist_names[h];
    hists[h].buckets.assign(kHistogramBuckets, 0);
  }

  const auto accumulate = [&](const Shard& s) {
    for (std::size_t i = 0; i < nc; ++i)
      counts[i] += s.counters[i].load(std::memory_order_relaxed);
    for (std::size_t h = 0; h < nh; ++h) {
      for (int b = 0; b < kHistogramBuckets; ++b)
        hists[h].buckets[static_cast<std::size_t>(b)] +=
            s.hist_buckets[h][b].load(std::memory_order_relaxed);
      hists[h].sum += s.hist_sum[h].load(std::memory_order_relaxed);
      hists[h].count += s.hist_count[h].load(std::memory_order_relaxed);
    }
  };
  accumulate(r.retired);
  for (const Shard* s : r.live) accumulate(*s);

  MetricsSnapshot snap;
  snap.counters.reserve(nc);
  for (std::size_t i = 0; i < nc; ++i)
    snap.counters.emplace_back(r.counter_names[i], counts[i]);
  snap.gauges.reserve(r.gauge_names.size());
  for (std::size_t i = 0; i < r.gauge_names.size(); ++i)
    snap.gauges.emplace_back(r.gauge_names[i],
                             r.gauges[i].load(std::memory_order_relaxed));
  snap.histograms = std::move(hists);

  std::sort(snap.counters.begin(), snap.counters.end());
  std::sort(snap.gauges.begin(), snap.gauges.end());
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void reset_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.retired.zero();
  for (Shard* s : r.live) s->zero();
  for (int i = 0; i < kMaxGauges; ++i)
    r.gauges[i].store(0, std::memory_order_relaxed);
}

std::string metrics_to_json(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"fstg.metrics.v1\",\n  \"counters\": [\n";
  for (std::size_t i = 0; i < snap.counters.size(); ++i)
    os << "    {\"name\": " << json_quote(snap.counters[i].first)
       << ", \"value\": " << snap.counters[i].second << "}"
       << (i + 1 < snap.counters.size() ? "," : "") << "\n";
  os << "  ],\n  \"gauges\": [\n";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i)
    os << "    {\"name\": " << json_quote(snap.gauges[i].first)
       << ", \"value\": " << snap.gauges[i].second << "}"
       << (i + 1 < snap.gauges.size() ? "," : "") << "\n";
  os << "  ],\n  \"histograms\": [\n";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    os << "    {\"name\": " << json_quote(h.name)
       << ", \"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"buckets\": [";
    for (int b = 0; b < kHistogramBuckets; ++b)
      os << h.buckets[static_cast<std::size_t>(b)]
         << (b + 1 < kHistogramBuckets ? ", " : "");
    os << "]}" << (i + 1 < snap.histograms.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

bool write_metrics_json(const std::string& path, std::string* error) {
  // Schema-validate BEFORE the write, then write atomically (temp + fsync +
  // rename): a crash, ENOSPC short write, or invalid document can never
  // leave a torn or malformed file at `path`.
  const std::string json = metrics_to_json(snapshot_metrics());
  std::string verr;
  if (!check_json("fstg_metrics", json, nullptr, &verr)) {
    if (error) *error = path + " failed schema validation: " + verr;
    return false;
  }
  if (!store::atomic_write_file(path, json, &verr)) {
    if (error) *error = "cannot write " + path + ": " + verr;
    return false;
  }
  return true;
}

}  // namespace fstg::obs
