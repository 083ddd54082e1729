#include "trace/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace hs::trace {

namespace {

/// Bound math shared by the live Histogram statics and by
/// HistogramSnapshot::quantile (which must work even in an HS_TRACE=OFF
/// build, where the Histogram statics are stubbed to 0).
constexpr int kMinExp = -30;
constexpr int kMaxExp = 10;
constexpr int kSubBuckets = 8;
constexpr int kBucketCount = (kMaxExp - kMinExp) * kSubBuckets + 2;

double pow2(int e) { return std::ldexp(1.0, e); }

double raw_bucket_lower(int index) {
  if (index <= 0) return 0;
  if (index >= kBucketCount - 1) return pow2(kMaxExp);
  const int i = index - 1;
  const int octave = kMinExp + i / kSubBuckets;
  const int sub = i % kSubBuckets;
  return pow2(octave) * (1.0 + static_cast<double>(sub) / kSubBuckets);
}

double raw_bucket_upper(int index) {
  if (index <= 0) return pow2(kMinExp);
  if (index >= kBucketCount - 1) {
    return std::numeric_limits<double>::infinity();
  }
  const int i = index - 1;
  const int octave = kMinExp + i / kSubBuckets;
  const int sub = i % kSubBuckets;
  if (sub == kSubBuckets - 1) return pow2(octave + 1);
  return pow2(octave) * (1.0 + static_cast<double>(sub + 1) / kSubBuckets);
}

}  // namespace

double HistogramSnapshot::quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, count]; the sample at that rank lives in the first
  // bucket whose cumulative count reaches it.
  const double target =
      std::max(1.0, std::ceil(q * static_cast<double>(count)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t n = buckets[i];
    if (n == 0) continue;
    if (static_cast<double>(cum + n) >= target) {
      const double lo = raw_bucket_lower(static_cast<int>(i));
      double hi = raw_bucket_upper(static_cast<int>(i));
      if (!std::isfinite(hi)) hi = std::max(max, lo);  // overflow bucket
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(n);
      double v = lo + (hi - lo) * frac;
      if (max > 0) v = std::min(v, max);
      if (min > 0) v = std::max(v, min);
      return v;
    }
    cum += n;
  }
  return max;
}

#if HS_TRACE_ENABLED

namespace {

/// Bucket of a sample; only the live Histogram records samples.
int raw_bucket_index(double seconds) {
  if (!(seconds > 0) || !std::isfinite(seconds)) return 0;
  if (seconds < pow2(kMinExp)) return 0;
  if (seconds >= pow2(kMaxExp)) return kBucketCount - 1;
  int exp = 0;
  const double mant = std::frexp(seconds, &exp);  // seconds = mant * 2^exp
  const int octave = exp - 1;                     // [2^octave, 2^(octave+1))
  int sub = static_cast<int>((mant - 0.5) * 2.0 * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return (octave - kMinExp) * kSubBuckets + sub + 1;
}

}  // namespace

int Histogram::bucket_index(double seconds) { return raw_bucket_index(seconds); }
double Histogram::bucket_lower(int index) { return raw_bucket_lower(index); }
double Histogram::bucket_upper(int index) { return raw_bucket_upper(index); }

double Histogram::bucket_width_at(double seconds) {
  const int i = raw_bucket_index(seconds);
  const double hi = raw_bucket_upper(i);
  if (!std::isfinite(hi)) return raw_bucket_lower(i);  // one octave's worth
  return hi - raw_bucket_lower(i);
}

Histogram::Shard& Histogram::local_shard() {
  // Per-thread cache of (histogram -> shard). Histograms are
  // process-lifetime registry objects, so the raw pointers never dangle;
  // a small vector with linear search beats a hash map at the realistic
  // handful of histograms per process.
  thread_local std::vector<std::pair<const Histogram*, Shard*>> cache;
  for (const auto& [h, s] : cache) {
    if (h == this) return *s;
  }
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(shard));
  }
  cache.emplace_back(this, raw);
  return *raw;
}

void Histogram::record(double seconds) {
  if (!(seconds >= 0) || !std::isfinite(seconds)) return;
  Shard& s = local_shard();
  s.counts[static_cast<std::size_t>(raw_bucket_index(seconds))].fetch_add(
      1, std::memory_order_relaxed);
  // Owner-thread-only updates: plain load+store, no RMW contention.
  s.sum.store(s.sum.load(std::memory_order_relaxed) + seconds,
              std::memory_order_relaxed);
  const std::uint64_t before = s.total.load(std::memory_order_relaxed);
  if (before == 0 || seconds < s.min.load(std::memory_order_relaxed)) {
    s.min.store(seconds, std::memory_order_relaxed);
  }
  if (before == 0 || seconds > s.max.load(std::memory_order_relaxed)) {
    s.max.store(seconds, std::memory_order_relaxed);
  }
  s.total.store(before + 1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.buckets.assign(kBucketCount, 0);
  std::lock_guard<std::mutex> lock(mu_);
  bool have_bounds = false;
  for (const auto& shard : shards_) {
    for (int i = 0; i < kBucketCount; ++i) {
      out.buckets[static_cast<std::size_t>(i)] +=
          shard->counts[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed);
    }
    if (shard->total.load(std::memory_order_relaxed) == 0) continue;
    out.sum += shard->sum.load(std::memory_order_relaxed);
    const double lo = shard->min.load(std::memory_order_relaxed);
    const double hi = shard->max.load(std::memory_order_relaxed);
    out.min = have_bounds ? std::min(out.min, lo) : lo;
    out.max = have_bounds ? std::max(out.max, hi) : hi;
    have_bounds = true;
  }
  for (const std::uint64_t n : out.buckets) out.count += n;
  return out;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    for (auto& c : shard->counts) c.store(0, std::memory_order_relaxed);
    shard->sum.store(0, std::memory_order_relaxed);
    shard->min.store(0, std::memory_order_relaxed);
    shard->max.store(0, std::memory_order_relaxed);
    shard->total.store(0, std::memory_order_relaxed);
  }
}

namespace {

struct HistogramRegistry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

HistogramRegistry& registry() {
  static HistogramRegistry r;
  return r;
}

}  // namespace

Histogram& histogram(std::string_view name) {
  HistogramRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, HistogramSnapshot>> histograms_snapshot() {
  HistogramRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    out.emplace_back(name, h->snapshot());
  }
  return out;
}

void reset_histograms() {
  HistogramRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& [name, h] : r.histograms) h->reset();
}

#else  // HS_TRACE_ENABLED == 0

Histogram& histogram(std::string_view) {
  static Histogram dummy;
  return dummy;
}

void reset_histograms() {}

#endif  // HS_TRACE_ENABLED

}  // namespace hs::trace
