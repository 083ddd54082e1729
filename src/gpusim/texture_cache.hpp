// Set-associative texture-cache model in the style of Hakura & Gupta
// (ISCA'97, the paper's reference [7]): cache lines hold square 2-D tiles
// of texels so that the rasterization order's spatial locality turns into
// hits, and misses transfer whole tiles from video memory.
//
// The geometry is fixed: 4x4-texel tiles of RGBA32F (256-byte lines), four
// ways per set, LRU replacement. Only the capacity varies, and it comes
// from the device profile (8 KiB on NV38, 16 KiB on G70). One probe()
// holds the hit scan and the victim choice; access() and the batch
// ReplaySession both call it. The cache also owns the line-tag format
// (tag()), which the SoA engine uses to build its replay tags.
//
// Real GPUs of this era had a small L1 per fragment pipe; the simulator
// instantiates one TextureCache per simulated pipe (so no locking) and the
// device aggregates the statistics. Only *statistics* flow from here into
// the timing model -- texel values are always read from the backing
// texture, so the cache cannot affect functional results.
#pragma once

#include <cstdint>
#include <vector>

namespace hs::gpusim {

struct TextureCacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  TextureCacheStats& operator+=(const TextureCacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses += o.misses;
    return *this;
  }
};

class TextureCache {
 private:
  /// Tag and recency stamp interleaved so a probe touches one cache line
  /// per way group instead of two parallel arrays. lru 0 = never used.
  struct Line {
    std::uint64_t tag;
    std::uint64_t lru;
  };

 public:
  /// log2 of the tile edge; also the tile-touch tracker's tile.
  static constexpr int kTileShift = 2;
  static constexpr int kTileSize = 1 << kTileShift;  ///< tile edge, texels
  static constexpr int kWays = 4;                    ///< ways per set
  /// One line: a kTileSize^2 tile of 16-byte (RGBA32F) texels.
  static constexpr std::uint64_t kLineBytes = kTileSize * kTileSize * 16;

  /// Tag value no texel produces: it would need texture id 0xFFFF and
  /// ~16M-tile coordinates simultaneously, far beyond any texture this
  /// simulator creates. Invalid lines hold it (with lru 0, below every
  /// stamped line, so the victim scan prefers them), and a replay lane
  /// holding it probes nothing (a border-colored fetch, which the
  /// interpreter does not count either).
  static constexpr std::uint64_t kNoTag = ~0ull;

  /// `capacity_bytes` must give a power-of-two set count
  /// (capacity / (kLineBytes * kWays): 1-64 KiB give 1-64 sets).
  explicit TextureCache(std::uint64_t capacity_bytes);

  /// The packed (texture, tile_y, tile_x) line tag of texel (x, y); widths
  /// are generous for any texture this library creates. Texel coordinates
  /// are wrap-resolved and therefore non-negative, so the shift is the
  /// division by the tile size.
  static std::uint64_t tag(std::uint32_t texture_id, int x, int y) {
    return (static_cast<std::uint64_t>(texture_id) << 48) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(y) >> kTileShift)
            << 24) |
           (static_cast<std::uint32_t>(x) >> kTileShift);
  }

  /// Records an access to texel (x, y) of texture `texture_id`.
  /// Returns true on hit. Inline because the interpreter calls this once
  /// per texel fetch.
  bool access(std::uint32_t texture_id, int x, int y) {
    const bool hit =
        probe(lines_.data(), set_mask_, stamp_, tag(texture_id, x, y));
    ++stats_.accesses;
    if (hit) {
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
    return hit;
  }

  /// Register-resident replay driver for a batch caller that *exclusively*
  /// owns the cache for a stretch of probes (the SoA engine's fetch
  /// replay: caches are per logical pipe and one pass slice runs on one
  /// thread, so nothing else touches the cache between construction and
  /// destruction). The recency stamp and the hit/access tallies live in
  /// the session and commit once on destruction, so per-matrix calls pay
  /// no member round-trips.
  class ReplaySession {
   public:
    explicit ReplaySession(TextureCache& cache)
        : cache_(cache), stamp_(cache.stamp_) {}
    ReplaySession(const ReplaySession&) = delete;
    ReplaySession& operator=(const ReplaySession&) = delete;
    ~ReplaySession() {
      cache_.stamp_ = stamp_;
      cache_.stats_.accesses += accesses_;
      cache_.stats_.hits += hits_;
      cache_.stats_.misses += accesses_ - hits_;
    }

    /// Replays an `na x lanes` lane-major matrix of probe tags -- the
    /// canonical fragment-major replay order of a tile-batched engine:
    /// for each lane l in order, probes rows[0][l], rows[1][l], ...,
    /// rows[na-1][l]. kNoTag lanes are skipped (uncounted). Every probe
    /// goes through probe(), so the eviction sequence -- and with it every
    /// statistic -- is identical to per-fetch access() calls in the same
    /// order.
    void replay_matrix(const std::uint64_t* const* rows, int na, int lanes);

   private:
    TextureCache& cache_;
    std::uint64_t stamp_;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
  };

  void flush();

  const TextureCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  int num_sets() const { return static_cast<int>(set_mask_ + 1); }

 private:
  /// The one probe: hit scan, then a min-lru victim with first-way-wins
  /// ties (strict <), which also picks invalid lines (lru 0) first-way
  /// first. A 4-way set of 16-byte lines is exactly one 64-byte host cache
  /// line. Static, with the stamp by reference, so a batch caller can keep
  /// the stamp in a register across probes.
  static bool probe(Line* lines, std::uint64_t set_mask, std::uint64_t& stamp,
                    std::uint64_t tag) {
    // Index hash mixes tile coordinates and texture id so band-stack
    // textures accessed in lockstep do not all collide in one set.
    const std::uint64_t h = tag * 0x9E3779B97F4A7C15ULL;
    Line* const p = lines + ((h >> 32) & set_mask) * kWays;
    if (p[0].tag == tag) { p[0].lru = ++stamp; return true; }
    if (p[1].tag == tag) { p[1].lru = ++stamp; return true; }
    if (p[2].tag == tag) { p[2].lru = ++stamp; return true; }
    if (p[3].tag == tag) { p[3].lru = ++stamp; return true; }
    Line* v = p;
    if (p[1].lru < v->lru) v = p + 1;
    if (p[2].lru < v->lru) v = p + 2;
    if (p[3].lru < v->lru) v = p + 3;
    v->tag = tag;
    v->lru = ++stamp;
    return false;
  }
  static_assert(kWays == 4, "probe() unrolls four ways");

  std::uint64_t set_mask_ = 0;  ///< sets - 1; sets is a power of two
  std::uint64_t stamp_ = 0;
  std::vector<Line> lines_;  // sets * kWays
  TextureCacheStats stats_;
};

}  // namespace hs::gpusim
