#include "gpusim/texture_cache.hpp"

#include <gtest/gtest.h>

namespace hs::gpusim {
namespace {

TextureCacheConfig small_config() {
  TextureCacheConfig cfg;
  cfg.total_bytes = 4 * 1024;
  cfg.tile_size = 4;
  cfg.associativity = 2;
  cfg.bytes_per_texel = 16;
  return cfg;
}

TEST(TextureCache, FirstAccessMissesSecondHits) {
  TextureCache cache(small_config());
  EXPECT_FALSE(cache.access(0, 5, 5));
  EXPECT_TRUE(cache.access(0, 5, 5));
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TextureCache, SameTileHitsAcrossTexels) {
  TextureCache cache(small_config());
  EXPECT_FALSE(cache.access(0, 0, 0));
  // All texels of the 4x4 tile share the line.
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      if (x == 0 && y == 0) continue;
      EXPECT_TRUE(cache.access(0, x, y)) << x << "," << y;
    }
  }
}

TEST(TextureCache, DifferentTilesMiss) {
  TextureCache cache(small_config());
  EXPECT_FALSE(cache.access(0, 0, 0));
  EXPECT_FALSE(cache.access(0, 4, 0));  // next tile over
  EXPECT_FALSE(cache.access(0, 0, 4));
}

TEST(TextureCache, DifferentTexturesDoNotAlias) {
  TextureCache cache(small_config());
  EXPECT_FALSE(cache.access(1, 0, 0));
  EXPECT_FALSE(cache.access(2, 0, 0));
  EXPECT_TRUE(cache.access(1, 0, 0));
  EXPECT_TRUE(cache.access(2, 0, 0));
}

TEST(TextureCache, FlushInvalidatesEverything) {
  TextureCache cache(small_config());
  cache.access(0, 0, 0);
  cache.flush();
  EXPECT_FALSE(cache.access(0, 0, 0));
}

TEST(TextureCache, ResetStatsKeepsContents) {
  TextureCache cache(small_config());
  cache.access(0, 0, 0);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_TRUE(cache.access(0, 0, 0));  // still cached
}

TEST(TextureCache, MissBytesCountTileTraffic) {
  const TextureCacheConfig cfg = small_config();
  TextureCache cache(cfg);
  cache.access(0, 0, 0);
  cache.access(0, 10, 10);
  EXPECT_EQ(cache.stats().miss_bytes(cfg), 2ull * 4 * 4 * 16);
}

TEST(TextureCache, LruEvictionWithinSet) {
  // One set total: capacity = 2 lines exactly.
  TextureCacheConfig cfg;
  cfg.total_bytes = 2 * 4 * 4 * 16;
  cfg.tile_size = 4;
  cfg.associativity = 2;
  cfg.bytes_per_texel = 16;
  TextureCache cache(cfg);
  ASSERT_EQ(cache.num_sets(), 1);

  cache.access(0, 0, 0);   // A miss
  cache.access(0, 4, 0);   // B miss
  EXPECT_TRUE(cache.access(0, 0, 0));   // A hit (B becomes LRU)
  cache.access(0, 8, 0);   // C miss, evicts B
  EXPECT_TRUE(cache.access(0, 0, 0));   // A still resident
  EXPECT_FALSE(cache.access(0, 4, 0));  // B was evicted
}

TEST(TextureCache, CapacitySweepNeverLosesAccessCount) {
  for (std::uint64_t kb : {1, 2, 8, 64}) {
    TextureCacheConfig cfg;
    cfg.total_bytes = kb * 1024;
    TextureCache cache(cfg);
    for (int i = 0; i < 100; ++i) cache.access(0, i * 3, i * 7);
    EXPECT_EQ(cache.stats().accesses, 100u);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 100u);
  }
}

TEST(TextureCache, LargerCacheHitsAtLeastAsOften) {
  auto run = [](std::uint64_t bytes) {
    TextureCacheConfig cfg;
    cfg.total_bytes = bytes;
    TextureCache cache(cfg);
    // Two sweeps over a 32x32 region: the second sweep hits if resident.
    for (int pass = 0; pass < 2; ++pass) {
      for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) cache.access(0, x, y);
      }
    }
    return cache.stats().hits;
  };
  EXPECT_LE(run(1024), run(64 * 1024));
}

TEST(TextureCache, NonPowerOfTwoTileIsFatal) {
  // Tags index tiles with a shift, so the tile edge must be a power of two.
  TextureCacheConfig cfg = small_config();
  cfg.tile_size = 3;
  EXPECT_DEATH(TextureCache cache(cfg), "power of two");
}

TEST(TextureCacheStats, Accumulate) {
  TextureCacheStats a{10, 7, 3};
  TextureCacheStats b{4, 2, 2};
  a += b;
  EXPECT_EQ(a.accesses, 14u);
  EXPECT_EQ(a.hits, 9u);
  EXPECT_EQ(a.misses, 5u);
}

}  // namespace
}  // namespace hs::gpusim
