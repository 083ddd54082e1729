#include "gpusim/texture_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <vector>

namespace hs::gpusim {
namespace {

constexpr std::uint64_t kSmallBytes = 4 * 1024;  // 4 sets

TEST(TextureCache, FirstAccessMissesSecondHits) {
  TextureCache cache(kSmallBytes);
  EXPECT_FALSE(cache.access(0, 5, 5));
  EXPECT_TRUE(cache.access(0, 5, 5));
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TextureCache, SameTileHitsAcrossTexels) {
  TextureCache cache(kSmallBytes);
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
  TextureCache cache(kSmallBytes);
  EXPECT_FALSE(cache.access(0, 0, 0));
  EXPECT_FALSE(cache.access(0, 4, 0));  // next tile over
  EXPECT_FALSE(cache.access(0, 0, 4));
}

TEST(TextureCache, DifferentTexturesDoNotAlias) {
  TextureCache cache(kSmallBytes);
  EXPECT_FALSE(cache.access(1, 0, 0));
  EXPECT_FALSE(cache.access(2, 0, 0));
  EXPECT_TRUE(cache.access(1, 0, 0));
  EXPECT_TRUE(cache.access(2, 0, 0));
}

TEST(TextureCache, FlushInvalidatesEverything) {
  TextureCache cache(kSmallBytes);
  cache.access(0, 0, 0);
  cache.flush();
  EXPECT_FALSE(cache.access(0, 0, 0));
}

TEST(TextureCache, ResetStatsKeepsContents) {
  TextureCache cache(kSmallBytes);
  cache.access(0, 0, 0);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_TRUE(cache.access(0, 0, 0));  // still cached
}

TEST(TextureCache, MissBytesCountTileTraffic) {
  // A line is one 4x4 tile of RGBA32F texels.
  EXPECT_EQ(TextureCache::kLineBytes, 4ull * 4 * 16);
  TextureCache cache(kSmallBytes);
  cache.access(0, 0, 0);
  cache.access(0, 10, 10);
  EXPECT_EQ(cache.stats().misses * TextureCache::kLineBytes, 2ull * 4 * 4 * 16);
}

TEST(TextureCache, LruEvictionWithinSet) {
  // 1 KiB is one 4-way set: every tile maps to it.
  TextureCache cache(1024);
  ASSERT_EQ(cache.num_sets(), 1);

  cache.access(0, 0, 0);   // A miss
  cache.access(0, 4, 0);   // B miss
  cache.access(0, 8, 0);   // C miss
  cache.access(0, 12, 0);  // D miss: the set is full
  EXPECT_TRUE(cache.access(0, 0, 0));   // A hit (B becomes LRU)
  EXPECT_FALSE(cache.access(0, 16, 0));  // E miss, evicts B
  EXPECT_TRUE(cache.access(0, 0, 0));   // A still resident
  EXPECT_TRUE(cache.access(0, 8, 0));   // C still resident
  EXPECT_TRUE(cache.access(0, 12, 0));  // D still resident
  EXPECT_FALSE(cache.access(0, 4, 0));  // B was evicted
}

TEST(TextureCache, CapacitySweepNeverLosesAccessCount) {
  for (std::uint64_t kb : {1, 2, 8, 64}) {
    TextureCache cache(kb * 1024);
    for (int i = 0; i < 100; ++i) cache.access(0, i * 3, i * 7);
    EXPECT_EQ(cache.stats().accesses, 100u);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 100u);
  }
}

TEST(TextureCache, LargerCacheHitsAtLeastAsOften) {
  auto run = [](std::uint64_t bytes) {
    TextureCache cache(bytes);
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

TEST(TextureCache, NonPowerOfTwoSetCountIsFatal) {
  // The set index masks the tag hash, so the set count (capacity / 1 KiB)
  // must be a power of two; below one set there is none.
  EXPECT_DEATH(TextureCache cache(3 * 1024), "power of two");
  EXPECT_DEATH(TextureCache cache(512), "power of two");
}

TEST(TextureCache, ReplayMatrixMatchesPerFetchAccess) {
  // A ReplaySession probing lane-major tag matrices must leave the cache in
  // the state per-fetch access() calls in the same order leave it in: same
  // statistics, and the same hits on whatever comes next.
  struct Texel {
    std::uint32_t id;
    int x;
    int y;
  };
  for (std::uint64_t bytes : {1024ull, 8 * 1024ull}) {
    SCOPED_TRACE(bytes);
    std::mt19937 rng(1234);
    std::uniform_int_distribution<int> coord(0, 47);
    std::uniform_int_distribution<std::uint32_t> id(0, 3);
    std::uniform_int_distribution<int> skip(0, 7);
    auto texel = [&] { return Texel{id(rng), coord(rng), coord(rng)}; };

    TextureCache batched(bytes);
    TextureCache single(bytes);
    constexpr int kRows = 5;
    constexpr int kLanes = 37;
    {
      TextureCache::ReplaySession session(batched);
      for (int matrix = 0; matrix < 6; ++matrix) {
        std::array<std::vector<std::uint64_t>, kRows> tags;
        std::array<std::vector<Texel>, kRows> texels;
        std::array<const std::uint64_t*, kRows> rows{};
        for (int a = 0; a < kRows; ++a) {
          for (int l = 0; l < kLanes; ++l) {
            const Texel t = texel();
            texels[a].push_back(t);
            tags[a].push_back(skip(rng) == 0 ? TextureCache::kNoTag
                                             : TextureCache::tag(t.id, t.x, t.y));
          }
          rows[a] = tags[a].data();
        }
        session.replay_matrix(rows.data(), kRows, kLanes);
        for (int l = 0; l < kLanes; ++l) {
          for (int a = 0; a < kRows; ++a) {
            if (tags[a][l] == TextureCache::kNoTag) continue;
            const Texel& t = texels[a][l];
            single.access(t.id, t.x, t.y);
          }
        }
      }
    }
    EXPECT_GT(single.stats().hits, 0u);
    EXPECT_GT(single.stats().misses, 0u);
    EXPECT_EQ(batched.stats().accesses, single.stats().accesses);
    EXPECT_EQ(batched.stats().hits, single.stats().hits);
    EXPECT_EQ(batched.stats().misses, single.stats().misses);

    // Same resident lines and recency order: a follow-up sequence hits and
    // misses identically on both.
    for (int i = 0; i < 400; ++i) {
      const Texel t = texel();
      EXPECT_EQ(batched.access(t.id, t.x, t.y), single.access(t.id, t.x, t.y))
          << "probe " << i;
    }
  }
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
