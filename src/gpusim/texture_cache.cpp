#include "gpusim/texture_cache.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hs::gpusim {

namespace {

/// Returns log2(v) when v is a power of two, -1 otherwise.
int pow2_shift(std::uint64_t v) {
  if (v == 0 || (v & (v - 1)) != 0) return -1;
  int s = 0;
  while ((v >> s) != 1) ++s;
  return s;
}

}  // namespace

TextureCache::TextureCache(const TextureCacheConfig& config) : config_(config) {
  HS_ASSERT(config_.tile_size > 0 && config_.associativity > 0);
  // Tags index tiles with a shift (make_tag, the SoA engine's replay).
  tile_shift_ = pow2_shift(static_cast<std::uint64_t>(config_.tile_size));
  HS_ASSERT_MSG(tile_shift_ >= 0, "texture-cache tile size must be a power of two");
  const std::uint64_t line_bytes =
      static_cast<std::uint64_t>(config_.tile_size) * config_.tile_size *
      config_.bytes_per_texel;
  HS_ASSERT(line_bytes > 0);
  std::uint64_t sets = config_.total_bytes /
                       (line_bytes * static_cast<std::uint64_t>(config_.associativity));
  num_sets_ = static_cast<int>(std::max<std::uint64_t>(1, sets));
  ways4_ = config_.associativity == 4;
  if (pow2_shift(static_cast<std::uint64_t>(num_sets_)) >= 0) {
    set_mask_ = static_cast<std::uint64_t>(num_sets_) - 1;
  }
  const std::size_t n = static_cast<std::size_t>(num_sets_) *
                        static_cast<std::size_t>(config_.associativity);
  lines_.assign(n, Line{kInvalidTag, 0});
}

void TextureCache::insert(Line* base, std::uint64_t tag) {
  // Victim: least recently used, which prefers invalid lines (lru 0) and,
  // on ties among them, the first way -- the classic first-invalid-way
  // choice expressed through the stamp order.
  Line* victim = base;
  for (int w = 1; w < config_.associativity; ++w) {
    if (base[w].lru < victim->lru) victim = base + w;
  }
  victim->tag = tag;
  victim->lru = ++stamp_;
}

void TextureCache::ReplaySession::replay_matrix(const std::uint64_t* const* rows,
                                                int na, int lanes) {
  TextureCache& c = cache_;
  // Everything mutable lives in locals for the whole matrix: lru stores
  // are plain uint64 writes that would otherwise alias (and so force
  // reloads of) the session's own uint64 members after every probe.
  Line* const lines = c.lines_.data();
  std::uint64_t stamp = stamp_;
  std::uint64_t accesses = accesses_;
  std::uint64_t hits = hits_;
  if (c.ways4_ && c.set_mask_ != 0) {
    // Unrolled default geometry, exactly access_tag_quiet()'s fast path.
    const std::uint64_t mask = c.set_mask_;
    for (int l = 0; l < lanes; ++l) {
      for (int a = 0; a < na; ++a) {
        const std::uint64_t tag = rows[a][l];
        if (tag == kSkipTag) continue;
        const std::uint64_t h = tag * 0x9E3779B97F4A7C15ULL;
        Line* const p = lines + ((h >> 32) & mask) * 4;
        ++accesses;
        if (p[0].tag == tag) { p[0].lru = ++stamp; ++hits; continue; }
        if (p[1].tag == tag) { p[1].lru = ++stamp; ++hits; continue; }
        if (p[2].tag == tag) { p[2].lru = ++stamp; ++hits; continue; }
        if (p[3].tag == tag) { p[3].lru = ++stamp; ++hits; continue; }
        Line* v = p;
        if (p[1].lru < v->lru) v = p + 1;
        if (p[2].lru < v->lru) v = p + 2;
        if (p[3].lru < v->lru) v = p + 3;
        v->tag = tag;
        v->lru = ++stamp;
      }
    }
  } else {
    const std::uint64_t mask = c.set_mask_;
    const std::uint64_t nsets = static_cast<std::uint64_t>(c.num_sets_);
    const int assoc = c.config_.associativity;
    for (int l = 0; l < lanes; ++l) {
      for (int a = 0; a < na; ++a) {
        const std::uint64_t tag = rows[a][l];
        if (tag == kSkipTag) continue;
        const std::uint64_t h = tag * 0x9E3779B97F4A7C15ULL;
        const std::uint64_t set =
            mask != 0 ? ((h >> 32) & mask) : (h >> 32) % nsets;
        Line* const p = lines + set * static_cast<std::uint64_t>(assoc);
        ++accesses;
        bool hit = false;
        for (int w = 0; w < assoc; ++w) {
          if (p[w].tag == tag) {
            p[w].lru = ++stamp;
            hit = true;
            break;
          }
        }
        if (hit) {
          ++hits;
          continue;
        }
        Line* v = p;
        for (int w = 1; w < assoc; ++w) {
          if (p[w].lru < v->lru) v = p + w;
        }
        v->tag = tag;
        v->lru = ++stamp;
      }
    }
  }
  stamp_ = stamp;
  accesses_ = accesses;
  hits_ = hits;
}

void TextureCache::flush() {
  std::fill(lines_.begin(), lines_.end(), Line{kInvalidTag, 0});
}

}  // namespace hs::gpusim
