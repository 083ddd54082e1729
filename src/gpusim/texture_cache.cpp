#include "gpusim/texture_cache.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hs::gpusim {

TextureCache::TextureCache(std::uint64_t capacity_bytes) {
  const std::uint64_t sets = capacity_bytes / (kLineBytes * kWays);
  // The set index is a mask of the tag hash.
  HS_ASSERT_MSG(sets != 0 && (sets & (sets - 1)) == 0,
                "texture-cache set count must be a power of two");
  set_mask_ = sets - 1;
  lines_.assign(static_cast<std::size_t>(sets) * kWays, Line{kNoTag, 0});
}

void TextureCache::ReplaySession::replay_matrix(const std::uint64_t* const* rows,
                                                int na, int lanes) {
  // Everything mutable lives in locals for the whole matrix: lru stores
  // are plain uint64 writes that would otherwise alias (and so force
  // reloads of) the session's own uint64 members after every probe.
  Line* const lines = cache_.lines_.data();
  const std::uint64_t mask = cache_.set_mask_;
  std::uint64_t stamp = stamp_;
  std::uint64_t accesses = accesses_;
  std::uint64_t hits = hits_;
  for (int l = 0; l < lanes; ++l) {
    for (int a = 0; a < na; ++a) {
      const std::uint64_t tag = rows[a][l];
      if (tag == kNoTag) continue;
      ++accesses;
      hits += probe(lines, mask, stamp, tag) ? 1 : 0;
    }
  }
  stamp_ = stamp;
  accesses_ = accesses;
  hits_ = hits;
}

void TextureCache::flush() {
  std::fill(lines_.begin(), lines_.end(), Line{kNoTag, 0});
}

}  // namespace hs::gpusim
