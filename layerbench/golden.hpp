// Pinned simulator statistics for scene-512 (512x512x128 synthetic scene,
// 3x3 structuring element, library-default AmcGpuOptions). A simulator
// speed-up must leave every one of these identical.
//
// ExecCounters and the chunk count do not depend on texel values, so one
// pin covers every seed. The witness hash, modeled time and texture-cache
// statistics do; they are pinned per seed for the seeds below. Regenerate
// with `layerbench --golden <first> <last>` only when a change is meant to
// alter the simulated statistics.
#pragma once

#include <cstdint>

#include "gpusim/interpreter.hpp"

namespace lb {

struct Scene512Golden {
  std::uint64_t seed;
  std::uint64_t output_hash;
  double modeled_seconds;
  std::uint64_t cache_accesses;
  std::uint64_t cache_hits;
  std::uint64_t cache_misses;
};

inline constexpr hs::gpusim::ExecCounters kScene512Exec{557973504ULL, 272910336ULL,
                                                       3932233728ULL};
inline constexpr std::size_t kScene512Chunks = 2;

inline constexpr Scene512Golden kScene512Golden[] = {
    {0, 0x9a00059313def3c8ULL, 0x1.d6c76927529bfp-4, 272910336ULL, 243483904ULL, 29426432ULL},
    {1, 0x2753b1dc0c46542aULL, 0x1.d6c9a5d0df816p-4, 272910336ULL, 243482624ULL, 29427712ULL},
    {2, 0x249acf7957fe302eULL, 0x1.d6bdae12941dfp-4, 272910336ULL, 243489472ULL, 29420864ULL},
    {3, 0x375530e0e649ad91ULL, 0x1.d6bc8fbdcdab1p-4, 272910336ULL, 243490112ULL, 29420224ULL},
    {4, 0x4edad83e05ae2383ULL, 0x1.d6bfb177f951fp-4, 272910336ULL, 243488320ULL, 29422016ULL},
    {5, 0x11a8a4c5b70e14aaULL, 0x1.d6c3d4e4d793fp-4, 272910336ULL, 243485952ULL, 29424384ULL},
    {6, 0x4df33e6edec0967eULL, 0x1.d6d52b06db829p-4, 272910336ULL, 243476032ULL, 29434304ULL},
    {7, 0x7ba7dd6f4206ee92ULL, 0x1.d6d005e74aa77p-4, 272910336ULL, 243478976ULL, 29431360ULL},
    {8, 0x19622be4e459907ULL, 0x1.d6c2efd438d19p-4, 272910336ULL, 243486464ULL, 29423872ULL},
    {9, 0x850dfa5b79e2d329ULL, 0x1.d6b9c3e9dd8cfp-4, 272910336ULL, 243491712ULL, 29418624ULL},
    {10, 0x8b72ec243de6bb64ULL, 0x1.d6d6495ba1f51p-4, 272910336ULL, 243475392ULL, 29434944ULL},
    {11, 0x4bae89e7ff1d3693ULL, 0x1.d6cb36adf5547p-4, 272910336ULL, 243481728ULL, 29428608ULL},
    {12, 0x3692e65f1dfdb358ULL, 0x1.d6cb6ff21d049p-4, 272910336ULL, 243481600ULL, 29428736ULL},
    {13, 0x6bb89f83addd3f5ULL, 0x1.d6c0075e34db1p-4, 272910336ULL, 243488128ULL, 29422208ULL},
    {14, 0x14bcec40059035baULL, 0x1.d6c05d4470646p-4, 272910336ULL, 243487936ULL, 29422400ULL},
    {15, 0xeacaa739e6412d6dULL, 0x1.d6c15ef722fe1p-4, 272910336ULL, 243487360ULL, 29422976ULL},
    {16, 0x7c514371adbae8b8ULL, 0x1.d6c0075e34db7p-4, 272910336ULL, 243488128ULL, 29422208ULL},
    {17, 0x7b8f4a7592c23fb2ULL, 0x1.d6bd582c5894fp-4, 272910336ULL, 243489664ULL, 29420672ULL},
    {18, 0x337aaf7f6cbd533fULL, 0x1.d6d59d8f2ae3fp-4, 272910336ULL, 243475776ULL, 29434560ULL},
    {19, 0xa63f50bf056ac845ULL, 0x1.d6c7a26b7a4c1p-4, 272910336ULL, 243483776ULL, 29426560ULL},
    {20, 0x68112def02c2e05cULL, 0x1.d6c260a9d598ep-4, 272910336ULL, 243486784ULL, 29423552ULL},
    {21, 0xc5c9591b18417529ULL, 0x1.d6bd02461d0c6p-4, 272910336ULL, 243489856ULL, 29420480ULL},
    {22, 0x65786c58715e2cdeULL, 0x1.d6d225eec3b39p-4, 272910336ULL, 243477760ULL, 29432576ULL},
    {23, 0x6e2b43f27c5b1cc1ULL, 0x1.d6b8fb7b52a2fp-4, 272910336ULL, 243492160ULL, 29418176ULL},
    {24, 0xfa2ad45f0a758008ULL, 0x1.d6d869631b021p-4, 272910336ULL, 243474176ULL, 29436160ULL},
    {25, 0x79daf44e96f54ULL, 0x1.d6c42acb131c1p-4, 272910336ULL, 243485760ULL, 29424576ULL},
    {26, 0x8ebd3fc516a78598ULL, 0x1.d6b9e08bf1656p-4, 272910336ULL, 243491648ULL, 29418688ULL},
    {27, 0xce8499d24eace0a6ULL, 0x1.d6d5d6d352947p-4, 272910336ULL, 243475648ULL, 29434688ULL},
    {28, 0x62ee731465fceedeULL, 0x1.d6c2d33224f97p-4, 272910336ULL, 243486528ULL, 29423808ULL},
    {29, 0xd11d0258d89cf5f1ULL, 0x1.d6c0240048b31p-4, 272910336ULL, 243488064ULL, 29422272ULL},
    {30, 0x759536b7d05ebac1ULL, 0x1.d6d0786f9a081p-4, 272910336ULL, 243478720ULL, 29431616ULL},
    {31, 0x4703e7cacc003bcfULL, 0x1.d6b8a595171aep-4, 272910336ULL, 243492352ULL, 29417984ULL},
};

inline const Scene512Golden* find_scene512_golden(std::uint64_t seed) {
  for (const Scene512Golden& g : kScene512Golden) {
    if (g.seed == seed) return &g;
  }
  return nullptr;
}

}  // namespace lb
