// Performance profiles of the simulated hardware.
//
// The functional simulator is profile-independent; profiles feed the timing
// model only. GPU parameters are taken from Table 1 of the paper
// (FX5950 Ultra / 7800 GTX) plus era-typical values for quantities the
// paper does not list (bus bandwidth, texture cache geometry, per-pass
// dispatch overhead). CPU parameters come from Table 2 and drive the
// analytic CPU cost model used by the table benches.
#pragma once

#include <cstdint>
#include <string>

namespace hs::gpusim {

/// Host <-> GPU interconnect model: time = latency + bytes / bandwidth.
/// AGP readback was famously asymmetric; PCIe is symmetric.
struct BusProfile {
  std::string name;
  double upload_bandwidth_bps = 0;    ///< host -> video memory, bytes/s
  double download_bandwidth_bps = 0;  ///< video memory -> host, bytes/s
  double latency_s = 0;               ///< fixed per-transfer setup cost
};

BusProfile agp8x();
BusProfile pcie_x16_gen1();

struct DeviceProfile {
  std::string name;
  int year = 0;
  std::string architecture;

  int fragment_pipes = 0;          ///< "#Pixel shader processors" (Table 1)
  double core_clock_hz = 0;        ///< shader clock
  double mem_bandwidth_bps = 0;    ///< video memory bandwidth, bytes/s
  double tex_fill_rate = 0;        ///< texels/s (Table 1 "Texture fill rate")
  std::uint64_t video_memory_bytes = 0;

  /// vec4 ALU instructions retired per pipe per clock. 1.0 for both our
  /// parts; NV30-era dual-issue subtleties are folded into this factor.
  double alu_ipc = 1.0;

  /// Fixed driver/state-change cost charged per rendering pass. Multi-pass
  /// GPGPU of this era paid tens of microseconds per glDraw + FBO rebind.
  double pass_overhead_s = 20e-6;

  /// Texture L1 cache capacity per pipe (bytes); the geometry is fixed (see
  /// TextureCache). Must give a power-of-two set count (1 KiB per set).
  std::uint64_t tex_cache_bytes_per_pipe = 8 * 1024;

  /// Shared L2 texture cache bandwidth, bytes/s. L1 misses are served from
  /// L2; only each pass's unique tile working set streams from DRAM.
  double l2_bandwidth_bps = 0;

  BusProfile bus;
};

/// Table 1, left column: GeForce FX5950 Ultra (NV38, 2003).
DeviceProfile geforce_fx5950_ultra();
/// Table 1, right column: GeForce 7800 GTX (G70, 2005).
DeviceProfile geforce_7800_gtx();

/// CPU cost-model profile (Table 2). The model charges
///   time = max(flops / sustained_flops, bytes / sustained_mem_bw)
/// with separate sustained-flop rates for the scalar ("gcc") and
/// vectorized ("icc") builds, calibrated to era measurements: a P4 core
/// sustained well under 1 flop/cycle on scalar x87/SSE-scalar code and
/// 2-3 flops/cycle on packed SSE with this kind of streaming kernel.
struct CpuProfile {
  std::string name;
  int year = 0;
  double clock_hz = 0;
  double scalar_flops_per_cycle = 0;  ///< sustained, scalar build
  double vector_flops_per_cycle = 0;  ///< sustained, autovectorized build
  double mem_bandwidth_bps = 0;       ///< FSB sustained bandwidth
};

/// Table 2, left column: Pentium 4 Northwood M0, 2.8 GHz (2003).
CpuProfile pentium4_northwood();
/// Table 2, right column: Pentium 4 Prescott 6x2, 3.4 GHz (2005).
CpuProfile pentium4_prescott();

}  // namespace hs::gpusim
