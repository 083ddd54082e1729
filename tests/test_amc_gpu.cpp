#include "core/amc_gpu.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace hs::core {
namespace {

hsi::HyperCube random_cube(int w, int h, int n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  hsi::HyperCube cube(w, h, n);
  for (auto& v : cube.raw()) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return cube;
}

AmcGpuOptions fast_options() {
  AmcGpuOptions opt;
  opt.profile = gpusim::geforce_7800_gtx();
  opt.profile.fragment_pipes = 4;  // fewer simulated pipes = faster tests
  return opt;
}

TEST(AmcGpu, BitIdenticalToVectorizedCpuMirror) {
  const auto cube = random_cube(14, 11, 10, 1);
  const StructuringElement se = StructuringElement::square(1);
  const MorphOutputs cpu = morphology_vectorized(cube, se);
  const AmcGpuReport gpu = morphology_gpu(cube, se, fast_options());

  ASSERT_EQ(gpu.morph.mei.size(), cpu.mei.size());
  for (std::size_t i = 0; i < cpu.mei.size(); ++i) {
    EXPECT_EQ(gpu.morph.db[i], cpu.db[i]) << "db at " << i;
    EXPECT_EQ(gpu.morph.mei[i], cpu.mei[i]) << "mei at " << i;
    EXPECT_EQ(gpu.morph.erosion_index[i], cpu.erosion_index[i]) << i;
    EXPECT_EQ(gpu.morph.dilation_index[i], cpu.dilation_index[i]) << i;
  }
}

TEST(AmcGpu, ChunkedRunMatchesUnchunked) {
  const auto cube = random_cube(20, 16, 8, 2);
  const StructuringElement se = StructuringElement::square(1);

  AmcGpuOptions whole = fast_options();
  const AmcGpuReport a = morphology_gpu(cube, se, whole);
  EXPECT_EQ(a.chunk_count, 1u);

  AmcGpuOptions chunked = fast_options();
  chunked.chunk_texel_budget = 20 * 8;  // force several chunks
  const AmcGpuReport b = morphology_gpu(cube, se, chunked);
  EXPECT_GT(b.chunk_count, 1u);

  for (std::size_t i = 0; i < a.morph.mei.size(); ++i) {
    EXPECT_EQ(a.morph.mei[i], b.morph.mei[i]) << i;
    EXPECT_EQ(a.morph.db[i], b.morph.db[i]) << i;
    EXPECT_EQ(a.morph.erosion_index[i], b.morph.erosion_index[i]) << i;
    EXPECT_EQ(a.morph.dilation_index[i], b.morph.dilation_index[i]) << i;
  }
}

TEST(AmcGpu, ExecutionEnginesAreBitIdentical) {
  // The full pipeline -- every shader, chunking, ping-pong loops -- must
  // produce identical outputs AND identical modeled statistics under the
  // interpreter and the SoA engine.
  const auto cube = random_cube(14, 11, 10, 6);
  const StructuringElement se = StructuringElement::square(1);
  AmcGpuOptions interp = fast_options();
  interp.sim.exec_engine = gpusim::ExecEngine::Interpreter;
  AmcGpuOptions soa = fast_options();
  soa.sim.exec_engine = gpusim::ExecEngine::Soa;
  const AmcGpuReport a = morphology_gpu(cube, se, interp);
  const AmcGpuReport b = morphology_gpu(cube, se, soa);

  ASSERT_EQ(a.morph.mei.size(), b.morph.mei.size());
  for (std::size_t i = 0; i < a.morph.mei.size(); ++i) {
    EXPECT_EQ(a.morph.mei[i], b.morph.mei[i]) << i;
    EXPECT_EQ(a.morph.db[i], b.morph.db[i]) << i;
    EXPECT_EQ(a.morph.erosion_index[i], b.morph.erosion_index[i]) << i;
    EXPECT_EQ(a.morph.dilation_index[i], b.morph.dilation_index[i]) << i;
  }
  EXPECT_EQ(a.totals.passes, b.totals.passes);
  EXPECT_EQ(a.totals.fragments, b.totals.fragments);
  EXPECT_EQ(a.totals.exec.alu_instructions, b.totals.exec.alu_instructions);
  EXPECT_EQ(a.totals.exec.tex_fetches, b.totals.exec.tex_fetches);
  EXPECT_EQ(a.totals.exec.tex_fetch_bytes, b.totals.exec.tex_fetch_bytes);
  EXPECT_EQ(a.totals.cache.accesses, b.totals.cache.accesses);
  EXPECT_EQ(a.totals.cache.hits, b.totals.cache.hits);
  EXPECT_EQ(a.totals.cache.misses, b.totals.cache.misses);
  EXPECT_EQ(a.totals.modeled_pass_seconds, b.totals.modeled_pass_seconds);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
}

TEST(AmcGpu, InlineLogVariantIsBitIdentical) {
  const auto cube = random_cube(10, 10, 9, 3);
  const StructuringElement se = StructuringElement::square(1);
  AmcGpuOptions with_log = fast_options();
  AmcGpuOptions inline_log = fast_options();
  inline_log.precompute_log = false;
  const AmcGpuReport a = morphology_gpu(cube, se, with_log);
  const AmcGpuReport b = morphology_gpu(cube, se, inline_log);
  for (std::size_t i = 0; i < a.morph.mei.size(); ++i) {
    EXPECT_EQ(a.morph.mei[i], b.morph.mei[i]) << i;
    EXPECT_EQ(a.morph.db[i], b.morph.db[i]) << i;
  }
}

TEST(AmcGpu, UnfusedNeighborsMatchWithinAccumulationTolerance) {
  const auto cube = random_cube(10, 8, 8, 4);
  const StructuringElement se = StructuringElement::square(1);
  AmcGpuOptions fused = fast_options();
  AmcGpuOptions unfused = fast_options();
  unfused.fuse_neighbors = false;
  const AmcGpuReport a = morphology_gpu(cube, se, fused);
  const AmcGpuReport b = morphology_gpu(cube, se, unfused);
  // Different float accumulation order: close but not bitwise.
  for (std::size_t i = 0; i < a.morph.db.size(); ++i) {
    EXPECT_NEAR(b.morph.db[i], a.morph.db[i],
                1e-4f * std::max(1.f, a.morph.db[i]));
  }
}

TEST(AmcGpu, UnfusedUsesManyMorePasses) {
  const auto cube = random_cube(8, 8, 8, 5);
  const StructuringElement se = StructuringElement::square(1);
  AmcGpuOptions fused = fast_options();
  AmcGpuOptions unfused = fast_options();
  unfused.fuse_neighbors = false;
  const AmcGpuReport a = morphology_gpu(cube, se, fused);
  const AmcGpuReport b = morphology_gpu(cube, se, unfused);
  auto cumdist_passes = [](const AmcGpuReport& r) {
    for (const auto& [name, stats] : r.stages) {
      if (name == kStageCumulativeDistance) return stats.passes;
    }
    return std::uint64_t{0};
  };
  // Per band group: one fused pass vs one pass per SE neighbor (9), plus
  // the shared clear pass.
  EXPECT_EQ(cumdist_passes(a), 1u + 2u);       // clear + 2 groups
  EXPECT_EQ(cumdist_passes(b), 1u + 2u * 9u);  // clear + 2 groups x 9 neighbors
}

TEST(AmcGpu, ReportsAllSixStagesInPipelineOrder) {
  const auto cube = random_cube(8, 8, 8, 6);
  const AmcGpuReport report =
      morphology_gpu(cube, StructuringElement::square(1), fast_options());
  ASSERT_EQ(report.stages.size(), 6u);
  EXPECT_EQ(report.stages[0].first, kStageUpload);
  EXPECT_EQ(report.stages[1].first, kStageNormalization);
  EXPECT_EQ(report.stages[2].first, kStageCumulativeDistance);
  EXPECT_EQ(report.stages[3].first, kStageMaxMin);
  EXPECT_EQ(report.stages[4].first, kStageSid);
  EXPECT_EQ(report.stages[5].first, kStageDownload);
  for (const auto& [name, stats] : report.stages) {
    EXPECT_GT(stats.modeled_seconds, 0.0) << name;
  }
  EXPECT_GT(report.modeled_seconds, 0.0);
}

TEST(AmcGpu, PassCountMatchesPipelineStructure) {
  const auto cube = random_cube(8, 8, 16, 7);  // 4 band groups
  const AmcGpuReport report =
      morphology_gpu(cube, StructuringElement::square(1), fast_options());
  const int groups = 4;
  // normalization: clear + sum x groups + normalize x groups + log x groups
  std::uint64_t expected_norm = 1 + 3 * groups;
  // cumdist: clear + groups fused passes; minmax: 1; mei: clear + groups.
  std::uint64_t expected_total = expected_norm + (1 + groups) + 1 + (1 + groups);
  EXPECT_EQ(report.totals.passes, expected_total);
}

TEST(AmcGpu, VideoMemoryFullyReleasedAfterRun) {
  const auto cube = random_cube(12, 12, 8, 8);
  AmcGpuOptions opt = fast_options();
  const AmcGpuReport report =
      morphology_gpu(cube, StructuringElement::square(1), opt);
  (void)report;
  // The device is internal; memory hygiene is observable through a second
  // run with a budget that only fits if everything was released.
  AmcGpuOptions tight = fast_options();
  tight.profile.video_memory_bytes = 2 * 1024 * 1024;
  EXPECT_NO_THROW(morphology_gpu(cube, StructuringElement::square(1), tight));
}

TEST(AmcGpu, LargerSeWorksEndToEnd) {
  const auto cube = random_cube(14, 14, 8, 9);
  const StructuringElement se = StructuringElement::square(2);  // 5x5
  const MorphOutputs cpu = morphology_vectorized(cube, se);
  const AmcGpuReport gpu = morphology_gpu(cube, se, fast_options());
  for (std::size_t i = 0; i < cpu.mei.size(); ++i) {
    EXPECT_EQ(gpu.morph.mei[i], cpu.mei[i]) << i;
  }
}

TEST(AmcGpu, ChunkedLargerSeMatchesUnchunked) {
  const auto cube = random_cube(18, 18, 8, 10);
  const StructuringElement se = StructuringElement::square(2);
  AmcGpuOptions chunked = fast_options();
  chunked.chunk_texel_budget = 18 * 12;
  const AmcGpuReport a = morphology_gpu(cube, se, fast_options());
  const AmcGpuReport b = morphology_gpu(cube, se, chunked);
  EXPECT_GT(b.chunk_count, 1u);
  for (std::size_t i = 0; i < a.morph.mei.size(); ++i) {
    EXPECT_EQ(a.morph.mei[i], b.morph.mei[i]) << i;
  }
}

TEST(AmcGpu, TransferTotalsMatchStageTimes) {
  const auto cube = random_cube(8, 8, 8, 11);
  const AmcGpuReport report =
      morphology_gpu(cube, StructuringElement::square(1), fast_options());
  double upload = 0, download = 0;
  for (const auto& [name, stats] : report.stages) {
    if (name == kStageUpload) upload = stats.modeled_seconds;
    if (name == kStageDownload) download = stats.modeled_seconds;
  }
  EXPECT_DOUBLE_EQ(upload, report.totals.transfer.modeled_upload_seconds);
  EXPECT_DOUBLE_EQ(download, report.totals.transfer.modeled_download_seconds);
}


TEST(AmcGpu, IndexStreamMatchesOffsetDerivedIndices) {
  const auto cube = random_cube(12, 12, 8, 20);
  const StructuringElement se = StructuringElement::square(1);
  AmcGpuOptions opt = fast_options();
  opt.emit_index_stream = true;
  const AmcGpuReport report = morphology_gpu(cube, se, opt);
  ASSERT_EQ(report.index_stream.size(), cube.pixel_count());
  for (std::size_t i = 0; i < report.index_stream.size(); ++i) {
    EXPECT_EQ(report.index_stream[i].first, report.morph.erosion_index[i]) << i;
    EXPECT_EQ(report.index_stream[i].second, report.morph.dilation_index[i]) << i;
  }
}

TEST(AmcGpu, IndexStreamOffByDefault) {
  const auto cube = random_cube(8, 8, 8, 21);
  const AmcGpuReport report =
      morphology_gpu(cube, StructuringElement::square(1), fast_options());
  EXPECT_TRUE(report.index_stream.empty());
}

TEST(AmcGpu, ChunkCostsCoverEveryChunk) {
  const auto cube = random_cube(20, 20, 8, 22);
  AmcGpuOptions opt = fast_options();
  opt.chunk_texel_budget = 20 * 9;
  const AmcGpuReport report =
      morphology_gpu(cube, StructuringElement::square(1), opt);
  ASSERT_EQ(report.chunk_costs.size(), report.chunk_count);
  double total = 0;
  for (const auto& c : report.chunk_costs) {
    EXPECT_GT(c.upload_seconds, 0.0);
    EXPECT_GT(c.pass_seconds, 0.0);
    EXPECT_GT(c.download_seconds, 0.0);
    total += c.upload_seconds + c.pass_seconds + c.download_seconds;
  }
  EXPECT_NEAR(total, report.modeled_seconds, 1e-12);
}

TEST(AmcGpu, OverlappedScheduleNeverSlower) {
  const auto cube = random_cube(24, 24, 8, 23);
  AmcGpuOptions opt = fast_options();
  opt.chunk_texel_budget = 24 * 9;
  const AmcGpuReport report =
      morphology_gpu(cube, StructuringElement::square(1), opt);
  EXPECT_GT(report.chunk_count, 1u);
  const double overlapped = report.modeled_overlapped_seconds();
  EXPECT_LE(overlapped, report.modeled_seconds + 1e-12);
  // With several chunks the pipeline must actually help.
  EXPECT_LT(overlapped, report.modeled_seconds);
  // And it cannot beat the slowest stage's total.
  double upload = 0;
  for (const auto& c : report.chunk_costs) upload += c.upload_seconds;
  EXPECT_GE(overlapped, upload);
}

TEST(AmcGpu, SingleChunkOverlapEqualsSerial) {
  const auto cube = random_cube(10, 10, 8, 24);
  const AmcGpuReport report =
      morphology_gpu(cube, StructuringElement::square(1), fast_options());
  ASSERT_EQ(report.chunk_count, 1u);
  EXPECT_NEAR(report.modeled_overlapped_seconds(), report.modeled_seconds, 1e-12);
}


#if HS_TRACE_ENABLED
TEST(AmcGpu, TraceEmitsSixStageSpansOncePerChunk) {
  trace::reset();
  trace::set_enabled(true);
  const auto cube = random_cube(20, 16, 8, 40);
  AmcGpuOptions opt = fast_options();
  opt.chunk_texel_budget = 20 * 8;  // force several chunks
  const AmcGpuReport report =
      morphology_gpu(cube, StructuringElement::square(1), opt);
  trace::set_enabled(false);
  ASSERT_GT(report.chunk_count, 1u);

  std::map<std::string, std::size_t> stage_spans;
  std::size_t chunk_spans = 0, pipeline_spans = 0;
  for (const auto& e : trace::snapshot()) {
    EXPECT_GE(e.dur_ns, 0) << e.name;
    if (e.cat == "stage") ++stage_spans[e.name];
    if (e.cat == "chunk") ++chunk_spans;
    if (e.cat == "pipeline") ++pipeline_spans;
  }

  EXPECT_EQ(pipeline_spans, 1u);
  EXPECT_EQ(chunk_spans, report.chunk_count);
  const char* const kStages[] = {kStageUpload,  kStageNormalization,
                                 kStageCumulativeDistance, kStageMaxMin,
                                 kStageSid,     kStageDownload};
  ASSERT_EQ(stage_spans.size(), 6u);
  for (const char* stage : kStages) {
    EXPECT_EQ(stage_spans[stage], report.chunk_count)
        << "stage span count for " << stage;
  }
}
#endif  // HS_TRACE_ENABLED

TEST(AmcGpu, HalfPrecisionCloseToFp32AndCheaper) {
  const auto cube = random_cube(16, 16, 12, 30);
  const StructuringElement se = StructuringElement::square(1);
  const AmcGpuReport fp32 = morphology_gpu(cube, se, fast_options());
  AmcGpuOptions half = fast_options();
  half.half_precision = true;
  const AmcGpuReport fp16 = morphology_gpu(cube, se, half);

  // Halved stream texture traffic.
  EXPECT_LT(fp16.totals.transfer.upload_bytes,
            fp32.totals.transfer.upload_bytes);
  // Where fp16 keeps the same erosion/dilation selections, the MEI is
  // within quantization error; where a near-tie flips the selection, the
  // MEI legitimately changes (a different pixel pair is compared). Flips
  // must stay rare.
  std::size_t flips = 0;
  for (std::size_t i = 0; i < fp32.morph.mei.size(); ++i) {
    if (fp16.morph.erosion_index[i] != fp32.morph.erosion_index[i] ||
        fp16.morph.dilation_index[i] != fp32.morph.dilation_index[i]) {
      ++flips;
      continue;
    }
    EXPECT_NEAR(fp16.morph.mei[i], fp32.morph.mei[i],
                2e-2f * std::max(1.f, fp32.morph.mei[i]) + 2e-3f)
        << i;
  }
  EXPECT_LE(flips, fp32.morph.mei.size() / 20);
}

}  // namespace
}  // namespace hs::core
