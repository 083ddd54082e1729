// Ablation: the serving-layer result cache vs request repeat-rate.
//
// Bursts N small pipeline jobs at an hs::serve::Server where a fraction
// of the submissions repeat an earlier job's functional spec (0%, 50%,
// 90% repeat-rate), with the content-addressed result cache off and on.
// Reported per cell: wall time, sustained throughput, cache hits, and
// the witness check the cache stakes its correctness on -- every job
// sharing a spec must report ONE output hash, across live runs and cache
// hits, with the cache off and on. Throughput should be flat at 0%
// repeat (the cache can only miss) and grow with the repeat-rate; any
// hash drift fails the bench with a non-zero exit.
#include <cstdint>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hs;

  const std::string json_path = bench::json_output_path(argc, argv);

  util::Cli cli;
  cli.add_flag("jobs", "jobs per burst", "24");
  cli.add_flag("size", "synthetic scene edge length", "16");
  cli.add_flag("bands", "spectral bands", "8");
  cli.add_flag("workers", "server worker threads", "2");
  if (!cli.parse(argc, argv)) return 1;
  const int jobs = static_cast<int>(cli.get_int("jobs", 24));
  const int size = static_cast<int>(cli.get_int("size", 16));
  const int bands = static_cast<int>(cli.get_int("bands", 8));
  const std::size_t workers =
      static_cast<std::size_t>(cli.get_int("workers", 2));

  // Spec pool: distinct functional identities differ by seed and kind.
  auto spec_for = [&](int unique_index) {
    serve::JobSpec spec;
    // append(), not "u" + to_string(): GCC 12 -Wrestrict misfires on that.
    spec.name = std::string("u").append(std::to_string(unique_index));
    spec.kind = unique_index % 3 == 0
                    ? serve::JobKind::Morphology
                    : (unique_index % 3 == 1 ? serve::JobKind::Classify
                                             : serve::JobKind::Unmix);
    spec.scene.width = size;
    spec.scene.height = size;
    spec.scene.bands = bands;
    spec.scene.seed = static_cast<std::uint64_t>(100 + unique_index);
    spec.endmembers = 3;
    return spec;
  };

  bench::JsonReport json("cache");
  json.add("config", "jobs", static_cast<double>(jobs));
  json.add("config", "scene_edge", static_cast<double>(size));
  json.add("config", "bands", static_cast<double>(bands));
  json.add("config", "server_workers", static_cast<double>(workers));

  util::Table table({"Repeat %", "Cache", "Done", "Hits", "Wall s", "Jobs/s",
                     "Speedup", "Witness"});

  // spec name -> the one output hash every run of it must report.
  std::map<std::string, std::set<std::uint64_t>> hashes_by_spec;
  bool witness_stable = true;

  for (const int repeat_pct : {0, 50, 90}) {
    const int unique = std::max(1, jobs * (100 - repeat_pct) / 100);
    double off_throughput = 0;
    for (const bool cache_on : {false, true}) {
      serve::ServerOptions options;
      options.workers = workers;
      options.admission.max_queue_depth =
          static_cast<std::size_t>(jobs) + 8;  // never reject the burst
      options.keep_payloads = false;
      options.result_cache_bytes = cache_on ? (64ull << 20) : 0;
      options.scene_cache_bytes = cache_on ? (64ull << 20) : 0;
      serve::Server server(options);

      util::Timer timer;
      std::vector<std::uint64_t> ids;
      for (int i = 0; i < jobs; ++i) {
        ids.push_back(server.submit(spec_for(i % unique)).id);
      }
      server.shutdown(/*drain=*/true);
      const double wall = timer.seconds();

      int done = 0;
      for (const std::uint64_t id : ids) {
        const serve::JobResult r = server.wait(id);
        if (r.state != serve::JobState::Done) continue;
        ++done;
        hashes_by_spec[r.name].insert(r.output_hash);
      }
      const std::uint64_t hits = server.result_cache_stats().hits;
      const double throughput = wall > 0 ? done / wall : 0;
      if (!cache_on) off_throughput = throughput;
      const double speedup =
          cache_on && off_throughput > 0 ? throughput / off_throughput : 1.0;

      bool stable = true;
      for (const auto& [name, hashes] : hashes_by_spec) {
        if (hashes.size() > 1) stable = false;
      }
      witness_stable = witness_stable && stable;

      table.add_row({std::to_string(repeat_pct), cache_on ? "on" : "off",
                     std::to_string(done), std::to_string(hits),
                     util::Table::num(wall, 3), util::Table::num(throughput, 1),
                     cache_on ? util::Table::num(speedup, 2) : "-",
                     stable ? "stable" : "DRIFTED"});

      const std::string row = "repeat_" + std::to_string(repeat_pct) +
                              (cache_on ? "_on" : "_off");
      json.add(row, "repeat_pct", static_cast<double>(repeat_pct));
      json.add(row, "cache_on", cache_on ? 1.0 : 0.0);
      json.add(row, "done", static_cast<double>(done));
      json.add(row, "cache_hits", static_cast<double>(hits));
      json.add(row, "wall_s", wall);
      json.add(row, "jobs_per_s", throughput);
      json.add(row, "speedup_vs_off", speedup);
      json.add(row, "witness_stable", stable ? 1.0 : 0.0);
    }
  }
  json.add("summary", "witness_stable_all", witness_stable ? 1.0 : 0.0);

  table.print(std::cout,
              "Ablation: result cache (" + std::to_string(jobs) + " jobs, " +
                  std::to_string(size) + "x" + std::to_string(size) + "x" +
                  std::to_string(bands) + ", " + std::to_string(workers) +
                  " server workers)");
  if (!witness_stable) {
    std::cerr << "output hashes drifted between cached and live runs\n";
    return 1;
  }
  json.write(json_path);
  return 0;
}
