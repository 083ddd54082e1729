// Ablation: the sharded serving tier vs shard count and repeat-rate.
//
// Extends ablate_cache across process boundaries: bursts N small pipeline
// jobs at an hs::shard::Router spawning 1/2/4 hsi-served --worker
// processes, with 0%/50%/90% of submissions repeating an earlier job's
// functional spec. Because the router consistent-hashes jobs by the same
// fingerprint the result cache keys on, every repeat lands on its home
// shard and hits that shard's cache -- the cell reports per-shard routed
// counts and cache hit-rates (from the workers' --stats-file drops) to
// show the concentration, plus the witness check: each spec must report
// ONE output hash, equal to an in-process serve::Server baseline, at
// every shard count.
//
// Two supervision rows close the table: a SIGKILL of one shard mid-burst
// and a graceful drain/restart, both of which must end with every job
// terminal and the witness unchanged (requeue, never drop).
//
// Exit status is non-zero on witness drift or a dropped job, so the bench
// doubles as an end-to-end correctness gate for BENCH_shard.json.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "shard/router.hpp"
#include "trace/json_check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace hs;

serve::JobSpec spec_for(int unique_index, int size, int bands) {
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
}

/// A numeric field out of a worker's --stats-file drop; -1 when the file
/// or key is missing (a shard that respawned overwrites its drop, so the
/// last clean exit wins).
double stats_field(const std::string& path, const std::string& key) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return -1;
  std::ostringstream os;
  os << in.rdbuf();
  const auto doc = trace::json::parse(os.str(), nullptr);
  if (!doc || !doc->is(trace::json::Value::Kind::Object)) return -1;
  for (const auto& [k, v] : doc->object) {
    if (k == key && v.is(trace::json::Value::Kind::Number)) return v.number;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_output_path(argc, argv);

  util::Cli cli;
  cli.add_flag("jobs", "jobs per burst", "48");
  cli.add_flag("size", "synthetic scene edge length", "16");
  cli.add_flag("bands", "spectral bands", "8");
  cli.add_flag("served", "hsi-served binary to spawn as shard workers",
               HSI_SERVED_BIN);
  if (!cli.parse(argc, argv)) return 1;
  const int jobs = static_cast<int>(cli.get_int("jobs", 48));
  const int size = static_cast<int>(cli.get_int("size", 16));
  const int bands = static_cast<int>(cli.get_int("bands", 8));
  const std::string served = cli.get("served", HSI_SERVED_BIN);

  bench::JsonReport json("shard");
  json.add("config", "jobs", static_cast<double>(jobs));
  json.add("config", "scene_edge", static_cast<double>(size));
  json.add("config", "bands", static_cast<double>(bands));

  // The single-process witness every sharded cell must reproduce.
  std::map<std::string, std::uint64_t> expected;
  {
    serve::ServerOptions options;
    options.workers = 1;
    options.admission.max_queue_depth = static_cast<std::size_t>(jobs) + 8;
    options.keep_payloads = false;
    serve::Server server(options);
    for (int i = 0; i < jobs; ++i) server.submit(spec_for(i, size, bands));
    server.shutdown(/*drain=*/true);
    for (const serve::JobResult& r : server.results()) {
      if (r.state != serve::JobState::Done) {
        std::cerr << "baseline job " << r.name << " not done: " << r.detail
                  << "\n";
        return 1;
      }
      expected[r.name] = r.output_hash;
    }
  }

  const std::string state_root =
      "/tmp/hs-ablate-shard." + std::to_string(::getpid());
  bool witness_stable = true;
  bool all_terminal = true;

  util::Table table({"Shards", "Repeat %", "Done", "Cached", "Hit %",
                     "Per-shard routed", "Wall s", "Jobs/s", "Witness"});

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const int repeat_pct : {0, 50, 90}) {
      const int unique = std::max(1, jobs * (100 - repeat_pct) / 100);
      shard::RouterOptions ropt;
      ropt.shards = shards;
      ropt.worker_cmd = served;
      ropt.state_dir = state_root + "/s" + std::to_string(shards) + "_r" +
                       std::to_string(repeat_pct);
      ropt.worker_cache_mb = 64;
      ropt.worker_queue_depth = static_cast<std::size_t>(jobs) + 8;
      shard::Router router(ropt);
      try {
        router.start();
      } catch (const std::exception& e) {
        std::cerr << "ablate_shard: " << e.what() << "\n";
        return 1;
      }

      util::Timer timer;
      std::vector<std::uint64_t> ids;
      for (int i = 0; i < jobs; ++i) {
        ids.push_back(router.submit(spec_for(i % unique, size, bands)).id);
      }
      int done = 0, cached = 0;
      bool stable = true;
      for (const std::uint64_t id : ids) {
        const serve::JobResult r = router.wait(id);
        if (!serve::is_terminal(r.state)) all_terminal = false;
        if (r.state != serve::JobState::Done) continue;
        ++done;
        if (r.cached) ++cached;
        if (r.output_hash != expected.at(r.name)) stable = false;
      }
      const double wall = timer.seconds();
      router.shutdown(/*drain=*/true);
      witness_stable = witness_stable && stable;
      if (done != jobs) all_terminal = false;

      // Affinity evidence: how the burst spread, and each worker's own
      // cache hit-rate from its stats drop (written at clean exit).
      std::ostringstream routed;
      const std::string row = "shards_" + std::to_string(shards) + "_repeat_" +
                              std::to_string(repeat_pct);
      const auto per = router.shard_stats();
      for (std::size_t k = 0; k < per.size(); ++k) {
        routed << (k ? "/" : "") << per[k].routed;
        json.add(row, "shard" + std::to_string(k) + "_routed",
                 static_cast<double>(per[k].routed));
        json.add(row, "shard" + std::to_string(k) + "_done",
                 static_cast<double>(per[k].done));
        json.add(row, "shard" + std::to_string(k) + "_cached",
                 static_cast<double>(per[k].cached));
        const double h = stats_field(router.shard_stats_file(k), "cache_hits");
        const double m =
            stats_field(router.shard_stats_file(k), "cache_misses");
        if (h >= 0 && m >= 0) {
          json.add(row, "shard" + std::to_string(k) + "_cache_hit_rate",
                   h + m > 0 ? h / (h + m) : 0);
        }
      }
      const double throughput = wall > 0 ? done / wall : 0;
      const double hit_pct = done > 0 ? 100.0 * cached / done : 0;
      json.add(row, "shards", static_cast<double>(shards));
      json.add(row, "repeat_pct", static_cast<double>(repeat_pct));
      json.add(row, "done", static_cast<double>(done));
      json.add(row, "cached", static_cast<double>(cached));
      json.add(row, "wall_s", wall);
      json.add(row, "jobs_per_s", throughput);
      json.add(row, "witness_stable", stable ? 1.0 : 0.0);

      table.add_row({std::to_string(shards), std::to_string(repeat_pct),
                     std::to_string(done), std::to_string(cached),
                     util::Table::num(hit_pct, 1), routed.str(),
                     util::Table::num(wall, 3), util::Table::num(throughput, 1),
                     stable ? "stable" : "DRIFTED"});
    }
  }

  // Supervision rows: a crash and a graceful drain mid-burst. The
  // contract is "requeue, never drop": every job terminal, witness
  // unchanged, and for the drain no shard death at all.
  for (const bool graceful : {false, true}) {
    shard::RouterOptions ropt;
    ropt.shards = 2;
    ropt.worker_cmd = served;
    ropt.state_dir =
        state_root + std::string(graceful ? "/drain" : "/kill") + "2";
    ropt.worker_cache_mb = 64;
    ropt.worker_queue_depth = static_cast<std::size_t>(jobs) + 8;
    shard::Router router(ropt);
    try {
      router.start();
    } catch (const std::exception& e) {
      std::cerr << "ablate_shard: " << e.what() << "\n";
      return 1;
    }
    util::Timer timer;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < jobs / 2; ++i) {
      ids.push_back(router.submit(spec_for(i, size, bands)).id);
    }
    if (graceful) {
      router.restart_shard(0);
    } else {
      router.kill_shard(0);
    }
    for (int i = jobs / 2; i < jobs; ++i) {
      ids.push_back(router.submit(spec_for(i, size, bands)).id);
    }
    int done = 0;
    bool stable = true;
    for (const std::uint64_t id : ids) {
      const serve::JobResult r = router.wait(id);
      if (!serve::is_terminal(r.state)) all_terminal = false;
      if (r.state != serve::JobState::Done) continue;
      ++done;
      if (r.output_hash != expected.at(r.name)) stable = false;
    }
    const double wall = timer.seconds();
    router.shutdown(/*drain=*/true);
    const shard::Router::Stats st = router.stats();
    witness_stable = witness_stable && stable;
    if (done != jobs) all_terminal = false;
    if (graceful && st.deaths != 0) {
      std::cerr << "ablate_shard: graceful drain counted as a death\n";
      all_terminal = false;
    }

    const std::string row = graceful ? "drain_2shard" : "kill_2shard";
    json.add(row, "submitted", static_cast<double>(st.submitted));
    json.add(row, "done", static_cast<double>(done));
    json.add(row, "rerouted", static_cast<double>(st.rerouted));
    json.add(row, "deaths", static_cast<double>(st.deaths));
    json.add(row, "restarts", static_cast<double>(st.restarts));
    json.add(row, "wall_s", wall);
    json.add(row, "witness_stable", stable ? 1.0 : 0.0);
    table.add_row({"2", graceful ? "drain" : "kill", std::to_string(done),
                   "-", "-",
                   std::to_string(st.rerouted) + " rerouted",
                   util::Table::num(wall, 3), "-",
                   stable ? "stable" : "DRIFTED"});
  }

  json.add("summary", "witness_stable_all", witness_stable ? 1.0 : 0.0);
  json.add("summary", "no_silent_drops", all_terminal ? 1.0 : 0.0);

  table.print(std::cout, "Ablation: sharded serving (" + std::to_string(jobs) +
                             " jobs, " + std::to_string(size) + "x" +
                             std::to_string(size) + "x" +
                             std::to_string(bands) + ")");
  std::error_code ec;
  std::filesystem::remove_all(state_root, ec);
  if (!witness_stable) {
    std::cerr << "output hashes drifted between shard counts\n";
    return 1;
  }
  if (!all_terminal) {
    std::cerr << "some jobs were dropped or never terminalized\n";
    return 1;
  }
  json.write(json_path);
  return 0;
}
