// The serving workloads. Both drive one hs.net.v1 connection from the
// benchmark's own generator into an in-process net::NetServer, whose
// backend is the TimedBackend decorator around the execution tier:
//
//   sensor-stream  open loop, seeded Poisson arrivals at a fixed rate ->
//                  serve::Server (1 worker, hsi-served's default caches);
//                  64x64x32 scenes, 2/3 morphology + 1/3 classify, about a
//                  quarter exact repeats of earlier requests.
//   fleet-tiny     closed loop with a fixed window -> shard::Router with 2
//                  hsi-served --worker shards of 1 worker each; 32x32x16
//                  morphology jobs, every seed unique.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "generator.hpp"
#include "host.hpp"
#include "layerbench.hpp"
#include "net/client.hpp"
#include "net/net_server.hpp"
#include "net/protocol.hpp"
#include "probes.hpp"
#include "schedule.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "shard/router.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "timed_backend.hpp"

namespace lb {

namespace {

namespace sv = hs::serve;

// Offered load of sensor-stream, requests per second: about a third of the
// 57-61 jobs/s its serving stack (1 server worker) completed under overload
// when the benchmark was written, leaving headroom for the host's slow
// spells; see README.md.
constexpr double kSensorRate = 20;
constexpr std::size_t kFleetWindow = 4;
constexpr std::size_t kFleetShards = 2;
// Per-shard result and scene cache budget. Every fleet-tiny job is unique,
// so the caches never hit; a small budget fills within the first seconds,
// which keeps the workers' peak RSS independent of how many jobs a run
// completes.
constexpr std::uint64_t kFleetWorkerCacheMb = 4;
// Memory is read when this request is sent: the serving processes keep a
// record of every job they served, so a figure taken at the end of a run
// would grow with how many jobs the host's speed let the run complete.
constexpr std::size_t kRssMarkRequest = 1000;
constexpr int kSensorSetups = 7;
constexpr int kFleetSetups = 7;
constexpr std::size_t kFleetWarmupPerShard = 8;
constexpr double kDrainSeconds = 60;
constexpr std::uint64_t kWarmupIdBase = 1ull << 40;
constexpr std::uint64_t kWarmupSeedStream = 0x5741524d;  // "WARM"

sv::ServerOptions served_defaults() {
  // hsi-served's defaults: one worker, queue depth 64, 64 MiB result and
  // scene caches, witness hashes instead of payloads.
  sv::ServerOptions o;
  o.workers = 1;
  o.admission.max_queue_depth = 64;
  o.keep_payloads = false;
  o.result_cache_bytes = 64ull << 20;
  o.scene_cache_bytes = 64ull << 20;
  return o;
}

/// NetServer -> TimedBackend -> (Server | Router), plus the client end.
class Stack {
 public:
  Stack(const RunConfig& cfg, bool sharded, int instance) {
    hs::serve::JobBackend* backend = nullptr;
    if (sharded) {
      hs::shard::RouterOptions ropt;
      ropt.shards = kFleetShards;
      ropt.worker_cmd = cfg.served_path;
      ropt.state_dir = cfg.out_dir + "/shards-" + std::to_string(instance);
      ropt.worker_threads = 1;
      ropt.worker_cache_mb = kFleetWorkerCacheMb;
      router_ = std::make_unique<hs::shard::Router>(ropt);
      const Clock::time_point t0 = Clock::now();
      router_->start();
      spawn_s = seconds_between(t0, Clock::now());
      backend = router_.get();
    } else {
      server_ = std::make_unique<sv::Server>(served_defaults());
      backend = server_.get();
    }
    timed_ = std::make_unique<TimedBackend>(*backend);
    front_ = std::make_unique<hs::net::NetServer>(*timed_, hs::net::NetServerOptions{});
    front_->start();
    std::string error;
    if (!client_.connect("127.0.0.1", front_->port(), &error)) {
      throw std::runtime_error("connect: " + error);
    }
  }

  ~Stack() { shutdown(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Closes the connection, drains the front door and the backend, and
  /// (sharded) stops the worker processes. Idempotent.
  void shutdown() {
    client_.close();
    if (front_) front_->stop(/*drain=*/true);
    front_.reset();
    timed_.reset();
    if (server_) server_->shutdown(/*drain=*/true);
    if (router_) router_->shutdown(/*drain=*/true);
  }

  hs::net::Client& client() { return client_; }
  sv::Server* server() { return server_.get(); }
  hs::shard::Router* router() { return router_.get(); }
  TimedBackend& timed() { return *timed_; }

  double spawn_s = 0;

 private:
  std::unique_ptr<sv::Server> server_;
  std::unique_ptr<hs::shard::Router> router_;
  std::unique_ptr<TimedBackend> timed_;
  std::unique_ptr<hs::net::NetServer> front_;
  hs::net::Client client_;
};

/// Sends one request and waits for its terminal frame; true when Done.
bool round_trip(hs::net::Client& client, const sv::JobSpec& spec, std::uint64_t id) {
  if (!client.send_line(sv::to_request_line(spec, id))) return false;
  for (;;) {
    const std::optional<std::string> frame = client.read_frame(kDrainSeconds);
    if (!frame) return false;
    const auto r = hs::net::parse_response_frame(*frame);
    if (!r || r->type == "error") return false;
    if (r->terminal() && r->has_client_id && r->client_id == id) {
      return r->type == "result" && sv::parse_job_state(r->state) == sv::JobState::Done;
    }
  }
}

std::vector<sv::JobSpec> warmup_specs(std::uint64_t seed, Stack& stack) {
  std::vector<sv::JobSpec> specs;
  const std::uint64_t warm_seed = seed ^ kWarmupSeedStream;
  if (stack.router() != nullptr) {
    // kFleetWarmupPerShard jobs homed on each shard.
    std::map<std::size_t, std::size_t> homed;
    for (std::uint64_t i = 0; specs.size() < kFleetShards * kFleetWarmupPerShard && i < 10000;
         ++i) {
      sv::JobSpec spec = fleet_job(warm_seed, i);
      if (++homed[stack.router()->shard_for(spec)] <= kFleetWarmupPerShard) {
        specs.push_back(std::move(spec));
      }
    }
  } else {
    for (const PlannedJob& job : sensor_mix(warm_seed, 8)) {
      const bool have = std::any_of(specs.begin(), specs.end(), [&](const sv::JobSpec& s) {
        return s.kind == job.spec.kind;
      });
      if (!have) specs.push_back(job.spec);
    }
  }
  return specs;
}

struct SetUp {
  std::unique_ptr<Stack> stack;
  std::vector<double> cpu_s;  ///< CPU time of each counted set-up
  std::vector<double> spawn_s;
};

void warm_up(const RunConfig& cfg, Stack& stack) {
  std::uint64_t id = kWarmupIdBase;
  for (const sv::JobSpec& spec : warmup_specs(cfg.seed, stack)) {
    if (!round_trip(stack.client(), spec, id++)) {
      throw std::runtime_error("warm-up request failed");
    }
  }
}

/// Builds and warms up the stack `counted` times, tearing each one down
/// again so its shard workers are reaped and their CPU time is exact; then
/// builds and warms the stack the measurement uses. A counted set-up's CPU
/// time covers this process and its shard workers' whole lives.
SetUp set_up(const RunConfig& cfg, bool sharded, int counted) {
  SetUp s;
  for (int k = 0; k <= counted; ++k) {
    const double cpu0 = self_cpu_seconds() + children_cpu_seconds();
    auto stack = std::make_unique<Stack>(cfg, sharded, k);
    warm_up(cfg, *stack);
    s.spawn_s.push_back(stack->spawn_s);
    if (k == counted) {
      s.stack = std::move(stack);
      break;
    }
    stack.reset();
    s.cpu_s.push_back(self_cpu_seconds() + children_cpu_seconds() - cpu0);
  }
  return s;
}

struct Phase {
  GeneratorRun run;
  std::vector<sv::JobSpec> specs;  ///< index-aligned with run.requests
  std::vector<std::string> lines;
  double cpu_s = 0;
  /// Peak RSS of this process plus its largest shard worker, read when
  /// request kRssMarkRequest is sent (at the phase's end if it never is).
  double peak_rss_mb = 0;
  /// Growth of the serving processes' RSS per request after the mark.
  double rss_kb_per_job = 0;
};

std::vector<int> shard_pids(Stack& stack) {
  std::vector<int> pids;
  if (stack.router() == nullptr) return pids;
  for (const auto& s : stack.router()->shard_stats()) pids.push_back(s.pid);
  return pids;
}

double process_tree_cpu(const std::vector<int>& pids) {
  double cpu = self_cpu_seconds();
  for (int pid : pids) cpu += pid_cpu_seconds(pid);
  return cpu;
}

double process_tree_peak_rss_mb(const std::vector<int>& pids) {
  double largest = 0;
  for (int pid : pids) largest = std::max(largest, pid_rss_mb(pid, true));
  return pid_rss_mb(0, true) + largest;
}

/// Resident set of the processes that run the jobs: the shard workers, or
/// this process when the server is in-process.
double serving_rss_mb(const std::vector<int>& pids) {
  if (pids.empty()) return pid_rss_mb(0, false);
  double sum = 0;
  for (int pid : pids) sum += pid_rss_mb(pid, false);
  return sum;
}

using Drive = std::function<GeneratorRun(Transport&, const LineFor&)>;

/// Runs one measurement phase; `specs_from(i)` is request i's job.
Phase run_phase(Stack& stack, const std::function<sv::JobSpec(std::size_t)>& specs_from,
                const Drive& drive) {
  Phase phase;
  const std::vector<int> pids = shard_pids(stack);
  double mark_rss_mb = 0;
  const LineFor line_for = [&](std::size_t i) {
    if (i == kRssMarkRequest) {
      phase.peak_rss_mb = process_tree_peak_rss_mb(pids);
      mark_rss_mb = serving_rss_mb(pids);
    }
    if (phase.specs.size() <= i) phase.specs.resize(i + 1);
    phase.specs[i] = specs_from(i);
    std::string line = sv::to_request_line(phase.specs[i], i);
    if (phase.lines.size() <= i) phase.lines.resize(i + 1);
    phase.lines[i] = line;
    return line;
  };
  const double cpu0 = process_tree_cpu(pids);
  ClientTransport transport(stack.client());
  phase.run = drive(transport, line_for);
  phase.cpu_s = process_tree_cpu(pids) - cpu0;
  if (phase.peak_rss_mb == 0) {
    phase.peak_rss_mb = process_tree_peak_rss_mb(pids);
  } else {
    const double jobs = static_cast<double>(phase.run.requests.size() - kRssMarkRequest);
    phase.rss_kb_per_job = (serving_rss_mb(pids) - mark_rss_mb) * 1024 / jobs;
  }
  return phase;
}

std::uint64_t stats_value(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 3, nullptr, 10);
}

double ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(total);
}

/// The untraced phase's metrics: the end-to-end ones, and the client-side
/// wall-clock figures, which are per-layer because on a shared host they
/// vary between runs far more than any useful bound.
void phase_metrics(const Phase& p, const SetUp& setup, Metrics& e2e, Metrics& layer) {
  std::vector<double> latency;
  for (const RequestOutcome& r : p.run.requests) {
    latency.push_back(r.done() ? r.latency_ms() : std::numeric_limits<double>::infinity());
  }
  const auto done = static_cast<double>(p.run.succeeded());
  e2e["cpu_ms_per_job"] = {p.cpu_s * 1e3 / done, "ms"};
  e2e["setup_s"] = {median(setup.cpu_s), "s"};
  e2e["peak_rss_mb"] = {p.peak_rss_mb, "MiB"};
  layer["gen.jobs_per_s"].value = done / p.run.last_recv_s;
  layer["gen.latency_p50_ms"].value = median(latency);
  layer["serve.rss_kb_per_job"].value = p.rss_kb_per_job;
}

/// Raw samples of the untraced phase, beside the spans of a traced run.
void write_samples(const RunConfig& cfg, const Phase& p, const SetUp& setup) {
  std::vector<double> latency, exec, recv;
  for (const RequestOutcome& r : p.run.requests) {
    if (!r.done()) continue;
    latency.push_back(r.latency_ms());
    recv.push_back(r.recv_s);
    if (!r.response.cached) exec.push_back(r.response.exec_ms);
  }
  write_samples_json(cfg.out_dir + "/" + cfg.workload + "-samples.json",
                     {{"latency_ms", latency}, {"exec_ms", exec}, {"recv_s", recv},
                      {"setup_cpu_s", setup.cpu_s}, {"phase_cpu_s", {p.cpu_s}}});
}

/// Splits every answered request of a phase into its layers, records the
/// spans, and fills the serve/net/shard/gen metrics from them.
void layer_metrics(const Phase& p, const std::map<std::uint64_t, TimedBackend::JobTimes>& times,
                   std::uint64_t request_base, SpanLog& log, Metrics& layer,
                   RunResult& result) {
  const auto ms = [&](Clock::time_point tp) { return seconds_between(p.run.start, tp) * 1e3; };
  std::vector<double> front, hop, queue, exec, late, latency, submit_us, decode_us, encode_us;
  for (std::size_t i = 0; i < p.run.requests.size(); ++i) {
    const RequestOutcome& r = p.run.requests[i];
    if (!r.sent) continue;
    late.push_back(r.lateness_ms());
    latency.push_back(r.done() ? r.latency_ms() : std::numeric_limits<double>::infinity());
    if (!r.answered || r.response.type != "result") continue;
    const auto t = times.find(r.response.job);
    if (t == times.end() || !t->second.submitted) {
      result.problem("no decorator stamps for job " + std::to_string(r.response.job));
      continue;
    }
    const double due = r.due_s * 1e3, send = r.send_s * 1e3, recv = r.recv_s * 1e3;
    const double sb = ms(t->second.submit_begin), term = ms(t->second.terminal);
    const double q = r.response.queue_ms, run = r.response.run_ms;
    const std::uint64_t id = request_base + i + 1;
    const int root = log.add("request", id, -1, due, recv);
    log.add("gen.late", id, root, due, send);
    log.add("net.in", id, root, send, sb);
    const int backend = log.add("backend", id, root, sb, term);
    // Worker-side durations are exact; their placement assumes the return
    // hop is instantaneous.
    log.add("serve.queue", id, backend, term - run - q, term - run);
    log.add("serve.run", id, backend, term - run, term);
    log.add("net.out", id, root, term, recv);
    front.push_back((sb - send) + (recv - term));
    hop.push_back((term - sb) - (q + run));
    queue.push_back(q);
    exec.push_back(r.response.exec_ms);
    submit_us.push_back((ms(t->second.submit_end) - sb) * 1e3);

    // The wire codecs, timed on this request's own frames.
    const Clock::time_point d0 = Clock::now();
    const auto parsed = sv::parse_request_frame(p.lines[i]);
    decode_us.push_back(seconds_between(d0, Clock::now()) * 1e6);
    if (!parsed) result.problem("request frame " + std::to_string(i) + " does not parse");
    sv::JobResult jr;
    jr.id = r.response.job;
    jr.name = r.response.name;
    jr.state = sv::JobState::Done;
    jr.queue_seconds = q / 1e3;
    jr.run_seconds = run / 1e3;
    jr.exec_seconds = r.response.exec_ms / 1e3;
    jr.modeled_seconds = r.response.modeled_ms / 1e3;
    jr.chunk_count = r.response.chunks;
    jr.output_hash = std::strtoull(r.response.output_hash.c_str(), nullptr, 16);
    const Clock::time_point e0 = Clock::now();
    const std::string frame = hs::net::result_frame(jr, true, i);
    encode_us.push_back(seconds_between(e0, Clock::now()) * 1e6);
    if (frame.empty()) result.problem("empty result frame");
  }
  const auto p90 = [](const std::vector<double>& v) { return percentile(v, 0.9).value_or(0); };
  layer["net.front_ms_p50"].value = median(front);
  layer["shard.hop_ms_p50"].value = median(hop);
  layer["serve.queue_ms_p50"].value = median(queue);
  layer["serve.queue_ms_p90"].value = p90(queue);
  layer["serve.exec_ms_p50"].value = median(exec);
  layer["serve.submit_us_p50"].value = median(submit_us);
  layer["net.decode_us"].value = median(decode_us);
  layer["net.encode_us"].value = median(encode_us);
  layer["gen.late_ms_p90"].value = p90(late);
  layer["gen.latency_p90_ms"].value = p90(latency);
}

/// Recomputes the witness of every distinct Done job with a direct
/// pipeline call and counts the responses that disagree.
std::uint64_t verify_witnesses(const std::vector<const Phase*>& phases, RunResult& result) {
  std::map<std::pair<int, std::uint64_t>, sv::JobSpec> unique;
  for (const Phase* p : phases) {
    for (std::size_t i = 0; i < p->run.requests.size(); ++i) {
      if (p->run.requests[i].done()) {
        const sv::JobSpec& s = p->specs[i];
        unique.emplace(std::make_pair(static_cast<int>(s.kind), s.scene.seed), s);
      }
    }
  }
  std::vector<std::pair<std::pair<int, std::uint64_t>, sv::JobSpec>> work(unique.begin(),
                                                                           unique.end());
  std::vector<std::uint64_t> expected(work.size());
  std::atomic<std::size_t> next{0};
  const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < work.size(); i = next++) {
        expected[i] = expected_output_hash(work[i].second);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::map<std::pair<int, std::uint64_t>, std::string> want;
  for (std::size_t i = 0; i < work.size(); ++i) want[work[i].first] = hex(expected[i]);

  std::uint64_t mismatches = 0;
  for (const Phase* p : phases) {
    for (std::size_t i = 0; i < p->run.requests.size(); ++i) {
      const RequestOutcome& r = p->run.requests[i];
      if (!r.done()) continue;
      const sv::JobSpec& s = p->specs[i];
      if (r.response.output_hash != want[{static_cast<int>(s.kind), s.scene.seed}]) {
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    result.problem(std::to_string(mismatches) + " served witnesses differ from direct calls");
  }
  return mismatches;
}

RunResult run_serving(const RunConfig& cfg, bool sharded) {
  RunResult result;
  result.per_layer = zero_layer_metrics();
  Metrics& layer = result.per_layer;

  SetUp setup = set_up(cfg, sharded, sharded ? kFleetSetups : kSensorSetups);
  Stack& stack = *setup.stack;
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;

  // Inputs: sensor-stream's whole schedule is fixed up front; a traced run
  // measures its first half untraced and its second half traced.
  std::vector<double> due;
  std::vector<PlannedJob> mix;
  if (!sharded) {
    due = poisson_schedule(cfg.seed, kSensorRate, cfg.seconds);
    mix = sensor_mix(cfg.seed, due.size());
  }
  const auto drive = [&](double from_s, double to_s, std::size_t offset) -> Drive {
    if (sharded) {
      return [=](Transport& t, const LineFor& line_for) {
        return run_closed_loop(t, kFleetWindow, to_s - from_s, line_for, kDrainSeconds);
      };
    }
    return [=, &due](Transport& t, const LineFor& line_for) {
      std::vector<double> part;
      for (std::size_t i = offset; i < due.size() && due[i] < to_s; ++i) {
        part.push_back(due[i] - from_s);
      }
      return run_open_loop(t, part, line_for, kDrainSeconds);
    };
  };
  const auto specs_from = [&](std::size_t offset) {
    return std::function<sv::JobSpec(std::size_t)>([&, offset](std::size_t i) {
      return sharded ? fleet_job(cfg.seed, offset + i) : mix[offset + i].spec;
    });
  };

  const sv::Server* server = stack.server();
  const auto rc0 = server ? server->result_cache_stats() : hs::cache::CacheStats{};
  const auto sc0 = server ? server->scene_cache_stats() : hs::cache::CacheStats{};
  const auto ps0 = server ? server->program_store_stats()
                          : hs::gpusim::SharedProgramStore::Stats{};

  const Phase base = run_phase(stack, specs_from(0), drive(0, untraced_s, 0));
  std::vector<const Phase*> phases{&base};
  std::optional<Phase> traced;
  if (cfg.trace) {
    const std::size_t offset = base.run.requests.size();
    hs::trace::reset();
    hs::trace::set_enabled(true);
    traced = run_phase(stack, specs_from(offset), drive(untraced_s, cfg.seconds, offset));
    hs::trace::set_enabled(false);
    hs::trace::write_chrome_trace_file(cfg.out_dir + "/" + cfg.workload + "-trace.json");
    hs::trace::reset();
    phases.push_back(&*traced);
  }

  if (server != nullptr) {
    const auto rc = server->result_cache_stats();
    const auto sc = server->scene_cache_stats();
    const auto ps = server->program_store_stats();
    layer["cache.result_hit_ratio"].value = ratio(rc.hits - rc0.hits, rc.misses - rc0.misses);
    layer["cache.scene_hit_ratio"].value = ratio(sc.hits - sc0.hits, sc.misses - sc0.misses);
    layer["cache.program_hit_ratio"].value = ratio(ps.hits - ps0.hits, ps.misses - ps0.misses);
    layer["cache.result_evictions"].value = static_cast<double>(rc.evictions - rc0.evictions);
  }
  if (stack.router() != nullptr) {
    const auto rs = stack.router()->stats();
    layer["shard.deaths"].value = static_cast<double>(rs.deaths);
    layer["shard.rerouted"].value = static_cast<double>(rs.rerouted);
    if (rs.deaths != 0 || rs.rerouted != 0) result.problem("a shard died during the run");
  }
  // Every job, warm-ups included, must have reached the front door once.
  for (const auto& [id, t] : stack.timed().times()) {
    if (t.terminal_calls != 1) {
      result.problem("job " + std::to_string(id) + " terminated " +
                     std::to_string(t.terminal_calls) + " times");
    }
  }
  const auto times = stack.timed().times();
  std::vector<std::string> stats_files;
  if (stack.router() != nullptr) {
    for (std::size_t k = 0; k < kFleetShards; ++k) {
      stats_files.push_back(stack.router()->shard_stats_file(k));
    }
  }
  stack.shutdown();
  if (!stats_files.empty()) {
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    for (const std::string& path : stats_files) {
      std::ifstream in(path);
      const std::string text((std::istreambuf_iterator<char>(in)), {});
      hits += stats_value(text, "cache_hits");
      misses += stats_value(text, "cache_misses");
      evictions += stats_value(text, "cache_evictions");
    }
    layer["cache.result_hit_ratio"].value = ratio(hits, misses);
    layer["cache.result_evictions"].value = static_cast<double>(evictions);
  }

  phase_metrics(base, setup, result.end_to_end, layer);
  write_samples(cfg, base, setup);

  for (const Phase* p : phases) {
    result.attempted += p->run.requests.size();
    result.failed += p->run.requests.size() - p->run.succeeded();
    if (p->run.error_frames > 0) {
      result.problem(std::to_string(p->run.error_frames) + " unmatched or error frames");
    }
  }

  if (traced) {
    SpanLog log;
    layer_metrics(*traced, times, base.run.requests.size(), log, layer, result);
    const LayerSumCheck check = check_layer_sum(log.spans(), kLayerSumToleranceMs);
    if (check.violations > 0) {
      result.problem(std::to_string(check.violations) +
                     " requests break the layer-sum invariant (max error " +
                     std::to_string(check.max_error_ms) + " ms)");
    }
    log.write_jsonl(cfg.out_dir + "/" + cfg.workload + "-spans.jsonl");
    layer["gen.sent"].value = static_cast<double>(traced->run.sent());
    layer["gen.succeeded"].value = static_cast<double>(traced->run.succeeded());
    layer["gen.failed"].value =
        static_cast<double>(traced->run.requests.size() - traced->run.succeeded());
    if (sharded) layer["shard.spawn_s"].value = median(setup.spawn_s);

    std::vector<double> base_latency, traced_latency;
    for (const RequestOutcome& r : base.run.requests) {
      if (r.done()) base_latency.push_back(r.latency_ms());
    }
    for (const RequestOutcome& r : traced->run.requests) {
      if (r.done()) traced_latency.push_back(r.latency_ms());
    }
    layer["trace.overhead_frac"].value = median(traced_latency) / median(base_latency) - 1;

    // Engine layers, by direct calls on the workload's job shape; the
    // engine's own spans are not visible across the shard process hop.
    const sv::JobSpec shape = base.specs.front();
    layer["hsi.scene_gen_s"].value = scene_gen_seconds(shape, 5);
    const hs::hsi::HyperCube cube = synthetic_scene(shape.scene.width, shape.scene.height,
                                                    shape.scene.bands, shape.scene.seed);
    layer["layers.requests"].value = static_cast<double>(check.requests);
    layer["layers.sum_err_ms"].value = check.max_error_ms;
    engine_layers(cube, cfg.seed, result);
  }

  result.failed += verify_witnesses(phases, result);
  if (!result.problems.empty() && result.failed == 0) result.failed = result.attempted;
  return result;
}

}  // namespace

RunResult run_sensor_stream(const RunConfig& cfg) { return run_serving(cfg, false); }

RunResult run_fleet_tiny(const RunConfig& cfg) { return run_serving(cfg, true); }

}  // namespace lb
