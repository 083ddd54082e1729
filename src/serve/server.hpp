// The batch job server (`hs::serve::Server`).
//
// Owns a pool of pipeline worker threads draining a bounded,
// priority-aware JobQueue of pipeline requests (job.hpp). Each worker
// executes one job at a time by calling the chunk-parallel GPU pipelines
// (core::morphology_gpu / core::unmix_gpu), which internally fan chunks
// out over stream::ChunkScheduler with per-worker simulated-device clones
// -- the serving layer adds *between-job* concurrency on top of the
// *within-job* chunk parallelism of PR 3.
//
// Guarantees:
//   * Admission control never throws at the client: an inadmissible job
//     (queue full, over the cost-model budget, shed, submitted after
//     shutdown, unreadable scene) comes back as a terminal
//     Rejected result with a typed reason string.
//   * Deadlines are enforced when a job is popped (expired while queued)
//     and cooperatively at every chunk boundary while it runs (expired
//     while running); both yield TimedOut.
//   * Attempts failed by an injected transient fault are retried up to
//     spec.max_retries times, then Failed.
//   * shutdown(drain=true) stops admission, completes every queued and
//     in-flight job, and joins the workers; shutdown(drain=false) cancels
//     queued jobs, requests cooperative cancellation of running ones, and
//     joins. Either way every submitted job reaches a terminal state.
//   * Determinism: a Done job's functional outputs are bit-identical to a
//     direct pipeline call with the same spec, independent of server
//     load, priorities, retries or worker count.
//
// Observability: the server maintains `serve.queue_depth` /
// `serve.in_flight` / `serve.worker_utilization` gauges,
// per-terminal-state `serve.jobs.*` counters, a `serve.retries` counter,
// and wraps every execution in a `serve.job` span (category "serve")
// carrying id/kind/priority/attempt. Latency distributions land in the
// trace histograms `serve.admission_s` (submit() decision time),
// `serve.queue_wait_s` (submission -> pop), `serve.exec_s` (attempt
// execution, jobs that ran), `serve.retry_backoff_s` (per backoff sleep)
// and `serve.total_s` (submission -> terminal, Done jobs). Every job also
// assembles an exact per-job timeline (JobResult::timeline; exported by
// serve/timeline.hpp), worker threads tag their spans/log lines/flight
// events with the running job's id via util::ScopedJobTag, and
// ServerOptions::flight_dump_dir turns job failure into a flight-recorder
// dump.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "cache/scene_cache.hpp"
#include "gpusim/compiled_program.hpp"
#include "serve/backend.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"

namespace hs::serve {

/// The retryable error class: attempts failed by one are re-run while the
/// job has retry budget left. The server's fault injector raises these;
/// everything else is treated as permanent.
class TransientFault : public std::runtime_error {
 public:
  explicit TransientFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// Cheap pre-admission resource estimate for one job, derived from the
/// cost model (closed-form operation counts; cost_model.hpp) and the
/// scene dimensions -- an ENVI scene is estimated from its header alone,
/// without touching the payload.
struct JobEstimate {
  std::uint64_t pixels = 0;
  /// Host-side working set: the float cube plus functional outputs.
  std::uint64_t bytes = 0;
  /// Cost-model seconds on the reference CPU profile; a stable, hardware-
  /// independent admission currency (NOT a wall-clock prediction for the
  /// simulator).
  double seconds = 0;
};

/// Throws hsi::EnviError when the scene is an unreadable ENVI header;
/// submit() converts that into a Rejected{bad scene} outcome.
JobEstimate estimate_job(const JobSpec& spec);

struct AdmissionPolicy {
  /// Maximum queued (not yet running) jobs.
  std::size_t max_queue_depth = 64;
  /// Reject jobs whose estimate exceeds these; 0 disables a limit.
  double max_estimated_seconds = 0;
  std::uint64_t max_estimated_bytes = 0;
  /// When the queue is full, admit a higher-priority job by shedding the
  /// lowest-priority (youngest within that class) queued job.
  bool shed_low_priority = true;
};

struct ServerOptions {
  /// Server worker threads, each running one job at a time (>= 1).
  std::size_t workers = 1;
  AdmissionPolicy admission;
  /// Keep the functional payloads (mei/labels) in JobResults. Benches
  /// serving many jobs turn this off; the output_hash stays either way.
  bool keep_payloads = true;
  /// Byte budget of the content-addressed result cache (0 = off, the
  /// library default; hsi-served turns it on). When enabled, a Done
  /// result of a cacheable job (synthetic scene or readable ENVI scene,
  /// whose bytes are content-hashed; see serve::is_cacheable)
  /// is stored under its job_fingerprint, and a later job with the same
  /// fingerprint is served from the cache: state Done, `cached` set,
  /// attempts 0, and outputs bit-identical to the live run that populated
  /// the entry (same witness hash). Cache hits bypass the fault injector
  /// and retry machinery -- nothing runs.
  std::uint64_t result_cache_bytes = 0;
  /// Byte budget of the synthetic-scene memo cache (0 = off): repeated
  /// (width, height, bands, seed) scenes skip regeneration even when
  /// their jobs differ otherwise.
  std::uint64_t scene_cache_bytes = 0;
  /// Transient-fault injector, called at the start of every attempt
  /// (job id, 1-based attempt). Returning true fails that attempt with a
  /// TransientFault (consuming retry budget). The callback runs on worker
  /// threads and must be thread-safe. Tests also use it as a gate: it may
  /// block to hold a job "running" deterministically.
  std::function<bool(std::uint64_t id, int attempt)> inject_fault;
  /// Base sleep before re-running an attempt failed by a transient fault,
  /// doubling per retry (base, 2*base, 4*base, ...). 0 = retry
  /// immediately. The sleep counts toward run_seconds but not
  /// exec_seconds, lands in the `serve.retry_backoff_s` histogram, and is
  /// cut short by cancellation.
  double retry_backoff_seconds = 0;
  /// Terminal-state hook for front doors (the TCP listener streams results
  /// back to clients from it). Invoked exactly once per job, on the thread
  /// that terminalizes it, with the server's internal lock held: the
  /// callback must be cheap (copy what it needs, post to a queue) and must
  /// NOT call back into the Server. Covers every terminal state, including
  /// jobs rejected synchronously inside submit().
  std::function<void(const JobResult&)> on_terminal;
  /// Chunk-boundary progress hook: (job id, cooperative checks so far) on
  /// every cancellation check while the job runs. Runs on pipeline worker
  /// threads without the server lock; must be thread-safe and cheap.
  std::function<void(std::uint64_t id, std::uint64_t checks)> on_progress;
  /// When non-empty: a directory that receives one flight-recorder dump
  /// ("hs.flight.v1", named flight_job<id>.json) whenever a job
  /// terminalizes as Failed or TimedOut -- the last moments of the whole
  /// process around the failure. Requires an HS_TRACE build for non-empty
  /// event lists; the dump itself is written (valid, possibly empty) in
  /// every build.
  std::string flight_dump_dir;
};

class Server : public JobBackend {
 public:
  /// Outcome of submit() -- the shared backend vocabulary (backend.hpp);
  /// kept as a nested alias for the pre-JobBackend spelling.
  using Submitted = serve::Submitted;

  explicit Server(const ServerOptions& options);
  /// Implicit non-drain shutdown when the owner forgot: cancels queued
  /// jobs, cooperatively cancels running ones, joins the workers.
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Submitted submit(const JobSpec& spec) override;

  /// Queued -> Cancelled immediately; Running -> cooperative cancel
  /// request (the job terminalizes as Cancelled at the next chunk
  /// boundary). False when the job is unknown or already terminal.
  bool cancel(std::uint64_t id);

  /// Blocks until the job reaches a terminal state and returns its result.
  JobResult wait(std::uint64_t id);

  /// Non-blocking snapshot; nullopt for unknown ids.
  std::optional<JobResult> result(std::uint64_t id) const;

  /// All tracked jobs in submission order (terminal or not).
  std::vector<JobResult> results() const;

  /// Stops admission, then either drains (completes queued + in-flight
  /// jobs) or cancels (queued jobs -> Cancelled, running jobs get a
  /// cooperative cancel), and joins the workers. Idempotent; the first
  /// call's mode wins.
  void shutdown(bool drain);

  std::size_t queue_depth() const override;
  std::size_t in_flight() const;

  /// Installs/replaces the terminal and progress hooks after construction
  /// (a front door is usually built around an existing Server). Call
  /// before submitting the jobs the hook should observe; jobs already in
  /// flight may terminalize with either value. Detaching on_terminal
  /// (nullptr) blocks until any in-progress invocation has returned;
  /// running jobs keep the on_progress copy they started with, so that
  /// hook must capture shared-ownership state, never raw pointers the
  /// caller may free.
  void set_on_terminal(std::function<void(const JobResult&)> hook) override;
  void set_on_progress(
      std::function<void(std::uint64_t id, std::uint64_t checks)> hook) override;

  /// Per-instance cache statistics (exact even when HS_TRACE is off; the
  /// trace counters under `cache.*` aggregate process-wide).
  cache::CacheStats result_cache_stats() const { return result_cache_.stats(); }
  cache::CacheStats scene_cache_stats() const { return scene_cache_.stats(); }
  gpusim::SharedProgramStore::Stats program_store_stats() const {
    return shared_programs_->stats();
  }

 private:
  struct Record {
    JobSpec spec;
    JobResult result;
    std::chrono::steady_clock::time_point submit_tp;
    std::chrono::steady_clock::time_point deadline_tp;
    bool has_deadline = false;
    std::shared_ptr<std::atomic<bool>> cancel_flag;
  };

  void worker_loop();
  /// Resolves the job's scene: ENVI read, scene-cache hit, or a fresh
  /// synthetic generation (shared so cache hits need no copy).
  std::shared_ptr<const hsi::HyperCube> load_scene(const SceneSpec& scene);
  /// Runs one job to a terminal outcome (no locks held). Fills state,
  /// detail, attempts, run/exec_seconds, timeline events (stamped relative
  /// to `submit_tp`) and outputs into `out`.
  void run_job(std::uint64_t id, const JobSpec& spec,
               const std::shared_ptr<std::atomic<bool>>& cancel_flag,
               bool has_deadline,
               std::chrono::steady_clock::time_point deadline_tp,
               std::chrono::steady_clock::time_point submit_tp,
               const std::function<void(std::uint64_t, std::uint64_t)>& progress,
               JobResult& out);
  /// Terminal bookkeeping; requires mu_ held and a non-terminal record.
  void finalize_locked(Record& rec, JobState state, const std::string& detail);
  /// Writes a flight-recorder dump for a Failed/TimedOut job when
  /// ServerOptions::flight_dump_dir is set. Requires mu_ held (runs only
  /// on failure paths).
  void maybe_dump_flight_locked(const JobResult& result);
  void update_gauges_locked();

  ServerOptions options_;
  cache::ResultCache result_cache_;
  cache::SceneCache scene_cache_;
  /// Cross-worker lowered-program store handed to every pipeline run via
  /// SimConfig::shared_programs -- always on (its cost is one mutex).
  std::shared_ptr<gpusim::SharedProgramStore> shared_programs_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue non-empty or stop
  std::condition_variable done_cv_;  ///< waiters: some job terminalized
  JobQueue queue_;
  std::map<std::uint64_t, Record> records_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::size_t in_flight_ = 0;
  bool accepting_ = true;
  bool stop_ = false;  ///< workers exit once the queue is empty
  std::vector<std::thread> threads_;
};

}  // namespace hs::serve
