// A timing serve::JobBackend decorator, placed between the front door
// (net::NetServer) and the execution tier (serve::Server or
// shard::Router). It stamps each job's submit() call and the moment the
// wrapped backend reports its terminal state, and forwards everything
// else unchanged, so the backend contract (backend.hpp) holds through it:
// on_terminal still fires exactly once per job, under the wrapped
// backend's lock, and detaching blocks until an in-progress call returns.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>

#include "layerbench.hpp"
#include "serve/backend.hpp"

namespace lb {

class TimedBackend : public hs::serve::JobBackend {
 public:
  struct JobTimes {
    Clock::time_point submit_begin{};
    Clock::time_point submit_end{};
    Clock::time_point terminal{};
    bool submitted = false;
    int terminal_calls = 0;
  };

  /// `inner` must outlive this object.
  explicit TimedBackend(hs::serve::JobBackend& inner);
  ~TimedBackend() override;
  TimedBackend(const TimedBackend&) = delete;
  TimedBackend& operator=(const TimedBackend&) = delete;

  hs::serve::Submitted submit(const hs::serve::JobSpec& spec) override;
  std::size_t queue_depth() const override { return inner_.queue_depth(); }
  void set_on_terminal(
      std::function<void(const hs::serve::JobResult&)> hook) override;
  void set_on_progress(
      std::function<void(std::uint64_t id, std::uint64_t checks)> hook) override;

  /// Copy of every job's stamps, keyed by the wrapped backend's job id.
  std::map<std::uint64_t, JobTimes> times() const;

 private:
  void record_terminal(const hs::serve::JobResult& result);

  hs::serve::JobBackend& inner_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, JobTimes> jobs_;
};

}  // namespace lb
