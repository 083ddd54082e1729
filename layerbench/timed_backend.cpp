#include "timed_backend.hpp"

#include <utility>

namespace lb {

TimedBackend::TimedBackend(hs::serve::JobBackend& inner) : inner_(inner) {
  set_on_terminal(nullptr);
}

TimedBackend::~TimedBackend() { inner_.set_on_terminal(nullptr); }

hs::serve::Submitted TimedBackend::submit(const hs::serve::JobSpec& spec) {
  const Clock::time_point begin = Clock::now();
  hs::serve::Submitted sub = inner_.submit(spec);
  const Clock::time_point end = Clock::now();
  // A job rejected inside submit() may already have its terminal stamp.
  std::lock_guard<std::mutex> lock(mu_);
  JobTimes& t = jobs_[sub.id];
  t.submit_begin = begin;
  t.submit_end = end;
  t.submitted = true;
  return sub;
}

void TimedBackend::record_terminal(const hs::serve::JobResult& result) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  JobTimes& t = jobs_[result.id];
  if (t.terminal_calls++ == 0) t.terminal = now;
}

void TimedBackend::set_on_terminal(
    std::function<void(const hs::serve::JobResult&)> hook) {
  // The wrapped backend serializes replacement against in-progress calls,
  // so the front door's detach (a null hook) still blocks as the contract
  // requires; stamping continues without a front door attached.
  if (hook) {
    inner_.set_on_terminal(
        [this, hook = std::move(hook)](const hs::serve::JobResult& result) {
          record_terminal(result);
          hook(result);
        });
  } else {
    inner_.set_on_terminal(
        [this](const hs::serve::JobResult& result) { record_terminal(result); });
  }
}

void TimedBackend::set_on_progress(
    std::function<void(std::uint64_t id, std::uint64_t checks)> hook) {
  inner_.set_on_progress(std::move(hook));
}

std::map<std::uint64_t, TimedBackend::JobTimes> TimedBackend::times() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_;
}

}  // namespace lb
