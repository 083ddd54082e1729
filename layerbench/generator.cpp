#include "generator.hpp"

#include <poll.h>

#include <algorithm>
#include <deque>
#include <thread>

#include "net/client.hpp"

namespace lb {

bool ClientTransport::send(std::string_view line) {
  return client_.send_line(line);
}

namespace {

// read_frame waits in whole milliseconds; a shorter timeout never polls.
constexpr double kMinPollSeconds = 1e-3;

}  // namespace

std::optional<std::string> ClientTransport::receive(double timeout_s) {
  if (timeout_s < kMinPollSeconds) {
    // Serve what is buffered or already readable, else sleep out the rest.
    if (std::optional<std::string> frame = client_.read_frame(0)) return frame;
    pollfd readable{client_.fd(), POLLIN, 0};
    if (client_.fd() >= 0 && ::poll(&readable, 1, 0) > 0) {
      return client_.read_frame(kMinPollSeconds);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(timeout_s));
    return std::nullopt;
  }
  std::optional<std::string> frame = client_.read_frame(timeout_s);
  if (!frame && !client_.connected()) {
    // EOF or a socket error: nothing more will arrive; do not spin.
    std::this_thread::sleep_for(std::chrono::duration<double>(timeout_s));
  }
  return frame;
}

std::size_t GeneratorRun::sent() const {
  return static_cast<std::size_t>(std::count_if(
      requests.begin(), requests.end(), [](const RequestOutcome& r) { return r.sent; }));
}

std::size_t GeneratorRun::succeeded() const {
  return static_cast<std::size_t>(std::count_if(
      requests.begin(), requests.end(), [](const RequestOutcome& r) { return r.done(); }));
}

namespace {

class Loop {
 public:
  explicit Loop(Transport& transport) : transport_(transport) {
    run_.start = Clock::now();
  }

  double now_s() const { return seconds_between(run_.start, Clock::now()); }

  std::size_t add(double due_s) {
    run_.requests.push_back(RequestOutcome{});
    run_.requests.back().due_s = due_s;
    return run_.requests.size() - 1;
  }

  void send(std::size_t index, const std::string& line) {
    RequestOutcome& r = run_.requests[index];
    r.send_s = now_s();
    r.sent = transport_.send(line);
    if (r.sent) ++outstanding_;
  }

  /// Waits up to `timeout_s` for one frame; returns the index of the
  /// request it terminated, if any.
  std::optional<std::size_t> pump(double timeout_s) {
    const std::optional<std::string> frame = transport_.receive(timeout_s);
    if (!frame) return std::nullopt;
    const double now = now_s();
    const std::optional<hs::net::Response> r = hs::net::parse_response_frame(*frame);
    if (r && (r->type == "hello" || r->type == "progress")) return std::nullopt;
    if (!r || !r->terminal() || !r->has_client_id ||
        r->client_id >= run_.requests.size()) {
      ++run_.error_frames;
      return std::nullopt;
    }
    RequestOutcome& out = run_.requests[r->client_id];
    if (!out.sent || out.answered) {
      ++run_.error_frames;
      return std::nullopt;
    }
    out.answered = true;
    out.recv_s = now;
    out.response = *r;
    --outstanding_;
    run_.last_recv_s = now;
    return static_cast<std::size_t>(r->client_id);
  }

  void wait_until(double target_s) {
    for (double left = target_s - now_s(); left > 0; left = target_s - now_s()) {
      pump(left);
    }
  }

  void drain(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    for (double left = deadline - now_s(); outstanding_ > 0 && left > 0;
         left = deadline - now_s()) {
      pump(left);
    }
  }

  double recv_s(std::size_t index) const { return run_.requests[index].recv_s; }

  GeneratorRun finish() { return std::move(run_); }

 private:
  Transport& transport_;
  GeneratorRun run_;
  std::size_t outstanding_ = 0;
};

}  // namespace

GeneratorRun run_open_loop(Transport& transport, const std::vector<double>& due_s,
                           const LineFor& line_for, double drain_timeout_s) {
  Loop loop(transport);
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const std::size_t index = loop.add(due_s[i]);
    const std::string line = line_for(index);
    loop.wait_until(due_s[i]);
    loop.send(index, line);
  }
  loop.drain(drain_timeout_s);
  return loop.finish();
}

GeneratorRun run_closed_loop(Transport& transport, std::size_t window,
                             double duration_s, const LineFor& line_for,
                             double drain_timeout_s) {
  Loop loop(transport);
  std::deque<double> free_slots(std::max<std::size_t>(1, window), 0.0);
  for (double now = loop.now_s(); now < duration_s; now = loop.now_s()) {
    while (!free_slots.empty()) {
      const std::size_t index = loop.add(free_slots.front());
      free_slots.pop_front();
      loop.send(index, line_for(index));
    }
    if (const auto done = loop.pump(std::min(duration_s - now, 0.05))) {
      free_slots.push_back(loop.recv_s(*done));
    }
  }
  loop.drain(drain_timeout_s);
  return loop.finish();
}

}  // namespace lb
