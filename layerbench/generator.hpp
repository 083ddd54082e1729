// The benchmark's load generator: open-loop (scheduled) and closed-loop
// (windowed) request streams over one hs.net.v1 connection, driven from a
// single thread.
//
// Every request is timed from its due time, not from when it was actually
// sent: a stall in the generator or a full socket makes later requests
// late, and that wait counts in their latency. In an open loop the due
// time comes from the schedule; in a closed loop it is the moment the
// request's window slot became free. Lateness (send - due) is reported on
// its own so generator trouble is visible next to server latency.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "layerbench.hpp"
#include "net/protocol.hpp"

namespace hs::net {
class Client;
}

namespace lb {

/// The generator's view of a connection; tests substitute a fake.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual bool send(std::string_view line) = 0;
  /// One frame, or nullopt when none arrives within `timeout_s`.
  virtual std::optional<std::string> receive(double timeout_s) = 0;
};

/// Transport over a connected net::Client.
class ClientTransport : public Transport {
 public:
  explicit ClientTransport(hs::net::Client& client) : client_(client) {}
  bool send(std::string_view line) override;
  std::optional<std::string> receive(double timeout_s) override;

 private:
  hs::net::Client& client_;
};

/// One request's life, in seconds from the generator's start.
struct RequestOutcome {
  double due_s = 0;
  double send_s = 0;
  double recv_s = 0;
  bool sent = false;
  bool answered = false;
  hs::net::Response response;

  double latency_ms() const { return (recv_s - due_s) * 1e3; }
  double lateness_ms() const { return (send_s - due_s) * 1e3; }
  bool done() const {
    return answered && response.type == "result" &&
           hs::serve::parse_job_state(response.state) == hs::serve::JobState::Done;
  }
};

struct GeneratorRun {
  Clock::time_point start{};
  std::vector<RequestOutcome> requests;
  std::size_t error_frames = 0;  ///< frames no request could be charged for
  double last_recv_s = 0;

  std::size_t sent() const;
  std::size_t succeeded() const;
};

/// Builds the request frame for request `index`; the frame must carry
/// `"id": index` so responses can be matched (serve::to_request_line).
using LineFor = std::function<std::string(std::size_t index)>;

/// Sends request i at due_s[i] (increasing) regardless of how many are
/// outstanding, then waits up to `drain_timeout_s` for the stragglers.
GeneratorRun run_open_loop(Transport& transport, const std::vector<double>& due_s,
                           const LineFor& line_for, double drain_timeout_s);

/// Keeps `window` requests outstanding for `duration_s`, sending the next
/// one as soon as a response frees a slot, then drains.
GeneratorRun run_closed_loop(Transport& transport, std::size_t window,
                             double duration_s, const LineFor& line_for,
                             double drain_timeout_s);

}  // namespace lb
