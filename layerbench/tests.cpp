// Tests for the benchmark's own code: schedules, the generator's due-time
// accounting, the percentile rule, span self times, and the timing
// decorator's forwarding contract.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "generator.hpp"
#include "net/protocol.hpp"
#include "schedule.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "timed_backend.hpp"

namespace lb {
namespace {

TEST(Schedule, SeededPoissonScheduleReproduces) {
  const std::vector<double> a = poisson_schedule(7, 50, 20);
  const std::vector<double> b = poisson_schedule(7, 50, 20);
  const std::vector<double> c = poisson_schedule(8, 50, 20);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 20.0);
  EXPECT_EQ(a.size(), 1000u);
  // Gaps of a Poisson process: mean 1/rate, coefficient of variation ~1.
  std::vector<double> gaps;
  for (std::size_t i = 1; i < a.size(); ++i) gaps.push_back(a[i] - a[i - 1]);
  double mean = 0, var = 0;
  for (double g : gaps) mean += g / static_cast<double>(gaps.size());
  for (double g : gaps) var += (g - mean) * (g - mean) / static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 0.02, 0.002);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.1);
}

TEST(Schedule, SensorMixReproducesAndRepeatsAQuarter) {
  const std::vector<PlannedJob> a = sensor_mix(3, 4000);
  const std::vector<PlannedJob> b = sensor_mix(3, 4000);
  std::size_t repeats = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.scene.seed, b[i].spec.scene.seed);
    EXPECT_EQ(a[i].repeat_of, b[i].repeat_of);
    if (a[i].repeat_of >= 0) {
      ++repeats;
      const PlannedJob& original = a[static_cast<std::size_t>(a[i].repeat_of)];
      EXPECT_EQ(hs::serve::job_fingerprint(a[i].spec),
                hs::serve::job_fingerprint(original.spec));
    }
  }
  EXPECT_NEAR(static_cast<double>(repeats) / 4000.0, 0.25, 0.03);
}

TEST(Stats, PercentilesNeedTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 0; i < 99; ++i) v.push_back(i);
  EXPECT_FALSE(percentile(v, 0.9).has_value());
  v.push_back(99);
  ASSERT_TRUE(percentile(v, 0.9).has_value());
  EXPECT_NEAR(*percentile(v, 0.9), 89.1, 1e-9);
  EXPECT_FALSE(percentile(v, 0.99).has_value());
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

// Answers every request at once, except that sending request `stall_id`
// blocks for `stall_s` (a generator stall, as a full socket would cause).
class FakeTransport : public Transport {
 public:
  FakeTransport(std::uint64_t stall_id, double stall_s)
      : stall_id_(stall_id), stall_s_(stall_s) {}

  bool send(std::string_view line) override {
    const auto req = hs::serve::parse_request_frame(line);
    if (!req) return false;
    if (req->client_id == stall_id_) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_s_));
    }
    hs::serve::JobResult r;
    r.id = req->client_id + 1;
    r.state = hs::serve::JobState::Done;
    pending_.push_back(hs::net::result_frame(r, true, req->client_id));
    return true;
  }

  std::optional<std::string> receive(double timeout_s) override {
    if (pending_.empty()) {
      std::this_thread::sleep_for(std::chrono::duration<double>(timeout_s));
      return std::nullopt;
    }
    std::string frame = pending_.front();
    pending_.pop_front();
    return frame;
  }

 private:
  std::uint64_t stall_id_;
  double stall_s_;
  std::deque<std::string> pending_;
};

std::string line_for(std::size_t i) {
  hs::serve::JobSpec spec;
  spec.name = "t" + std::to_string(i);
  return hs::serve::to_request_line(spec, i);
}

TEST(Generator, DelayedResponseIsChargedFromItsDueTime) {
  // Request 0 is due at once but its send stalls 80 ms; request 1 is due
  // at 10 ms, so it goes out ~70 ms late and its latency must include that.
  FakeTransport transport(/*stall_id=*/0, /*stall_s=*/0.08);
  const GeneratorRun run = run_open_loop(transport, {0.0, 0.010, 0.200}, line_for, 1.0);
  ASSERT_EQ(run.requests.size(), 3u);
  ASSERT_EQ(run.succeeded(), 3u);
  const RequestOutcome& late = run.requests[1];
  EXPECT_GE(late.lateness_ms(), 60.0);
  EXPECT_GE(late.latency_ms(), late.lateness_ms());
  EXPECT_NEAR(late.due_s, 0.010, 1e-12);
  // The stalled request itself is charged the stall too.
  EXPECT_GE(run.requests[0].latency_ms(), 75.0);
  // After the stall the schedule is met again.
  EXPECT_LT(run.requests[2].lateness_ms(), 20.0);
}

TEST(Generator, ClosedLoopKeepsTheWindowFull) {
  FakeTransport transport(/*stall_id=*/~0ull, 0);
  const GeneratorRun run = run_closed_loop(transport, 3, 0.05, line_for, 1.0);
  EXPECT_GT(run.requests.size(), 3u);
  EXPECT_EQ(run.succeeded(), run.requests.size());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(run.requests[i].due_s, 0.0);
}

TEST(Spans, SelfTimeDoesNotDoubleCountNesting) {
  SpanLog log;
  const int root = log.add("root", 1, -1, 0, 10);
  const int a = log.add("a", 1, root, 1, 5);
  log.add("a1", 1, a, 2, 3);
  log.add("a2", 1, a, 2.5, 4);  // overlaps a1: covered once
  log.add("b", 1, root, 6, 9);
  const std::vector<double> self = self_times_ms(log.spans());
  EXPECT_DOUBLE_EQ(self[0], 3);    // 10 - (4 + 3)
  EXPECT_DOUBLE_EQ(self[1], 2);    // 4 - [2, 4]
  EXPECT_DOUBLE_EQ(self[4], 3);
}

TEST(Spans, LayerSumFlagsOverlappingSiblings) {
  SpanLog ok;
  const int r = ok.add("request", 1, -1, 0, 10);
  ok.add("in", 1, r, 0, 2);
  const int b = ok.add("backend", 1, r, 2, 9);
  ok.add("queue", 1, b, 2, 4);
  ok.add("run", 1, b, 4, 9);
  ok.add("out", 1, r, 9, 10);
  EXPECT_EQ(check_layer_sum(ok.spans(), 1e-9).violations, 0u);

  SpanLog bad;
  const int r2 = bad.add("request", 2, -1, 0, 10);
  const int b2 = bad.add("backend", 2, r2, 2, 6);
  bad.add("queue", 2, b2, 1, 4);  // starts before its parent: a negative hop
  bad.add("run", 2, b2, 4, 6);
  EXPECT_EQ(check_layer_sum(bad.spans(), 1e-9).violations, 1u);
}

TEST(TimedBackend, ForwardsOnTerminalExactlyOncePerJob) {
  hs::serve::ServerOptions opt;
  opt.workers = 2;
  opt.admission.max_queue_depth = 2;  // some submits are rejected inline
  opt.keep_payloads = false;
  hs::serve::Server server(opt);
  std::mutex mu;
  std::map<std::uint64_t, int> calls;
  {
    TimedBackend timed(server);
    timed.set_on_terminal([&](const hs::serve::JobResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      ++calls[r.id];
    });
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 24; ++i) {
      hs::serve::JobSpec spec;
      spec.scene.width = spec.scene.height = 16;
      spec.scene.bands = 8;
      spec.scene.seed = static_cast<std::uint64_t>(i);
      ids.push_back(timed.submit(spec).id);
    }
    for (std::uint64_t id : ids) server.wait(id);
    timed.set_on_terminal(nullptr);
    const auto times = timed.times();
    ASSERT_EQ(times.size(), ids.size());
    for (const auto& [id, t] : times) {
      EXPECT_TRUE(t.submitted);
      EXPECT_EQ(t.terminal_calls, 1);
      EXPECT_LE(t.submit_begin, t.submit_end);
    }
  }
  server.shutdown(true);
  ASSERT_EQ(calls.size(), 24u);
  for (const auto& [id, n] : calls) EXPECT_EQ(n, 1) << "job " << id;
}

}  // namespace
}  // namespace lb
