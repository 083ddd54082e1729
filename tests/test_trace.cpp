#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <clocale>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace/histogram.hpp"
#include "trace/json_check.hpp"
#include "trace/snapshot.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace hs::trace {
namespace {

// gtest_discover_tests runs every TEST in its own process, so enabling /
// resetting the process-global recorder here cannot leak into other tests.

#if HS_TRACE_ENABLED

TEST(Trace, DisabledByDefaultRecordsNothing) {
  reset();
  ASSERT_FALSE(enabled());
  {
    Span span("outer", "test");
    EXPECT_FALSE(span.active());
    span.arg("k", 1.0);
  }
  EXPECT_EQ(event_count(), 0u);
}

TEST(Trace, SpanNestingDepths) {
  reset();
  set_enabled(true);
  {
    Span outer("outer", "test");
    {
      Span mid("mid", "test");
      Span inner("inner", "test");
      inner.end();
      mid.end();
    }
    outer.end();
  }
  set_enabled(false);

  const auto events = snapshot();
  ASSERT_EQ(events.size(), 3u);
  // snapshot() is sorted by start time: outer began first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "mid");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].depth, 2);
  for (const auto& e : events) {
    EXPECT_GE(e.dur_ns, 0);
    EXPECT_GE(e.start_ns, 0);
    // Children are contained in the outer span's interval.
    EXPECT_GE(e.start_ns, events[0].start_ns);
    EXPECT_LE(e.start_ns + e.dur_ns, events[0].start_ns + events[0].dur_ns);
  }
}

TEST(Trace, SpanArgsAreRecorded) {
  reset();
  set_enabled(true);
  {
    Span span("pass", "test");
    span.arg("fragments", 4096.0);
    span.arg("program", "band_sum");
  }
  set_enabled(false);

  const auto events = snapshot();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].arg_count, 2);
  EXPECT_STREQ(events[0].args[0].key, "fragments");
  EXPECT_TRUE(events[0].args[0].is_num);
  EXPECT_EQ(events[0].args[0].num, 4096.0);
  EXPECT_STREQ(events[0].args[1].key, "program");
  EXPECT_FALSE(events[0].args[1].is_num);
  EXPECT_EQ(events[0].args[1].str, "band_sum");
}

TEST(Trace, RuntimeDisableIsNoOp) {
  reset();
  set_enabled(true);
  { Span span("recorded", "test"); }
  set_enabled(false);
  { Span span("dropped", "test"); }
  EXPECT_EQ(event_count(), 1u);
}

TEST(Trace, ThreadSafetyUnderThreadPool) {
  reset();
  set_enabled(true);
  constexpr std::size_t kIters = 256;
  util::ThreadPool pool(4);
  pool.parallel_for(kIters, [](std::size_t) {
    Span outer("work", "mt");
    Span inner("inner", "mt");
    inner.arg("x", 1.0);
  });
  set_enabled(false);

  const auto events = snapshot();
  EXPECT_EQ(events.size(), 2 * kIters);
  std::size_t inner_count = 0;
  for (const auto& e : events) {
    if (e.name == "inner") {
      ++inner_count;
      EXPECT_EQ(e.depth, 1);
    } else {
      EXPECT_EQ(e.name, "work");
      EXPECT_EQ(e.depth, 0);
    }
  }
  EXPECT_EQ(inner_count, kIters);
}

TEST(Trace, ConcurrentCounterAndRegistryStress) {
  // N threads hammer registry lookups and counter increments for the same
  // names concurrently; totals must be exact and addresses stable.
  reset();
  constexpr std::size_t kThreads = 8;
  constexpr int kIters = 2000;
  Counter& shared = counter("stress.shared");
  Gauge& g = gauge("stress.gauge");
  util::ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    for (int i = 0; i < kIters; ++i) {
      // Registry lookup under contention must return the same instance.
      Counter& c = counter("stress.shared");
      ASSERT_EQ(&c, &shared);
      c.increment();
      counter("stress.thread." + std::to_string(t)).increment();
      g.set(static_cast<double>(i));
    }
  });
  EXPECT_EQ(shared.value(), static_cast<std::int64_t>(kThreads) * kIters);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counter("stress.thread." + std::to_string(t)).value(), kIters);
  }
}

TEST(Trace, ConcurrentSpansFromTaskGroupAllRecorded) {
  // Spans opened and closed by fire-and-forget style tasks across a
  // TaskGroup: every span completes on its own thread and none is lost.
  reset();
  set_enabled(true);
  constexpr int kTasks = 300;
  util::ThreadPool pool(4);
  util::TaskGroup group(pool);
  for (int i = 0; i < kTasks; ++i) {
    group.submit([] {
      Span span("task", "group");
      span.arg("payload", 1.0);
    });
  }
  group.wait();
  set_enabled(false);
  const auto events = snapshot();
  std::size_t task_spans = 0;
  for (const auto& e : events) {
    if (e.name == "task" && e.cat == "group") ++task_spans;
  }
  EXPECT_EQ(task_spans, static_cast<std::size_t>(kTasks));
}

TEST(Trace, CounterAndGaugeRegistry) {
  reset();
  Counter& c = counter("test.counter");
  Gauge& g = gauge("test.gauge");
  c.increment();
  c.add(41);
  g.set(2.5);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(g.value(), 2.5);
  // Same name returns the same instance.
  EXPECT_EQ(&counter("test.counter"), &c);
  EXPECT_EQ(&gauge("test.gauge"), &g);

  const auto metrics = metrics_snapshot();
  const auto find = [&](const std::string& name) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const auto& m) { return m.first == name; });
    return it == metrics.end() ? -1.0 : it->second;
  };
  EXPECT_EQ(find("test.counter"), 42.0);
  EXPECT_EQ(find("test.gauge"), 2.5);

  reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Trace, ResetClearsEventsAndRestartsClock) {
  reset();
  set_enabled(true);
  { Span span("before", "test"); }
  ASSERT_EQ(event_count(), 1u);
  reset();
  EXPECT_EQ(event_count(), 0u);
  { Span span("after", "test"); }
  set_enabled(false);
  const auto events = snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "after");
}

TEST(Trace, ChromeTraceRoundTripsThroughParser) {
  reset();
  set_enabled(true);
  counter("rt.counter").add(7);
  {
    Span outer("pipeline", "pipeline");
    Span stage("normalization", "stage");
    stage.arg("modeled_us", 12.5);
    stage.arg("label", "with \"quotes\" and \\ backslash\nnewline");
  }
  set_enabled(false);

  std::ostringstream os;
  write_chrome_trace(os);
  const std::string text = os.str();

  std::string error;
  const auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(json::validate_chrome_trace(text, &error)) << error;

  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is(json::Value::Kind::Array));
  // 2 span events + at least one counter sample.
  ASSERT_GE(events->array.size(), 3u);

  std::size_t spans = 0;
  bool saw_stage = false;
  for (const auto& e : events->array) {
    const json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      ++spans;
      const json::Value* name = e.find("name");
      ASSERT_NE(name, nullptr);
      if (name->string == "normalization") {
        saw_stage = true;
        const json::Value* args = e.find("args");
        ASSERT_NE(args, nullptr);
        const json::Value* us = args->find("modeled_us");
        ASSERT_NE(us, nullptr);
        EXPECT_EQ(us->number, 12.5);
        const json::Value* label = args->find("label");
        ASSERT_NE(label, nullptr);
        EXPECT_EQ(label->string, "with \"quotes\" and \\ backslash\nnewline");
      }
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_TRUE(saw_stage);
}

TEST(Trace, MetricsJsonMatchesBenchSchema) {
  reset();
  set_enabled(true);
  counter("m.hits").add(3);
  { Span span("stage_a", "stage"); }
  { Span span("stage_a", "stage"); }
  set_enabled(false);

  std::ostringstream os;
  write_metrics_json(os, "test_metrics");
  const std::string text = os.str();

  std::string error;
  ASSERT_TRUE(json::validate_metrics_json(text, &error)) << error << "\n" << text;

  const auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const json::Value* name = doc->find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string, "test_metrics");
  const json::Value* results = doc->find("results");
  ASSERT_NE(results, nullptr);
  bool saw_span_row = false;
  for (const auto& row : results->array) {
    const json::Value* bench = row.find("bench");
    ASSERT_NE(bench, nullptr);
    if (bench->string == "span:stage:stage_a") {
      saw_span_row = true;
      const json::Value* count = row.find("count");
      ASSERT_NE(count, nullptr);
      EXPECT_EQ(count->number, 2.0);
    }
  }
  EXPECT_TRUE(saw_span_row);
}

TEST(Trace, SpansInheritTheThreadJobTag) {
  reset();
  set_enabled(true);
  {
    util::ScopedJobTag tag(17);
    Span span("serve.job", "serve");
  }
  { Span span("untagged", "serve"); }
  set_enabled(false);

  const auto events = snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].job, 17u);
  EXPECT_EQ(events[1].job, 0u);

  // The Chrome trace exports the tag as a "job" arg on tagged spans only.
  std::ostringstream os;
  write_chrome_trace(os);
  std::string error;
  const auto doc = json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  bool saw_tagged = false, saw_untagged = false;
  for (const auto& e : doc->find("traceEvents")->array) {
    const json::Value* name = e.find("name");
    if (name == nullptr) continue;
    if (name->string == "serve.job") {
      saw_tagged = true;
      const json::Value* args = e.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("job"), nullptr);
      EXPECT_EQ(args->find("job")->number, 17.0);
    } else if (name->string == "untagged") {
      saw_untagged = true;
      EXPECT_EQ(e.find("args"), nullptr);
    }
  }
  EXPECT_TRUE(saw_tagged);
  EXPECT_TRUE(saw_untagged);
}

TEST(Trace, SnapshotJsonValidatesAndCarriesRegistry) {
  reset();
  set_enabled(true);
  counter("snap.requests").add(5);
  gauge("snap.depth").set(3.0);
  histogram("snap.latency_s").record(0.010);
  histogram("snap.latency_s").record(0.020);
  set_enabled(false);

  std::ostringstream os;
  write_snapshot_json(os, "test-proc", 4);
  const std::string text = os.str();
  std::string error;
  ASSERT_TRUE(json::validate_snapshot_json(text, &error)) << error << "\n"
                                                          << text;

  const auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema")->string, "hs.snapshot.v1");
  EXPECT_EQ(doc->find("name")->string, "test-proc");
  EXPECT_EQ(doc->find("sequence")->number, 4.0);
  bool saw_counter = false, saw_hist = false;
  for (const auto& m : doc->find("metrics")->array) {
    if (m.find("name")->string == "snap.requests") {
      saw_counter = true;
      EXPECT_EQ(m.find("value")->number, 5.0);
    }
  }
  for (const auto& h : doc->find("histograms")->array) {
    if (h.find("name")->string == "snap.latency_s") {
      saw_hist = true;
      EXPECT_EQ(h.find("count")->number, 2.0);
      EXPECT_NEAR(h.find("mean_ms")->number, 15.0, 1.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

TEST(Trace, SnapshotFileExportIsAtomicAndValid) {
  reset();
  counter("snap.file").add(1);
  const std::string path = ::testing::TempDir() + "/hs_snapshot_test.json";
  ASSERT_TRUE(write_snapshot_json_file(path, "file-test", 1));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string error;
  EXPECT_TRUE(json::validate_snapshot_json(ss.str(), &error)) << error;
  // The tmp staging file must not linger after the rename.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Trace, SummaryTablePrints) {
  reset();
  set_enabled(true);
  counter("s.count").increment();
  { Span span("stage_a", "stage"); }
  set_enabled(false);

  std::ostringstream os;
  print_summary(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("stage_a"), std::string::npos);
  EXPECT_NE(text.find("s.count"), std::string::npos);
}

/// print_summary's span table as cells keyed by "cat:name".
std::map<std::string, std::vector<std::string>> summary_rows(
    const std::string& text) {
  std::map<std::string, std::vector<std::string>> rows;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> cells;
    std::istringstream cols(line);
    std::string cell;
    while (std::getline(cols, cell, '|')) {
      const auto b = cell.find_first_not_of(' ');
      const auto e = cell.find_last_not_of(' ');
      if (b != std::string::npos) cells.push_back(cell.substr(b, e - b + 1));
    }
    if (!cells.empty() && cells[0].rfind("test:", 0) == 0) {
      rows[cells[0]] = cells;
    }
  }
  return rows;
}

/// Seconds from util::format_duration's "<value> <unit>".
double parse_seconds(const std::string& cell) {
  std::istringstream is(cell);
  double v = 0;
  std::string unit;
  is >> v >> unit;
  if (unit == "ns") return v * 1e-9;
  if (unit == "us") return v * 1e-6;
  if (unit == "ms") return v * 1e-3;
  return v;
}

TEST(Trace, SummarySharesAreSelfTime) {
  reset();
  set_enabled(true);
  const auto busy = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  };
  {
    Span outer("outer", "test");
    busy();
    {
      Span child("child", "test");
      busy();
      Span leaf("leaf", "test");
      busy();
    }
    // Another thread's span is not a child, even while `outer` is open.
    std::thread([&] {
      Span other("other", "test");
      busy();
    }).join();
    Span child("child", "test");
    busy();
  }
  set_enabled(false);

  std::ostringstream os;
  print_summary(os);
  const auto rows = summary_rows(os.str());
  ASSERT_EQ(rows.size(), 4u) << os.str();
  // Columns: name, count, total, self, mean, max, share.
  for (const auto& [name, cells] : rows) ASSERT_EQ(cells.size(), 7u) << name;
  EXPECT_EQ(rows.at("test:child")[1], "2");
  // Spans without children on their own thread: self == total.
  EXPECT_EQ(rows.at("test:leaf")[3], rows.at("test:leaf")[2]);
  EXPECT_EQ(rows.at("test:other")[3], rows.at("test:other")[2]);
  EXPECT_LT(parse_seconds(rows.at("test:outer")[3]),
            parse_seconds(rows.at("test:outer")[2]));

  // Self times partition the top-level spans, and the shares are of self
  // time, so they sum to 100 %.
  double self_sum = 0;
  double share_sum = 0;
  for (const auto& [name, cells] : rows) {
    self_sum += parse_seconds(cells[3]);
    share_sum += std::stod(cells[6]);
  }
  EXPECT_NEAR(self_sum,
              parse_seconds(rows.at("test:outer")[2]) +
                  parse_seconds(rows.at("test:other")[2]),
              1e-4);
  EXPECT_NEAR(share_sum, 100.0, 0.25);
  for (const auto& [name, cells] : rows) {
    EXPECT_NEAR(std::stod(cells[6]), 100.0 * parse_seconds(cells[3]) / self_sum,
                0.2)
        << name;
  }
}

#else  // HS_TRACE_ENABLED == 0

TEST(Trace, DisabledBuildEmitsValidEmptyDocuments) {
  set_enabled(true);  // no-op
  { Span span("dropped", "test"); }
  EXPECT_FALSE(enabled());
  EXPECT_EQ(event_count(), 0u);

  std::ostringstream os;
  write_chrome_trace(os);
  std::string error;
  EXPECT_TRUE(json::validate_chrome_trace(os.str(), &error)) << error;

  std::ostringstream ms;
  write_metrics_json(ms, "off");
  EXPECT_TRUE(json::validate_metrics_json(ms.str(), &error)) << error;

  // The snapshot document degrades to a valid empty registry, so hsi-top
  // and pollers keep working against an HS_TRACE=OFF process.
  std::ostringstream snap;
  write_snapshot_json(snap, "off", 1);
  EXPECT_TRUE(json::validate_snapshot_json(snap.str(), &error)) << error;
}

#endif  // HS_TRACE_ENABLED

TEST(TraceJson, ParserHandlesEscapesAndRejectsGarbage) {
  std::string error;
  const auto ok = json::parse(
      "{\"a\": [1, 2.5, -3e2], \"s\": \"q\\u0041\\n\", \"b\": true, "
      "\"n\": null}",
      &error);
  ASSERT_TRUE(ok.has_value()) << error;
  const json::Value* s = ok->find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string, "qA\n");

  EXPECT_FALSE(json::parse("{", &error).has_value());
  EXPECT_FALSE(json::parse("{\"a\": 01}", &error).has_value());
  EXPECT_FALSE(json::parse("[1,]", &error).has_value());
  EXPECT_FALSE(json::parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(json::parse("{} trailing", &error).has_value());
}

TEST(TraceJson, NumbersParseLocaleIndependently) {
  // Regression for strtod-based number parsing: under a comma-decimal
  // locale (de_DE style) "1.5" read back as 1, silently corrupting every
  // fractional value in a metrics document. The parser now uses
  // std::from_chars, which never consults the process locale. de_DE
  // locale data may not be installed; whatever subset of these names
  // installs (at minimum "C") must produce identical values.
  const char* const names[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                               "fr_FR.UTF-8", "C"};
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  int tried = 0;
  for (const char* name : names) {
    if (std::setlocale(LC_NUMERIC, name) == nullptr) continue;
    SCOPED_TRACE(std::string("LC_NUMERIC=") + name);
    ++tried;
    std::string error;
    const auto doc = json::parse(
        "{\"wall_seconds\": 1.5, \"speedup\": 2.25e-1, \"neg\": -0.125}",
        &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->find("wall_seconds")->number, 1.5);
    EXPECT_EQ(doc->find("speedup")->number, 0.225);
    EXPECT_EQ(doc->find("neg")->number, -0.125);
  }
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_GE(tried, 1);

  // Range extremes keep strtod's saturation semantics.
  std::string error;
  const auto doc = json::parse(
      "[1e999, -1e999, 1e-999, 12345678901234567890.5]", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->array[0].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc->array[1].number, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc->array[2].number, 0.0);
  EXPECT_EQ(doc->array[3].number, 12345678901234567890.5);
}

}  // namespace
}  // namespace hs::trace
