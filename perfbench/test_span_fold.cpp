// Self-test of the span fold on synthetic nested spans, and of the Chrome
// trace parser on the exporter's real output.  run.py runs it after every
// build and refuses to benchmark when it fails.
#include <algorithm>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/span_fold.h"
#include "src/obs/trace.h"

namespace {

using dgs::perfbench::fold_spans;
using dgs::perfbench::Span;
using dgs::perfbench::SpanStats;

int g_failures = 0;

void expect(bool ok, const char* what, long long got, long long want) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL %s: got %lld, want %lld\n", what, got, want);
}

void expect_self(const std::map<std::string, SpanStats, std::less<>>& fold,
                 const char* name, long long count, long long total,
                 long long self) {
  const auto it = fold.find(name);
  const SpanStats s = it == fold.end() ? SpanStats{} : it->second;
  std::string what = std::string(name) + " count";
  expect(s.count == count, what.c_str(), s.count, count);
  what = std::string(name) + " total_ns";
  expect(s.total_ns == total, what.c_str(), s.total_ns, total);
  what = std::string(name) + " self_ns";
  expect(s.self_ns == self, what.c_str(), s.self_ns, self);
}

// step [0,100] holds schedule [10,60] and execute [60,90]; schedule holds
// contacts [12,50], which holds geometry [12,20] and two weather calls.
std::vector<Span> nested_step() {
  return {
      {"sim.step", 1, 0, 100},      {"sim.schedule", 1, 10, 60},
      {"vis.contacts", 1, 12, 50},  {"vis.geometry", 1, 12, 20},
      {"wx.forecast", 1, 25, 30},   {"wx.forecast", 1, 30, 34},
      {"sim.execute", 1, 60, 90},   {"wx.actual", 1, 70, 71},
  };
}

void test_nesting() {
  const auto fold = fold_spans(nested_step());
  expect_self(fold, "sim.step", 1, 100, 100 - 50 - 30);
  expect_self(fold, "sim.schedule", 1, 50, 50 - 38);
  expect_self(fold, "vis.contacts", 1, 38, 38 - 8 - 9);
  expect_self(fold, "vis.geometry", 1, 8, 8);
  expect_self(fold, "wx.forecast", 2, 9, 9);
  expect_self(fold, "sim.execute", 1, 30, 29);
  expect_self(fold, "wx.actual", 1, 1, 1);
  // Self times partition the root exactly.
  long long self_sum = 0;
  for (const auto& [name, s] : fold) self_sum += s.self_ns;
  expect(self_sum == 100, "self sum", self_sum, 100);
}

void test_order_independent() {
  std::vector<Span> spans = nested_step();
  std::mt19937 rng(7);
  for (int round = 0; round < 20; ++round) {
    std::shuffle(spans.begin(), spans.end(), rng);
    const auto fold = fold_spans(spans);
    expect_self(fold, "sim.step", 1, 100, 20);
    expect_self(fold, "vis.contacts", 1, 38, 21);
  }
}

void test_threads_and_siblings() {
  // A span on another thread never nests, even inside the interval; a span
  // that starts when its predecessor ends is a sibling, not a child.
  const auto fold = fold_spans({
      {"sim.step", 1, 0, 100},
      {"worker", 2, 10, 20},
      {"sim.step", 1, 100, 150},
      {"sim.generate", 1, 100, 110},
  });
  expect_self(fold, "sim.step", 2, 150, 140);
  expect_self(fold, "worker", 1, 10, 10);
  expect_self(fold, "sim.generate", 1, 10, 10);
}

void test_identical_and_empty() {
  // A child covering its parent exactly, and zero-length spans.
  const auto fold = fold_spans({
      {"outer", 1, 0, 10},
      {"inner", 1, 0, 10},
      {"tick", 1, 5, 5},
  });
  long long self_sum = 0;
  for (const auto& [name, s] : fold) self_sum += s.self_ns;
  expect(self_sum == 10, "identical-interval self sum", self_sum, 10);
  expect_self(fold, "tick", 1, 0, 0);
  expect(fold_spans({}).empty(), "empty fold", 0, 0);
}

void test_parse_literal() {
  const std::string json =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"sim.step\", \"cat\": \"dgs\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 1, \"ts\": 123456789.001, \"dur\": 5.250},\n"
      "{\"name\": \"vis.contacts\", \"cat\": \"dgs\", \"ph\": \"X\", "
      "\"pid\": 1, \"tid\": 3, \"ts\": 123456790.000, \"dur\": 0.007}\n"
      "]}\n";
  std::vector<Span> spans;
  expect(dgs::perfbench::parse_chrome_trace(json, &spans), "parse ok", 0, 1);
  expect(spans.size() == 2, "parsed spans", static_cast<long long>(spans.size()),
         2);
  if (spans.size() != 2) return;
  expect(spans[0].name == "sim.step", "name", 0, 1);
  expect(spans[0].start_ns == 123456789001LL, "start", spans[0].start_ns,
         123456789001LL);
  expect(spans[0].end_ns == 123456794251LL, "end", spans[0].end_ns,
         123456794251LL);
  expect(spans[1].tid == 3, "tid", spans[1].tid, 3);
  expect(spans[1].end_ns - spans[1].start_ns == 7, "dur",
         spans[1].end_ns - spans[1].start_ns, 7);
  std::vector<Span> bad;
  expect(!dgs::perfbench::parse_chrome_trace(
             "{\"name\": \"x\", \"cat\": \"dgs\", \"ts\": 1}\n", &bad),
         "malformed rejected", 1, 0);
}

void test_parse_exporter() {
  // Real spans through the library's exporter: the fold of the parsed
  // export must nest them and keep the durations exact.
  dgs::obs::clear_trace();
  dgs::obs::set_trace_enabled(true);
  {
    const dgs::obs::TraceSpan outer("test.outer");
    for (int i = 0; i < 3; ++i) {
      const dgs::obs::TraceSpan inner("test.inner");
    }
  }
  dgs::obs::set_trace_enabled(false);
  std::ostringstream out;
  dgs::obs::write_chrome_trace(out);
  dgs::obs::clear_trace();
  const std::string json = out.str();
  std::vector<Span> spans;
  expect(dgs::perfbench::parse_chrome_trace(json, &spans), "export parse", 0,
         1);
  const auto fold = fold_spans(spans);
  const auto outer = fold.find("test.outer");
  const auto inner = fold.find("test.inner");
  if (outer == fold.end() || inner == fold.end()) {
    expect(false, "exported spans present", 0, 1);
    return;
  }
  expect(inner->second.count == 3, "inner count", inner->second.count, 3);
  expect(outer->second.self_ns ==
             outer->second.total_ns - inner->second.total_ns,
         "outer self", outer->second.self_ns,
         outer->second.total_ns - inner->second.total_ns);
}

}  // namespace

int main() {
  test_nesting();
  test_order_independent();
  test_threads_and_siblings();
  test_identical_and_empty();
  test_parse_literal();
  test_parse_exporter();
  if (g_failures > 0) {
    std::fprintf(stderr, "test_span_fold: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "test_span_fold: ok\n");
  return 0;
}
