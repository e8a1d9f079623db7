// Span fold for the traced benchmark pass: nests complete spans by interval
// containment on each thread and splits every span's duration into the
// part covered by its direct children and its own self time.
//
// Spans come from two places: the library's DGS_TRACE_SPAN spans, read
// back from the Chrome-trace JSON that obs::write_chrome_trace emits, and
// the benchmark's own spans (the weather probe's per-call intervals).  Both
// use steady_clock nanoseconds, so they nest into one tree per thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dgs::perfbench {

struct Span {
  std::string_view name;  ///< Must outlive the fold (literal or trace text).
  int tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct SpanStats {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;  ///< Sum of durations.
  std::int64_t self_ns = 0;   ///< Durations minus direct children's.
};

/// Self time per span name.  On one thread a span is the child of the
/// innermost span whose [start, end] contains it; spans on different
/// threads never nest.  Input order does not matter.
std::map<std::string, SpanStats, std::less<>> fold_spans(
    std::vector<Span> spans);

/// Parses the "X" complete events of an obs::write_chrome_trace export
/// (one event per line, microsecond timestamps with nanosecond digits).
/// Names are views into `json`.  Returns false on a line it cannot read.
bool parse_chrome_trace(std::string_view json, std::vector<Span>* out);

}  // namespace dgs::perfbench
