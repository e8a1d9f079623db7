#include "perfbench/span_fold.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dgs::perfbench {

std::map<std::string, SpanStats, std::less<>> fold_spans(
    std::vector<Span> spans) {
  // Parents sort before the spans they contain: by thread, then start,
  // then longest first.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> open;  // Indices of the enclosing spans.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!open.empty()) {
      const Span& top = spans[open.back()];
      if (top.tid == s.tid && top.start_ns <= s.start_ns &&
          s.end_ns <= top.end_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += s.end_ns - s.start_ns;
    open.push_back(i);
  }
  std::map<std::string, SpanStats, std::less<>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = out.find(spans[i].name);
    if (it == out.end()) {
      it = out.emplace(std::string(spans[i].name), SpanStats{}).first;
    }
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    it->second.count += 1;
    it->second.total_ns += dur;
    it->second.self_ns += dur - child_ns[i];
  }
  return out;
}

bool parse_chrome_trace(std::string_view json, std::vector<Span>* out) {
  constexpr std::string_view kName = "{\"name\": \"";
  std::size_t pos = 0;
  while ((pos = json.find(kName, pos)) != std::string_view::npos) {
    const std::size_t name_begin = pos + kName.size();
    const std::size_t name_end = json.find('"', name_begin);
    const std::size_t line_end = json.find('\n', name_begin);
    if (name_end == std::string_view::npos || name_end > line_end) {
      return false;
    }
    const std::string line(json.substr(
        name_end, line_end == std::string_view::npos ? std::string_view::npos
                                                     : line_end - name_end));
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    if (std::sscanf(line.c_str(),
                    "\", \"cat\": \"dgs\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %d, \"ts\": %lf, \"dur\": %lf}",
                    &tid, &ts_us, &dur_us) != 3) {
      return false;
    }
    // The exporter prints nanoseconds as microseconds with three decimals;
    // rounding recovers the recorded integers exactly.
    const auto start = static_cast<std::int64_t>(std::llround(ts_us * 1e3));
    const auto dur = static_cast<std::int64_t>(std::llround(dur_us * 1e3));
    out->push_back(Span{json.substr(name_begin, name_end - name_begin), tid,
                        start, start + dur});
    pos = name_end;
  }
  return true;
}

}  // namespace dgs::perfbench
