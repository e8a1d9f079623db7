// Shared command-line handling for the micro benches.
//
// Google Benchmark owns the `--benchmark_*` namespace; DGS-specific knobs
// are consumed here *before* benchmark::Initialize sees (and rejects)
// them.  Currently: `--threads=N` / `--threads N` selects the ThreadPool
// lane count the benchmarked pipeline runs with (1 = serial, the default;
// 0 = hardware concurrency), so speedup curves are measurable by sweeping
// the flag.
#pragma once

#include <cstdlib>
#include <cstring>
#include <string>

namespace dgs::bench {

/// Extracts `--threads` from argv (compacting it away so Benchmark's own
/// parser never sees it) and returns the requested lane count, or
/// `default_threads` when absent.
inline int consume_threads_flag(int* argc, char** argv,
                                int default_threads = 1) {
  int threads = default_threads;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
      continue;
    }
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < *argc) {
      threads = std::atoi(argv[i + 1]);
      ++i;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return threads;
}

/// Extracts a `--name=VALUE` / `--name VALUE` string flag (before
/// Benchmark's parser rejects it).  `flag` includes the leading dashes.
/// Returns the value, or "" when absent.
inline std::string consume_string_flag(int* argc, char** argv,
                                       const char* flag) {
  const std::size_t len = std::strlen(flag);
  std::string value;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      value = argv[i] + len + 1;
      continue;
    }
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < *argc) {
      value = argv[i + 1];
      ++i;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return value;
}

/// Integer variant of consume_string_flag; `fallback` when absent.
inline int consume_int_flag(int* argc, char** argv, const char* flag,
                            int fallback) {
  const std::string v = consume_string_flag(argc, argv, flag);
  return v.empty() ? fallback : std::atoi(v.c_str());
}

/// Extracts a bare `--name` switch (no value) and returns whether it was
/// present.  `flag` includes the leading dashes.
inline bool consume_switch_flag(int* argc, char** argv, const char* flag) {
  bool present = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      present = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return present;
}

/// Extracts `--trace-out=FILE` / `--trace-out FILE` (again before
/// Benchmark's parser rejects it).  Returns the path, or "" when absent;
/// the caller enables span tracing and writes the Chrome-trace JSON there
/// after the run.
inline std::string consume_trace_out_flag(int* argc, char** argv) {
  return consume_string_flag(argc, argv, "--trace-out");
}

}  // namespace dgs::bench
