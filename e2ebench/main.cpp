// e2ebench: the end-to-end benchmark of the DAT continuous-aggregation loop.
//
//   e2ebench --workload <sim-fleet|udp-push|udp-query> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <file>]
//   e2ebench --selftest
//
// Prints notes, a host/build fingerprint and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes a Chrome trace of the benchmark's calls into each layer.
// Normally started through run.py, which builds this binary first.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workload.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
int run_selftests();
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as exactly `v`: all its digits, no more.
std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

struct Args {
  e2ebench::RunOptions run;
  bool selftest = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\n"
               "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                [--trace-out <file>]\n"
               "                [--git-sha <sha>] [--src-digest <hex>]\n"
               "       e2ebench --selftest\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  a.run.workload.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") a.run.workload = value();
      else if (flag == "--seed") a.run.seed = std::stoull(value());
      else if (flag == "--seconds") a.run.seconds = std::stod(value());
      else if (flag == "--trace") a.run.trace = value() != "0";
      else if (flag == "--trace-out") a.run.trace_out = value();
      else if (flag == "--git-sha") a.git_sha = value();
      else if (flag == "--src-digest") a.src_digest = value();
      else if (flag == "--selftest") a.selftest = true;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.selftest) return a;
  if (a.run.workload.empty()) usage("--workload is required");
  if (!(a.run.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.selftest) return e2ebench::run_selftests();

  const std::string fingerprint =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + json_string(cpu_model()) +
      ", \"build_type\": " + json_string(E2EBENCH_BUILD_TYPE) +
      ", \"optimized\": " + (kOptimized ? "true" : "false") +
      ", \"compiler\": " + json_string(std::string("gcc ") + __VERSION__) +
      ", \"git_sha\": " + json_string(args.git_sha) +
      ", \"src_digest\": " + json_string(args.src_digest) + "}";
  std::printf("e2ebench fingerprint %s\n", fingerprint.c_str());
  std::printf("e2ebench run {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
              json_string(args.run.workload).c_str(),
              static_cast<unsigned long long>(args.run.seed),
              json_number(args.run.seconds).c_str(), args.run.trace ? 1 : 0);
  if (!kOptimized) {
    std::fprintf(stderr,
                 "e2ebench: refusing to time an unoptimised build (build type %s); "
                 "rebuild with -DCMAKE_BUILD_TYPE=Release\n",
                 E2EBENCH_BUILD_TYPE);
    return 3;
  }
  std::fflush(stdout);

  // The socket workloads run on the netio reactor. The UDP harness reads its
  // event-loop backend from this variable; builds with netio as the only
  // backend ignore it.
  ::setenv("DAT_NET_BACKEND", "netio", 1);

  e2ebench::RunResult r;
  try {
    r = e2ebench::run_workload(args.run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: run failed: %s\n", e.what());
    return 1;
  }
  for (const auto& note : r.notes) std::printf("e2ebench note: %s\n", note.c_str());
  if (!r.virtual_digest.empty()) {
    std::printf("e2ebench virtual %s\n", r.virtual_digest.c_str());
  }
  std::string metrics;
  for (const auto& m : args.run.trace ? r.per_layer : r.end_to_end) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
