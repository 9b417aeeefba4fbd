#pragma once

// Minimal machine-readable output for the plain-main() benchmarks: an
// ordered JSON object builder plus the BENCH_<suite>.json writing
// convention (suite name, config, metrics, host fingerprint) shared by CI's
// perf-smoke job and EXPERIMENTS.md. google-benchmark binaries use their
// own JSONReporter instead; this is for the harness-style benches.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

// Set per bench binary by bench/CMakeLists.txt.
#ifndef DAT_GIT_SHA
#define DAT_GIT_SHA "unknown"
#endif
#ifndef DAT_BUILD_TYPE
#define DAT_BUILD_TYPE "unknown"
#endif

namespace dat::benchjson {

inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Insertion-ordered JSON object; values are serialized on insertion so the
/// builder stays a flat list of key/text pairs.
class Object {
 public:
  Object& put(const std::string& key, const std::string& value) {
    return raw(key, "\"" + escape(value) + "\"");
  }
  Object& put(const std::string& key, const char* value) {
    return put(key, std::string(value));
  }
  Object& put(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Object& put(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Object& put(const std::string& key, unsigned value) {
    return raw(key, std::to_string(value));
  }
  Object& put(const std::string& key, int value) {
    return raw(key, std::to_string(value));
  }
  Object& put(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << value;
    return raw(key, os.str());
  }
  Object& put(const std::string& key, const Object& value) {
    return raw(key, value.dump());
  }
  Object& put(const std::string& key, const std::vector<Object>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text += ",";
      text += values[i].dump();
    }
    text += "]";
    return raw(key, text);
  }

  [[nodiscard]] std::string dump() const {
    std::string text = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) text += ",";
      text += "\"" + escape(fields_[i].first) + "\":" + fields_[i].second;
    }
    text += "}";
    return text;
  }

 private:
  Object& raw(const std::string& key, std::string serialized) {
    fields_.emplace_back(key, std::move(serialized));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

inline std::string cpu_model() {
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

/// The host and build a run measured, with the fields e2ebench prints:
/// numbers from different fingerprints are not compared.
inline Object host_fingerprint() {
  Object host;
  host.put("nproc", std::thread::hardware_concurrency())
      .put("cpu_model", cpu_model())
      .put("build_type", DAT_BUILD_TYPE)
      .put("compiler", std::string("gcc ") + __VERSION__)
      .put("git_sha", DAT_GIT_SHA);
  return host;
}

/// Writes `BENCH_<suite>.json` into the working directory, with the host
/// fingerprint appended as "host"; returns the path.
inline std::string write_suite(const std::string& suite, const Object& root) {
  const std::string path = "BENCH_" + suite + ".json";
  Object stamped = root;
  stamped.put("host", host_fingerprint());
  std::ofstream out(path);
  out << stamped.dump() << "\n";
  return path;
}

}  // namespace dat::benchjson
