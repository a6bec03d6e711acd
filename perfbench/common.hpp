// Shared pieces of the perfbench driver binary: the workload table, the
// process-wide allocation counter, and a minimal JSON writer for the one-line
// records run.py reads back.
#pragma once

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

// Heap allocations made by this process so far (every operator new form;
// alloc_hook.cpp replaces them).
std::uint64_t allocs() noexcept;

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The static shape of one workload. Rounds and seeds come from the command
// line (run.py owns both); everything else is fixed here so every run of a
// workload measures the same federation.
struct Workload {
  std::string name;
  std::string model;
  std::string preset;
  std::size_t train_per_class = 0;  // 0 = preset default
  std::string algorithm;            // registry basename
  float lr = 0.05f;                 // client SGD learning rate (momentum 0.9)
  bool dp = false;
  double dp_epsilon = 1000.0;
  bool qsgd = false;
  bool serve = false;
};

constexpr int kClients = 3;
constexpr std::size_t kBatchSize = 32;

// Known workloads, including the failure reproducer run.py's self-test uses.
const Workload& workload(const std::string& name);

// One flat JSON object, written field by field.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, std::int64_t v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& str(const std::string& key, const std::string& v);
  // Pre-rendered JSON (nested object or array).
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_.str() + "}"; }

 private:
  void key(const std::string& k);
  std::ostringstream body_;
  bool first_ = true;
};

std::string json_array(const std::vector<double>& v);

}  // namespace perfbench
