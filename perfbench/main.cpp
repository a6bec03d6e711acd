// of_perfbench — the child-process half of the benchmark (run.py is the
// harness). Subcommands, each printing one JSON line on stdout:
//
//   of_perfbench fed   --workload W --seed N --rounds R [--trace]
//   of_perfbench probe --workload W --seed N --seconds S
//   of_perfbench stamp
//
// `fed` runs federations (fed.cpp), `probe` the per-call layer timers
// (probes.cpp), `stamp` reports the build: SIMD level, compiler, build type.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "simd/simd.hpp"

namespace perfbench {

int fed_main(const Workload& w, std::uint64_t seed, std::size_t rounds, bool traced);
int probe_main(const Workload& w, std::uint64_t seed, double seconds);

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + json_number(v[i]);
  return out + "]";
}

void JsonObject::key(const std::string& k) {
  body_ << (first_ ? "" : ",") << '"' << json_escape(k) << "\":";
  first_ = false;
}
JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  body_ << json_number(v);
  return *this;
}
JsonObject& JsonObject::integer(const std::string& k, std::int64_t v) {
  key(k);
  body_ << v;
  return *this;
}
JsonObject& JsonObject::boolean(const std::string& k, bool v) {
  key(k);
  body_ << (v ? "true" : "false");
  return *this;
}
JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ << '"' << json_escape(v) << '"';
  return *this;
}
JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ << json;
  return *this;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: of_perfbench fed|probe|stamp [--workload W] [--seed N] "
                 "[--rounds R] [--seconds S] [--trace]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  std::string workload_name;
  std::uint64_t seed = 1;
  std::size_t rounds = 0;
  double seconds = 2.0;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value)
      workload_name = argv[++i];
    else if (a == "--seed" && has_value)
      seed = std::stoull(argv[++i]);
    else if (a == "--rounds" && has_value)
      rounds = std::stoul(argv[++i]);
    else if (a == "--seconds" && has_value)
      seconds = std::stod(argv[++i]);
    else if (a == "--trace")
      traced = true;
    else {
      std::cerr << "of_perfbench: unknown argument '" << a << "'\n";
      return 2;
    }
  }
  try {
    if (cmd == "stamp") {
      of::simd::configure(of::simd::Mode::Auto);
      JsonObject o;
      o.str("kind", "stamp")
          .str("simd", of::simd::active_level())
          .str("compiler", OF_PERFBENCH_COMPILER)
          .str("build_type", OF_PERFBENCH_BUILD_TYPE);
      std::cout << o.done() << std::endl;
      return 0;
    }
    const Workload& w = workload(workload_name);
    if (cmd == "fed") {
      if (rounds == 0) throw std::invalid_argument("fed needs --rounds R (R >= 1)");
      return fed_main(w, seed, rounds, traced);
    }
    if (cmd == "probe") return probe_main(w, seed, seconds);
    std::cerr << "of_perfbench: unknown subcommand '" << cmd << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "of_perfbench: " << e.what() << '\n';
    return 1;
  }
}
