// Shared formatting helpers for the bench binaries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "compute/autotuner.hpp"
#include "compute/plan.hpp"
#include "runtime/knobs.hpp"

namespace bench {

inline void header(const std::string& id, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Renders a horizontal ASCII bar scaled so that @p max_value spans
/// @p width characters.
inline std::string bar(double value, double max_value, int width = 40) {
  if (max_value <= 0.0) return "";
  int n = static_cast<int>(value / max_value * width + 0.5);
  if (n < 0) n = 0;
  if (n > width) n = width;
  return std::string(static_cast<std::size_t>(n), '#');
}

/// Execution-environment snapshot recorded into every BENCH_*.json so a
/// delta between two baselines is attributable: worker count vs physical
/// cores (a 1-core host cannot scale, however many threads it runs), which
/// micro-kernel family dispatched, whether the tuning cache fed the
/// tilings or the defaults did, and which SAGESIM_* knobs were set.
struct RunInfo {
  unsigned workers{0};       ///< effective pool size for the run
  unsigned cpus_online{0};   ///< hardware threads actually available
  const char* isa{""};       ///< "avx2" / "portable" dispatch choice
  std::uint64_t tune_hits{0}, tune_misses{0};
  bool tune_loaded{false};   ///< a SAGESIM_TUNE_CACHE file was read
  /// One per knob the environment sets: the value in effect and whether it
  /// came from the environment ("env") or, malformed there, the default.
  struct Knob {
    std::string name, value, source;
  };
  std::vector<Knob> knobs;
  std::string knob_error;  ///< runtime::check_knobs() message, "" when OK
};

inline RunInfo run_info(unsigned workers) {
  RunInfo info;
  info.workers = workers;
  info.cpus_online = std::thread::hardware_concurrency();
  info.isa = sagesim::compute::isa_name();
  const auto st = sagesim::compute::Autotuner::shared().stats();
  info.tune_hits = st.hits;
  info.tune_misses = st.misses;
  info.tune_loaded = st.loaded;
  namespace rt = sagesim::runtime;
  for (const rt::Knob& k : rt::knob_table())
    if (const auto raw = rt::knob_env(k.name))
      info.knobs.push_back({k.name, rt::knob(k.name),
                            rt::knob_accepts(k, *raw) ? "env" : "default"});
  info.knob_error = rt::check_knobs().message();
  return info;
}

/// @p s as a JSON string literal.
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// Emits the RunInfo as a `"run": {...}` JSON member (no trailing comma).
/// `knobs` and `knob_error` appear only when there is something to say.
inline void json_run_info(std::FILE* f, const RunInfo& info) {
  std::fprintf(f,
               "  \"run\": {\"workers\": %u, \"cpus_online\": %u, "
               "\"isa\": \"%s\", \"tune_hits\": %llu, "
               "\"tune_misses\": %llu, \"tune_cache_loaded\": %s",
               info.workers, info.cpus_online, info.isa,
               static_cast<unsigned long long>(info.tune_hits),
               static_cast<unsigned long long>(info.tune_misses),
               info.tune_loaded ? "true" : "false");
  for (std::size_t i = 0; i < info.knobs.size(); ++i) {
    const RunInfo::Knob& k = info.knobs[i];
    std::fprintf(f, "%s\"%s\": {\"value\": %s, \"source\": \"%s\"}",
                 i == 0 ? ", \"knobs\": {" : ", ", k.name.c_str(),
                 json_string(k.value).c_str(), k.source.c_str());
  }
  if (!info.knobs.empty()) std::fprintf(f, "}");
  if (!info.knob_error.empty())
    std::fprintf(f, ", \"knob_error\": %s",
                 json_string(info.knob_error).c_str());
  std::fprintf(f, "}");
}

/// Parses a `--workers` list ("1,2,8") into pool sizes.  Each element must
/// be a pool size SAGESIM_WORKERS accepts (the whole string, 1-4095: no
/// sign, no wrap, no empty element); otherwise, or on empty input, the
/// result is @p fallback.
inline std::vector<unsigned> parse_workers(std::string_view arg,
                                           std::vector<unsigned> fallback) {
  namespace rt = sagesim::runtime;
  const auto table = rt::knob_table();
  const rt::Knob& row = *std::find_if(
      table.begin(), table.end(), [](const rt::Knob& k) {
        return std::string_view(k.name) == "SAGESIM_WORKERS";
      });
  std::vector<unsigned> out;
  for (;;) {
    const std::size_t comma = arg.find(',');
    const std::string_view item = arg.substr(0, comma);
    if (!rt::knob_accepts(row, item)) return fallback;
    out.push_back(static_cast<unsigned>(std::stoul(std::string(item))));
    if (comma == std::string_view::npos) return out;
    arg.remove_prefix(comma + 1);
  }
}

}  // namespace bench
