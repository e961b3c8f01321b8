#include "runtime/knobs.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

extern char** environ;

namespace sagesim::runtime {

namespace {

constexpr double kU64Max = 18446744073709551615.0;
constexpr const char* kBoolWords = "0|1|off|on|false|true";

constexpr Knob kKnobs[] = {
    {"SAGESIM_WORKERS", KnobKind::kUnsigned, 1, 4095, nullptr, "0",
     "runtime::Scheduler::shared() pool size (0: one per hardware thread)"},
    {"SAGESIM_TUNE_CACHE", KnobKind::kPath, 0, 0, nullptr, "",
     "compute::Autotuner cache file (unset: built-in tilings)"},
    {"SAGESIM_HOST_BACKEND", KnobKind::kChoice, 0, 0, "blocked|naive",
     "blocked", "tensor::ops::host_backend(): host GEMM/SpMM engine"},
    {"SAGESIM_MEM_POOL", KnobKind::kBool, 0, 0, kBoolWords, "on",
     "mem::host_pool() and device pools cache freed blocks"},
    {"SAGESIM_FAULT_SEED", KnobKind::kUnsigned, 0, kU64Max, nullptr, "",
     "runtime::FaultConfig::from_env() seed (unset: no injected faults)"},
    {"SAGESIM_FAULT_RATE", KnobKind::kDouble, 0, 1, nullptr, "0.05",
     "FaultConfig::from_env() preemption probability once a seed is set"},
    {"SAGESIM_GPU_FIDELITY", KnobKind::kChoice, 0, 0, "analytic|warp",
     "analytic", "gpu::default_fidelity(): how launches are priced"},
    {"SAGESIM_DDP_BUCKET_MB", KnobKind::kUnsigned, 1, 1 << 20, nullptr, "0",
     "ddp gradient bucket in MiB (0: the tuned size, else 4)"},
    {"SAGESIM_RAG_MAX_BATCH", KnobKind::kUnsigned, 1, 1 << 16, nullptr, "16",
     "rag::ServeOptions::from_env(): batcher flush size"},
    {"SAGESIM_RAG_MAX_DELAY_US", KnobKind::kUnsigned, 0, 6e7, nullptr, "200",
     "ServeOptions::from_env(): batcher wait for the oldest query"},
    {"SAGESIM_RAG_EMBED_CACHE", KnobKind::kUnsigned, 0, 1 << 24, nullptr,
     "1024", "ServeOptions::from_env(): embedding LRU entries (0: off)"},
    {"SAGESIM_RAG_RESULT_CACHE", KnobKind::kUnsigned, 0, 1 << 24, nullptr,
     "4096", "ServeOptions::from_env(): answer LRU entries (0: off)"},
    {"SAGESIM_RAG_DEADLINE_S", KnobKind::kDouble, 0, 86400, nullptr, "0",
     "ServeOptions::from_env(): per-request deadline (0: none)"},
};

/// Whole-string parse: no leading space or sign, no trailing junk, no wrap.
template <typename T>
bool parse(std::string_view s, T& v) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc{} && end == s.data() + s.size();
}

bool in_words(std::string_view words, std::string_view s) {
  for (;;) {
    const auto bar = words.find('|');
    if (words.substr(0, bar) == s) return true;
    if (bar == std::string_view::npos) return false;
    words.remove_prefix(bar + 1);
  }
}

const Knob* find_knob(std::string_view name) {
  for (const Knob& k : kKnobs)
    if (name == k.name) return &k;
  return nullptr;
}

const Knob& row(std::string_view name) {
  const Knob* k = find_knob(name);
  if (k == nullptr)
    throw std::invalid_argument("no knob " + std::string(name));
  return *k;
}

std::string expected(const Knob& k) {
  if (k.kind == KnobKind::kPath) return "a non-empty path";
  if (k.words != nullptr) return std::string("one of ") + k.words;
  char buf[80];
  std::snprintf(buf, sizeof buf, "%s in [%.17g, %.17g]",
                k.kind == KnobKind::kUnsigned ? "an integer" : "a number",
                k.lo, k.hi);
  return buf;
}

}  // namespace

std::span<const Knob> knob_table() { return kKnobs; }

bool knob_accepts(const Knob& k, std::string_view s) {
  switch (k.kind) {
    case KnobKind::kUnsigned: {
      std::uint64_t v = 0;
      return parse(s, v) && static_cast<double>(v) >= k.lo &&
             static_cast<double>(v) <= k.hi;
    }
    case KnobKind::kDouble: {
      double v = 0.0;  // NaN fails both comparisons
      return parse(s, v) && v >= k.lo && v <= k.hi;
    }
    case KnobKind::kPath: return !s.empty();
    default: return in_words(k.words, s);
  }
}

std::optional<std::string> knob_env(std::string_view name) {
  const char* v = std::getenv(row(name).name);
  return v != nullptr ? std::optional<std::string>(v) : std::nullopt;
}

std::string knob(std::string_view name) {
  const Knob& k = row(name);
  const char* v = std::getenv(k.name);
  return v != nullptr && knob_accepts(k, v) ? v : k.fallback;
}

std::uint64_t knob_unsigned(std::string_view name) {
  std::uint64_t v = 0;
  parse(knob(name), v);
  return v;
}

double knob_double(std::string_view name) {
  double v = 0.0;
  parse(knob(name), v);
  return v;
}

bool knob_bool(std::string_view name) {
  return in_words("1|on|true", knob(name));
}

Status check_knobs() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (!entry.starts_with("SAGESIM_")) continue;
    const auto eq = entry.find('=');
    const Knob* k = find_knob(entry.substr(0, eq));
    const std::string_view value =
        eq == std::string_view::npos ? "" : entry.substr(eq + 1);
    if (k == nullptr)
      return Status::invalid_argument(
          std::string(entry.substr(0, eq)) +
          " is not a knob (README \"Environment knobs\" lists them)");
    if (!knob_accepts(*k, value))
      return Status::invalid_argument(
          std::string(entry) + ": expected " + expected(*k) +
          "; using the default \"" + k->fallback + "\" (" + k->doc + ")");
  }
  return {};
}

}  // namespace sagesim::runtime
