// The SAGESIM_* environment knobs: one table of every setting the labs
// honour, and the one reader every module goes through.
//
// A well-formed value is used as given.  An empty or malformed one (trailing
// junk, a sign on a count, NaN, a value outside the row's range, a word not
// in its list) reads as the row's documented default, exactly as an unset
// variable does; check_knobs() reports it, and any SAGESIM_* name the table
// does not know, as a Status.  The environment is read at call time: a
// module that wants a knob fixed for the process caches the value itself.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "runtime/status.hpp"

namespace sagesim::runtime {

enum class KnobKind : std::uint8_t { kUnsigned, kDouble, kBool, kChoice, kPath };

struct Knob {
  const char* name;
  KnobKind kind;
  double lo, hi;         ///< inclusive range (kUnsigned, kDouble)
  const char* words;     ///< accepted values, '|'-separated (kBool, kChoice)
  const char* fallback;  ///< the documented default, as the knob's own text
  const char* doc;       ///< what reads it
};

/// Every knob, in the order of README's "Environment knobs" table.
std::span<const Knob> knob_table();

/// True when @p text is a well-formed, in-range value of @p knob.
bool knob_accepts(const Knob& knob, std::string_view text);

/// The environment's raw text for knob @p name, when the variable is set.
std::optional<std::string> knob_env(std::string_view name);

/// The value in effect for knob @p name: the environment's when it is
/// well-formed, else the row's fallback.  A name outside the table is a
/// programming error (std::invalid_argument).  The typed readers parse that
/// text; a fallback of "" (no default value) reads as 0.
std::string knob(std::string_view name);
std::uint64_t knob_unsigned(std::string_view name);
double knob_double(std::string_view name);
bool knob_bool(std::string_view name);

/// kInvalidArgument naming the first SAGESIM_* variable in the environment
/// that is malformed, out of range, or not in the table; OK otherwise.
Status check_knobs();

}  // namespace sagesim::runtime
