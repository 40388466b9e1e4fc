// JSON string escaping shared by every report writer (CAMPAIGN.json,
// MC.json, BENCH_micro.json).
#pragma once

#include <string>

namespace gridsim {

/// Escapes `s` for use inside a JSON string literal: quotes and
/// backslashes are backslash-escaped, control characters become \u00XX.
std::string json_escape(const std::string& s);

}  // namespace gridsim
