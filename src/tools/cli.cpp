#include "tools/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace gridsim::cli {

namespace {

/// Strict full-token numeric parses: trailing garbage ("12x") and empty
/// tokens are errors, not silent truncations. A real must be finite:
/// strtod's "nan" and "inf" spellings are malformed values here.
bool parse_real(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v))
    return false;
  *out = v;
  return true;
}

bool parse_int(const std::string& s, int* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

OptionParser::OptionParser(std::string command, std::string summary)
    : command_(std::move(command)), summary_(std::move(summary)) {}

OptionParser& OptionParser::declare(const std::string& name, Kind kind,
                                    void* out, const std::string& help,
                                    std::string default_str) {
  if (find(name) != nullptr)
    throw std::logic_error("duplicate option --" + name);
  options_.push_back(Option{name, kind, out, help, std::move(default_str)});
  return *this;
}

OptionParser& OptionParser::flag(const std::string& name, bool* out,
                                 const std::string& help) {
  return declare(name, Kind::kFlag, out, help, "");
}

OptionParser& OptionParser::string_opt(const std::string& name,
                                       std::string* out,
                                       const std::string& help) {
  return declare(name, Kind::kString, out, help, *out);
}

OptionParser& OptionParser::int_opt(const std::string& name, int* out,
                                    const std::string& help) {
  return declare(name, Kind::kInt, out, help, std::to_string(*out));
}

OptionParser& OptionParser::u64_opt(const std::string& name,
                                    std::uint64_t* out,
                                    const std::string& help) {
  return declare(name, Kind::kU64, out, help, std::to_string(*out));
}

OptionParser& OptionParser::real_opt(const std::string& name, double* out,
                                     const std::string& help) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", *out);
  return declare(name, Kind::kReal, out, help, buf);
}

const OptionParser::Option* OptionParser::find(const std::string& name) const {
  for (const auto& opt : options_)
    if (opt.name == name) return &opt;
  return nullptr;
}

bool OptionParser::assign(const Option& opt, const std::string& value) const {
  switch (opt.kind) {
    case Kind::kFlag:
      return false;  // flags never take a value
    case Kind::kString:
      *static_cast<std::string*>(opt.out) = value;
      return true;
    case Kind::kInt:
      return parse_int(value, static_cast<int*>(opt.out));
    case Kind::kU64:
      return parse_u64(value, static_cast<std::uint64_t*>(opt.out));
    case Kind::kReal:
      return parse_real(value, static_cast<double*>(opt.out));
  }
  return false;
}

std::string OptionParser::help() const {
  std::string out = "usage: gridsim " + command_;
  if (!options_.empty()) out += " [options]";
  out += "\n\n" + summary_ + "\n";
  if (options_.empty()) return out;
  out += "\noptions:\n";
  std::size_t width = 0;
  std::vector<std::string> lefts;
  for (const auto& opt : options_) {
    std::string left = "--" + opt.name;
    if (opt.kind != Kind::kFlag) left += " VALUE";
    width = std::max(width, left.size());
    lefts.push_back(std::move(left));
  }
  for (std::size_t i = 0; i < options_.size(); ++i) {
    const auto& opt = options_[i];
    out += "  " + lefts[i] + std::string(width + 2 - lefts[i].size(), ' ') +
           opt.help;
    if (opt.kind != Kind::kFlag && !opt.default_str.empty())
      out += " (default: " + opt.default_str + ")";
    out += "\n";
  }
  out += "  --help" + std::string(width + 2 - 6, ' ') +
         "show this message and exit\n";
  return out;
}

OptionParser::Result OptionParser::parse(int argc, char** argv) const {
  const auto fail = [this](const std::string& message) {
    std::fprintf(stderr, "gridsim %s: %s\n", command_.c_str(),
                 message.c_str());
    std::string valid = "valid options:";
    for (const auto& opt : options_) valid += " --" + opt.name;
    valid += " --help";
    std::fprintf(stderr, "%s\n", valid.c_str());
    return Result::kError;
  };

  for (int i = 0; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0)
      return fail("unexpected argument '" + token + "'");
    std::string key = token.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      inline_value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_inline = true;
    }
    if (key == "help") {
      std::fputs(help().c_str(), stdout);
      return Result::kHelp;
    }
    const Option* opt = find(key);
    if (opt == nullptr) return fail("unknown option '--" + key + "'");
    if (opt->kind == Kind::kFlag) {
      if (has_inline)
        return fail("option --" + key + " takes no value");
      *static_cast<bool*>(opt->out) = true;
      continue;
    }
    std::string value;
    if (has_inline) {
      value = inline_value;
    } else {
      // A value option always consumes the next token, even one starting
      // with '-' (negative numbers, literal strings).
      if (i + 1 >= argc) return fail("option --" + key + " needs a value");
      value = argv[++i];
    }
    if (!assign(*opt, value))
      return fail("option --" + key + ": invalid value '" + value + "'");
  }
  return Result::kOk;
}

}  // namespace gridsim::cli
