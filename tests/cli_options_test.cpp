// Tests for the typed option parser behind every gridsim subcommand.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tools/cli.hpp"

namespace gridsim::cli {
namespace {

/// Runs parse() over a token list, managing the char*[] plumbing.
OptionParser::Result parse_tokens(const OptionParser& parser,
                                  std::vector<std::string> tokens) {
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (auto& t : tokens) argv.push_back(t.data());
  return parser.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(OptionParser, TypedValuesAndDefaults) {
  int jobs = 4;
  double bytes = 1.5e6;
  std::uint64_t seed = 7;
  std::string out = "here";
  bool quick = false;
  OptionParser p("demo", "demo command");
  p.int_opt("jobs", &jobs, "worker threads")
      .real_opt("bytes", &bytes, "message size")
      .u64_opt("seed", &seed, "rng seed")
      .string_opt("out", &out, "output dir")
      .flag("quick", &quick, "quick mode");

  EXPECT_EQ(parse_tokens(p, {"--jobs", "8", "--bytes", "2e7", "--quick"}),
            OptionParser::Result::kOk);
  EXPECT_EQ(jobs, 8);
  EXPECT_DOUBLE_EQ(bytes, 2e7);
  EXPECT_TRUE(quick);
  // Untouched options keep their initial values.
  EXPECT_EQ(seed, 7u);
  EXPECT_EQ(out, "here");
}

TEST(OptionParser, KeyEqualsValueForm) {
  int jobs = 1;
  std::string filter = "*";
  OptionParser p("demo", "demo");
  p.int_opt("jobs", &jobs, "").string_opt("filter", &filter, "");
  EXPECT_EQ(parse_tokens(p, {"--jobs=12", "--filter=table4*"}),
            OptionParser::Result::kOk);
  EXPECT_EQ(jobs, 12);
  EXPECT_EQ(filter, "table4*");
  // An = in the value survives: only the first split counts.
  EXPECT_EQ(parse_tokens(p, {"--filter=a=b"}), OptionParser::Result::kOk);
  EXPECT_EQ(filter, "a=b");
}

TEST(OptionParser, ValueOptionConsumesDashedToken) {
  // Regression: the old stringly parser dropped values that started with
  // `--`, silently treating `--expect --foo` as an empty --expect.
  std::string expect;
  int delta = 0;
  OptionParser p("demo", "demo");
  p.string_opt("expect", &expect, "").int_opt("delta", &delta, "");
  EXPECT_EQ(parse_tokens(p, {"--expect", "--weird-value"}),
            OptionParser::Result::kOk);
  EXPECT_EQ(expect, "--weird-value");
  EXPECT_EQ(parse_tokens(p, {"--delta", "-3"}), OptionParser::Result::kOk);
  EXPECT_EQ(delta, -3);
}

TEST(OptionParser, RejectsUnknownAndMalformed) {
  int jobs = 1;
  bool quick = false;
  OptionParser p("demo", "demo");
  p.int_opt("jobs", &jobs, "").flag("quick", &quick, "");
  EXPECT_EQ(parse_tokens(p, {"--nope"}), OptionParser::Result::kError);
  EXPECT_EQ(parse_tokens(p, {"stray"}), OptionParser::Result::kError);
  EXPECT_EQ(parse_tokens(p, {"--jobs"}), OptionParser::Result::kError);
  EXPECT_EQ(parse_tokens(p, {"--jobs", "12x"}), OptionParser::Result::kError);
  EXPECT_EQ(parse_tokens(p, {"--jobs", ""}), OptionParser::Result::kError);
  EXPECT_EQ(parse_tokens(p, {"--quick=yes"}), OptionParser::Result::kError);
  // Failed parses leave earlier assignments applied but report the error.
  EXPECT_EQ(jobs, 1);
}

TEST(OptionParser, U64RejectsNegative) {
  std::uint64_t seed = 1;
  OptionParser p("demo", "demo");
  p.u64_opt("seed", &seed, "");
  EXPECT_EQ(parse_tokens(p, {"--seed", "-1"}), OptionParser::Result::kError);
  EXPECT_EQ(parse_tokens(p, {"--seed", "18446744073709551615"}),
            OptionParser::Result::kOk);
  EXPECT_EQ(seed, 18446744073709551615ull);
}

TEST(OptionParser, RealRejectsNonFinite) {
  double timeout = 5;
  OptionParser p("demo", "demo");
  p.real_opt("timeout-s", &timeout, "");
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                          "1e400", "abc"}) {
    EXPECT_EQ(parse_tokens(p, {"--timeout-s", bad}),
              OptionParser::Result::kError)
        << bad;
    EXPECT_EQ(timeout, 5) << bad;
  }
  EXPECT_EQ(parse_tokens(p, {"--timeout-s=nan"}), OptionParser::Result::kError);
  // Large finite values still parse.
  EXPECT_EQ(parse_tokens(p, {"--timeout-s", "1e300"}),
            OptionParser::Result::kOk);
  EXPECT_EQ(timeout, 1e300);
  EXPECT_EQ(parse_tokens(p, {"--timeout-s", "-0.5"}), OptionParser::Result::kOk);
  EXPECT_EQ(timeout, -0.5);
}

TEST(OptionParser, HelpListsOptionsAndDefaults) {
  int jobs = 4;
  bool quick = false;
  OptionParser p("demo", "runs the demo");
  p.int_opt("jobs", &jobs, "worker threads").flag("quick", &quick, "fast");
  EXPECT_EQ(parse_tokens(p, {"--help"}), OptionParser::Result::kHelp);
  const std::string h = p.help();
  EXPECT_NE(h.find("usage: gridsim demo"), std::string::npos);
  EXPECT_NE(h.find("runs the demo"), std::string::npos);
  EXPECT_NE(h.find("--jobs VALUE"), std::string::npos);
  EXPECT_NE(h.find("(default: 4)"), std::string::npos);
  EXPECT_NE(h.find("--quick"), std::string::npos);
  EXPECT_NE(h.find("--help"), std::string::npos);
}

TEST(OptionParser, DuplicateDeclarationThrows) {
  int a = 0, b = 0;
  OptionParser p("demo", "demo");
  p.int_opt("jobs", &a, "");
  EXPECT_THROW(p.int_opt("jobs", &b, ""), std::logic_error);
}

}  // namespace
}  // namespace gridsim::cli
