// Tests for the trace-digest fold behind every campaign digest: each field
// of a trace event must move the digest, and only recorded events fold.
// The catalog-level determinism checks (repeat runs, pinned digests) live
// in tests/campaign_test.cpp.
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "harness/determinism.hpp"
#include "simcore/trace.hpp"

namespace gridsim::harness {
namespace {

constexpr std::uint64_t kBasis = 0x6A09E667F3BCC908ULL;

std::uint64_t digest_of(const TraceEvent& e, std::uint64_t basis = kBasis) {
  std::uint64_t h = basis;
  fold_trace_event(h, e);
  return h;
}

TEST(TraceDigest, SensitiveToEveryEventField) {
  const TraceEvent base{10, TraceKind::kMessage, "p2p", 1024.0, "x"};
  const std::uint64_t d0 = digest_of(base);

  TraceEvent changed = base;
  changed.at = 11;
  EXPECT_NE(digest_of(changed), d0);

  changed = base;
  changed.kind = TraceKind::kPhase;
  EXPECT_NE(digest_of(changed), d0);

  changed = base;
  changed.subject = "collective";
  EXPECT_NE(digest_of(changed), d0);

  changed = base;
  changed.value = std::nextafter(1024.0, 2048.0);
  EXPECT_NE(digest_of(changed), d0);

  changed = base;
  changed.detail = "y";
  EXPECT_NE(digest_of(changed), d0);

  // Same event, different basis (seed) -> different digest.
  EXPECT_NE(digest_of(base, 1), digest_of(base, 2));
}

TEST(TraceDigest, EmptyTraceDigestIsTheBasis) {
  // The campaign folds through a Tracer observer with storage off; events
  // of a disabled kind never reach it, so the digest stays at the basis.
  Tracer tracer;
  tracer.set_storage(false);
  std::uint64_t h = 123;
  tracer.set_observer([&h](const TraceEvent& e) { fold_trace_event(h, e); });
  tracer.record(10, TraceKind::kMessage, "p2p", 1024.0, "x");
  EXPECT_EQ(h, 123u);
  tracer.enable(TraceKind::kMessage);
  tracer.record(10, TraceKind::kMessage, "p2p", 1024.0, "x");
  EXPECT_EQ(h, digest_of(TraceEvent{10, TraceKind::kMessage, "p2p", 1024.0,
                                    "x"},
                         123));
}

}  // namespace
}  // namespace gridsim::harness
