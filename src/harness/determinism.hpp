// Trace-digest primitives.
//
// The paper's every figure and table assumes the simulator is a
// deterministic function of its inputs: events at equal timestamps fire in
// FIFO order, so two runs of the same scenario must produce bit-identical
// event traces. The campaign runner makes that promise checkable by folding
// every trace event of every simulation a scenario runs, plus each
// simulation's final engine state, into a 64-bit FNV-1a digest
// (harness/campaign.hpp); `scripts/check_digests.sh` compares those digests
// across job counts and solver modes, and tests/campaign_test.cpp pins them.
#pragma once

#include <cstdint>

#include "simcore/trace.hpp"

namespace gridsim::harness {

/// Fold one value / one trace event into a running FNV-1a hash. Every event
/// contributes its timestamp, kind, subject, value bit pattern and detail
/// string, so a streaming consumer (a `Tracer` observer with storage off)
/// digests arbitrarily long scenarios in O(1) memory.
void fold_digest(std::uint64_t& h, std::uint64_t v);
void fold_trace_event(std::uint64_t& h, const TraceEvent& e);

}  // namespace gridsim::harness
