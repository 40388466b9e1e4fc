#include "harness/determinism.hpp"

#include <cstring>
#include <string>

namespace gridsim::harness {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

void fold_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fold_string(std::uint64_t& h, const std::string& s) {
  fold_digest(h, s.size());
  fold_bytes(h, s.data(), s.size());
}

/// The value field is hashed by bit pattern, not by rounded text rendering:
/// a single ULP of nondeterministic drift must change the digest.
void fold_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  fold_digest(h, bits);
}

}  // namespace

void fold_digest(std::uint64_t& h, std::uint64_t v) { fold_bytes(h, &v, 8); }

void fold_trace_event(std::uint64_t& h, const TraceEvent& e) {
  fold_digest(h, static_cast<std::uint64_t>(e.at));
  fold_digest(h, static_cast<std::uint64_t>(e.kind));
  fold_string(h, e.subject);
  fold_double(h, e.value);
  fold_string(h, e.detail);
}

}  // namespace gridsim::harness
