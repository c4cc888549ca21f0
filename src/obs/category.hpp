// Trace/profile categories: the coarse "which subsystem did this" axis
// shared by the trace recorder (per-record tag + enable bitmask) and the
// phase profiler (per-category event/wall-time buckets).
//
// kCatMark is deliberately separate from kCatMedium: interference marking
// skips corruption marks that nothing will ever read, so which marks are
// recorded is an implementation detail that a results-neutral change to
// the marking may move, while every other category follows the simulated
// physics. Trace diffs across builds (obs/trace_diff.hpp) should mask
// marks out; everything else must match record-for-record.
#pragma once

#include <cstdint>
#include <string>

namespace wlan::obs {

enum Category : std::uint16_t {
  kCatSim = 0,   // executive dispatch (one record per event fired)
  kCatMedium,    // transmission start/end + per-receiver delivery
  kCatMark,      // interference corruption marks (path-dependent volume)
  kCatStation,   // MAC state-machine transitions
  kCatCohort,    // contention-arbiter cohort lifecycle
  kCatTraffic,   // packet arrivals and tail drops
  kCatOther,     // events with no trace point (profiler bucket only)
  kNumCategories
};

constexpr std::uint32_t category_bit(Category c) {
  return 1u << static_cast<unsigned>(c);
}

constexpr std::uint32_t kAllCategories = (1u << kNumCategories) - 1;

/// Short lowercase name ("sim", "medium", "mark", ...); "?" out of range.
const char* category_name(Category c);

/// Parses a comma-separated category list ("medium,station"); "all" (or an
/// empty spec) selects every category. Unknown names are ignored.
std::uint32_t parse_categories(const std::string& spec);

}  // namespace wlan::obs
