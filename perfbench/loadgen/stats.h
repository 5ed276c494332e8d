// Benchmark-side statistics: exact percentiles over raw samples, deltas of
// registry counters and log2 histograms between two snapshots, and the
// span self-time computation of the traced run. Header-only so the
// self-test links exactly the code the generator runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "live/telemetry.h"
#include "replica/wire.h"

namespace perfbench {

// Nearest-rank percentile of `samples` (p in [0, 1]); sorts in place.
// 0 for an empty set. p = 0.5 of {1,2,3,4} is 2, p = 0.99 of 1..100 is 99.
inline double percentile(std::vector<std::int64_t>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return static_cast<double>(samples[idx]);
}

inline double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Samples at or beyond the nearest-rank p-th percentile. A percentile is
// worth reporting only with at least ten samples beyond it.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

// Indices, in window order, of the windows whose share of host CPU time
// stolen by the hypervisor (`steal`, one entry per window) is at most the
// median window's: the more contended half is left out, and every window
// is kept when none was more contended than the median.
inline std::vector<std::size_t> least_stolen(const std::vector<double>& steal) {
  const double median = median_of(steal);
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= median) kept.push_back(i);
  }
  return kept;
}

// A flat view of one registry snapshot, local or scraped from the server:
// counters/gauges by name, histograms by name.
struct Snapshot {
  std::map<std::string, std::int64_t> scalars;
  std::map<std::string, mocha::live::Histogram::Snapshot> hists;
};

inline Snapshot from_registry(const mocha::live::MetricsRegistry::Snapshot& s) {
  Snapshot out;
  for (const auto& m : s.metrics) out.scalars[m.name] = m.value;
  for (const auto& h : s.hists) out.hists[h.name] = h.hist;
  return out;
}

inline Snapshot from_reply(const mocha::replica::StatsReplyMsg& reply) {
  Snapshot out;
  for (const auto& m : reply.metrics) out.scalars[m.name] = m.value;
  for (const auto& h : reply.hists) {
    mocha::live::Histogram::Snapshot hist;
    hist.count = h.count;
    hist.sum = h.sum;
    const std::size_t n = std::min(h.buckets.size(), hist.buckets.size());
    for (std::size_t i = 0; i < n; ++i) hist.buckets[i] = h.buckets[i];
    out.hists[h.name] = hist;
  }
  return out;
}

// True when `name` looks like "<prefix><anything><suffix>".
inline bool matches(const std::string& name, const std::string& prefix,
                    const std::string& suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Sum over every scalar matching prefix*suffix of (after - before). A metric
// that first appears in `after` counts from zero.
inline std::int64_t scalar_delta(const Snapshot& before, const Snapshot& after,
                                 const std::string& prefix,
                                 const std::string& suffix) {
  std::int64_t total = 0;
  for (const auto& [name, value] : after.scalars) {
    if (!matches(name, prefix, suffix)) continue;
    auto it = before.scalars.find(name);
    total += value - (it == before.scalars.end() ? 0 : it->second);
  }
  return total;
}

// Bucket-wise (after - before) merged over every histogram matching
// prefix*suffix: the distribution of samples recorded between the two.
inline mocha::live::Histogram::Snapshot hist_delta(const Snapshot& before,
                                                   const Snapshot& after,
                                                   const std::string& prefix,
                                                   const std::string& suffix) {
  mocha::live::Histogram::Snapshot total;
  for (const auto& [name, hist] : after.hists) {
    if (!matches(name, prefix, suffix)) continue;
    mocha::live::Histogram::Snapshot d = hist;
    auto it = before.hists.find(name);
    if (it != before.hists.end()) {
      d.count -= it->second.count;
      d.sum -= it->second.sum;
      for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] -= it->second.buckets[i];
      }
    }
    total.merge(d);
  }
  return total;
}

// One traced interval. `parent` is 0 for a root; spans of one round share
// `round` as their identifier.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t round = 0;
  int name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Self time of every span: its duration minus the part of it that the
// union of its children covers (children are clipped to the parent, and
// overlapping children count once). Indexed like `spans`.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[it->second].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

}  // namespace perfbench
