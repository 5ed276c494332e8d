// Self-tests for the benchmark's own math (loadgen/stats.h): percentiles,
// the choice of windows by stolen time, counter and histogram deltas across
// snapshots, and span self time with nested children. Exits non-zero if any
// check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "loadgen/stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "FAIL: %s: got %.9g want %.9g\n", what, got, want);
    ++failures;
  }
}

void test_least_stolen() {
  using perfbench::least_stolen;
  check(least_stolen({5.0, 0.5, 9.0, 0.1}) == std::vector<std::size_t>({1, 3}),
        "the less stolen half, in window order");
  check(least_stolen({0.0, 1.0, 0.0, 0.0}) == std::vector<std::size_t>({0, 2, 3}),
        "windows tied at the median are kept");
  check(least_stolen({0.0, 0.0, 0.0}) == std::vector<std::size_t>({0, 1, 2}),
        "no steal keeps every window");
  check(least_stolen({2.0, 1.0, 3.0}) == std::vector<std::size_t>({0, 1}),
        "odd count keeps the median window");
  check(least_stolen({}).empty(), "no windows");
}

void test_percentiles() {
  using perfbench::percentile;
  std::vector<std::int64_t> empty;
  near(percentile(empty, 0.5), 0, "empty percentile");
  std::vector<std::int64_t> four = {4, 1, 3, 2};
  near(percentile(four, 0.5), 2, "median of 1..4 (nearest rank)");
  near(percentile(four, 1.0), 4, "p100");
  near(percentile(four, 0.0), 1, "p0");
  std::vector<std::int64_t> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  near(percentile(hundred, 0.99), 99, "p99 of 1..100");
  near(percentile(hundred, 0.5), 50, "p50 of 1..100");
  check(perfbench::samples_beyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  check(perfbench::samples_beyond(100, 0.99) == 1, "1 sample beyond p99 of 100");
  near(perfbench::median_of({3, 1, 2}), 2, "odd median");
  near(perfbench::median_of({4, 1, 3, 2}), 2.5, "even median");
}

void test_deltas() {
  perfbench::Snapshot before;
  perfbench::Snapshot after;
  before.scalars["shard.0.grants"] = 10;
  before.scalars["shard.1.grants"] = 5;
  after.scalars["shard.0.grants"] = 25;
  after.scalars["shard.1.grants"] = 5;
  after.scalars["shard.2.grants"] = 7;  // appeared between the snapshots
  after.scalars["shard.0.releases"] = 99;
  check(perfbench::scalar_delta(before, after, "shard.", ".grants") == 22,
        "counter delta sums matching names, new names count from 0");
  check(perfbench::scalar_delta(before, after, "shard.", ".lease_breaks") == 0,
        "absent counter has zero delta");

  mocha::live::Histogram h;
  h.record(3);
  h.record(100);
  perfbench::Snapshot hb;
  hb.hists["shard.0.wait_us"] = h.snapshot();
  for (int i = 0; i < 99; ++i) h.record(1);
  h.record(5000);
  perfbench::Snapshot ha;
  ha.hists["shard.0.wait_us"] = h.snapshot();
  const auto d = perfbench::hist_delta(hb, ha, "shard.", ".wait_us");
  check(d.count == 100, "histogram delta count");
  check(d.sum == 99 + 5000, "histogram delta sum");
  near(d.percentile(0.5), 1, "delta p50 sees only the new samples");
  near(d.percentile(1.0), 8191, "delta max bucket upper edge");

  // A scraped reply decodes to the same snapshot view.
  mocha::replica::StatsReplyMsg reply;
  reply.metrics.push_back({"shard.0.grants", mocha::replica::StatsReplyMsg::kCounter, 42});
  reply.hists.push_back({"shard.0.wait_us", 2, 3, {1, 1}});
  const perfbench::Snapshot r = perfbench::from_reply(reply);
  check(r.scalars.at("shard.0.grants") == 42, "reply scalar");
  check(r.hists.at("shard.0.wait_us").buckets[1] == 1, "reply histogram bucket");
}

void test_self_time() {
  using perfbench::Span;
  // round [0,100): acquire [10,60) with grant [10,30) + transfer [30,60),
  // write [50,70) overlapping acquire, release [80,90).
  const std::vector<Span> spans = {
      {1, 0, 1, 0, 0, 100},  {2, 1, 1, 1, 10, 60},  {3, 2, 1, 2, 10, 30},
      {4, 2, 1, 3, 30, 60},  {5, 1, 1, 5, 50, 70},  {6, 1, 1, 6, 80, 90},
      {7, 1, 1, 6, 95, 130},  // child running past its parent is clipped
  };
  const auto self = perfbench::self_times(spans);
  check(self[0] == 100 - (60 + 10 + 5), "root self time excludes union of children");
  check(self[1] == 0, "acquire fully covered by grant + transfer");
  check(self[2] == 20 && self[3] == 30, "leaf self time is its duration");
  check(self[6] == 35, "leaf keeps its full duration");
}

}  // namespace

int main() {
  test_percentiles();
  test_least_stolen();
  test_deltas();
  test_self_time();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
