// Job-level observability tests: mergeable histogram data (unit + fuzz),
// RankSnapshot wire roundtrip, Collector phase statistics and straggler
// identification, the collective aggregate() over a multi-rank world with
// an injected slow rank, and the critical-path attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <random>
#include <vector>

#include "io_test_util.hpp"
#include "mpiio/file.hpp"
#include "obs/agg.hpp"
#include "obs/metrics.hpp"
#include "pfs/mem_file.hpp"
#include "pfs/throttled_file.hpp"
#include "simmpi/comm.hpp"

namespace llio {
namespace {

/// The registry and tracer are process-global; every test here scopes
/// its configuration and restores the quiet defaults on the way out.
struct ObsSandbox {
  explicit ObsSandbox(bool metrics) {
    obs::set_metrics_enabled(metrics);
    obs::Registry::instance().reset_values();
  }
  ~ObsSandbox() {
    obs::set_metrics_enabled(false);
    obs::Registry::instance().reset_values();
  }
};

// ---- log-linear bucket geometry ----------------------------------------

// Bucket 251 covers up to exactly LLONG_MAX (its octave is msb 62), so
// indices 252..255 are unreachable padding; the geometry checks stop there.
constexpr int kLastReachableBucket = 251;

TEST(HistogramBuckets, EdgeRoundtripAndMonotonic) {
  long long prev_lo = -1;
  for (int idx = 0; idx <= kLastReachableBucket; ++idx) {
    long long lo = 0, hi = 0;
    obs::histogram_bucket_bounds(idx, lo, hi);
    ASSERT_LE(lo, hi) << "bucket " << idx;
    // A bucket's own bounds must map back to the bucket: this is the
    // exact property the merged-quantile reconciliation rests on.
    EXPECT_EQ(obs::histogram_bucket_index(lo), idx);
    EXPECT_EQ(obs::histogram_bucket_index(hi), idx);
    EXPECT_GT(lo, prev_lo) << "bucket " << idx;
    prev_lo = lo;
  }
  // Index is monotonic over a dense value sweep across the exact/log
  // boundary (values < 16 are exact unit buckets).
  int last = obs::histogram_bucket_index(0);
  for (long long v = 1; v < 4096; ++v) {
    const int idx = obs::histogram_bucket_index(v);
    EXPECT_GE(idx, last) << "value " << v;
    last = idx;
  }
  EXPECT_EQ(obs::histogram_bucket_index(LLONG_MAX), kLastReachableBucket);
  EXPECT_EQ(obs::histogram_bucket_index(-5), 0);  // clamped, not UB
}

// ---- HistogramData merge ------------------------------------------------

TEST(HistogramMerge, MergeEqualsHistogramOfUnion) {
  obs::HistogramData a, b, all;
  for (long long v = 1; v <= 500; v += 3) { a.record(v * 7); all.record(v * 7); }
  for (long long v = 1; v <= 300; v += 2) { b.record(v * 13); all.record(v * 13); }
  obs::HistogramData merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count, all.count);
  EXPECT_EQ(merged.sum, all.sum);
  EXPECT_EQ(merged.min, all.min);
  EXPECT_EQ(merged.max, all.max);
  ASSERT_EQ(merged.buckets.size(), all.buckets.size());
  for (std::size_t i = 0; i < merged.buckets.size(); ++i) {
    EXPECT_EQ(merged.buckets[i].first, all.buckets[i].first);
    EXPECT_EQ(merged.buckets[i].second, all.buckets[i].second);
  }
  // Identical sparse bucket lists give identical quantiles: merge order
  // cannot change the answer.
  for (double q : {0.5, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(merged.quantile(q), all.quantile(q));
}

TEST(HistogramMerge, EmptyAndOverflowBuckets) {
  obs::HistogramData empty;
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);

  obs::HistogramData h;
  h.record(LLONG_MAX);  // lands in the last reachable bucket
  h.record(0);
  obs::HistogramData merged = empty;
  merged.merge(h);
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.max, LLONG_MAX);
  // Quantiles clamp to the observed [min, max] even from that bucket.
  EXPECT_LE(merged.quantile(1.0), static_cast<double>(LLONG_MAX));
  EXPECT_GE(merged.quantile(0.0), 0.0);
  obs::HistogramData other = h;
  other.merge(empty);  // merging an empty histogram is the identity
  EXPECT_EQ(other.count, 2u);
  EXPECT_EQ(other.sum, h.sum);
}

TEST(HistogramMerge, FuzzQuantilesWithinOneBucketOfExact) {
  std::mt19937 rng(20260808);  // fixed seed: the test is deterministic
  for (int round = 0; round < 20; ++round) {
    const std::size_t nranks = 1 + rng() % 7;
    const int n = 50 + static_cast<int>(rng() % 400);
    std::uniform_int_distribution<long long> dist(0, 1LL << (4 + round % 18));
    std::vector<long long> values;
    std::vector<obs::HistogramData> parts(nranks);
    for (int i = 0; i < n; ++i) {
      const long long v = dist(rng);
      values.push_back(v);
      parts[rng() % nranks].record(v);
    }
    obs::HistogramData merged;
    std::uint64_t total = 0;
    for (const obs::HistogramData& p : parts) {
      merged.merge(p);
      total += p.count;
    }
    ASSERT_EQ(merged.count, static_cast<std::uint64_t>(n));
    ASSERT_EQ(merged.count, total);
    std::sort(values.begin(), values.end());
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
      // Nearest-rank exact quantile over the raw values.
      const std::size_t rank = std::min(
          values.size() - 1,
          static_cast<std::size_t>(
              std::max(1.0, std::ceil(q * static_cast<double>(n)))) - 1);
      const long long exact = values[rank];
      const double est = merged.quantile(q);
      const int exact_bucket = obs::histogram_bucket_index(exact);
      const int est_bucket =
          obs::histogram_bucket_index(static_cast<long long>(est));
      EXPECT_LE(std::abs(exact_bucket - est_bucket), 1)
          << "round " << round << " q " << q << " exact " << exact
          << " est " << est;
      // Determinism: asking twice gives the identical answer.
      EXPECT_DOUBLE_EQ(est, merged.quantile(q));
    }
  }
}

// ---- RankSnapshot wire format ------------------------------------------

TEST(RankSnapshot, SerializeRoundtrip) {
  obs::RankSnapshot s;
  s.rank = 3;
  s.phases = {{"total", 1.25}, {"io", 0.5}, {"pack", 0.0}};
  s.counters = {{"bytes_moved", 123456789ull}, {"file_write_ops", 7ull}};
  obs::HistogramData h;
  for (long long v : {1, 50, 900, 70000}) h.record(v);
  s.hists = {{"op.total_us", h}};

  const ByteVec raw = s.serialize();
  const obs::RankSnapshot back =
      obs::RankSnapshot::deserialize(ConstByteSpan(raw.data(), raw.size()));
  EXPECT_EQ(back.rank, 3);
  ASSERT_EQ(back.phases.size(), s.phases.size());
  EXPECT_EQ(back.phases[0].first, "total");
  EXPECT_DOUBLE_EQ(back.phases[0].second, 1.25);
  ASSERT_EQ(back.counters.size(), s.counters.size());
  EXPECT_EQ(back.counters[0].second, 123456789ull);
  ASSERT_EQ(back.hists.size(), 1u);
  EXPECT_EQ(back.hists[0].first, "op.total_us");
  EXPECT_EQ(back.hists[0].second.count, 4u);
  EXPECT_EQ(back.hists[0].second.sum, h.sum);
  EXPECT_DOUBLE_EQ(back.hists[0].second.quantile(0.5), h.quantile(0.5));

  // Truncated payloads are rejected, not misread.
  EXPECT_THROW(obs::RankSnapshot::deserialize(
                   ConstByteSpan(raw.data(), raw.size() - 1)),
               Error);
}

// ---- Collector ----------------------------------------------------------

obs::RankSnapshot synthetic_rank(int rank, double total_s, double io_s) {
  obs::RankSnapshot s;
  s.rank = rank;
  s.phases = {{"total", total_s}, {"io", io_s}};
  s.counters = {{"bytes_moved", 100ull}};
  obs::HistogramData h;
  h.record(static_cast<long long>(total_s * 1e6));
  s.hists = {{"op.total_us", h}};
  return s;
}

TEST(Collector, PhaseSpreadAndStraggler) {
  // Rank 2 does twice the work: it must be named the straggler.
  const obs::JobReport r = obs::Collector::build(
      {synthetic_rank(0, 1.0, 0.2), synthetic_rank(1, 1.0, 0.0),
       synthetic_rank(2, 2.0, 1.0)});
  EXPECT_EQ(r.nranks, 3);
  ASSERT_EQ(r.ranks.size(), 3u);
  const obs::PhaseStats* total = r.phase("total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->min_s, 1.0);
  EXPECT_DOUBLE_EQ(total->max_s, 2.0);
  EXPECT_DOUBLE_EQ(total->median_s, 1.0);
  EXPECT_EQ(total->max_rank, 2);
  EXPECT_NEAR(total->imbalance, 1.5, 1e-9);
  ASSERT_EQ(total->per_rank_s.size(), 3u);
  EXPECT_DOUBLE_EQ(total->per_rank_s[2], 2.0);
  EXPECT_EQ(r.straggler_rank, 2);
  EXPECT_NEAR(r.straggler_imbalance, 1.5, 1e-9);
  // Counters sum across ranks.
  ASSERT_FALSE(r.counters.empty());
  EXPECT_EQ(r.counters[0].second, 300ull);
  // Merged histogram count is the sum of the per-rank counts.
  ASSERT_EQ(r.hists.size(), 1u);
  EXPECT_EQ(r.hists[0].merged.count, 3u);
  ASSERT_EQ(r.hists[0].per_rank.size(), 3u);
  // The report JSON carries the schema tag CI keys on.
  EXPECT_NE(r.to_json().find("llio_report/v1"), std::string::npos);
}

TEST(Collector, BalancedJobNamesNoStraggler) {
  const obs::JobReport r = obs::Collector::build(
      {synthetic_rank(0, 1.0, 0.0), synthetic_rank(1, 1.01, 0.0)});
  EXPECT_EQ(r.straggler_rank, -1);
}

TEST(Collector, UnionAlignsMissingPhases) {
  obs::RankSnapshot a = synthetic_rank(0, 1.0, 0.1);
  obs::RankSnapshot b = synthetic_rank(1, 1.0, 0.1);
  b.phases.emplace_back("wait", 0.5);  // rank 1 only
  const obs::JobReport r = obs::Collector::build({a, b});
  const obs::PhaseStats* wait = r.phase("wait");
  ASSERT_NE(wait, nullptr);
  ASSERT_EQ(wait->per_rank_s.size(), 2u);
  EXPECT_DOUBLE_EQ(wait->per_rank_s[0], 0.0);  // absent = 0 on rank 0
  EXPECT_DOUBLE_EQ(wait->per_rank_s[1], 0.5);
}

TEST(Collector, KeepsPerRankCounters) {
  // Snapshots arrive out of rank order and rank 0 lacks a counter: the
  // per-rank vectors follow JobReport::ranks, absent = 0, and sum to the
  // totals.
  obs::RankSnapshot a = synthetic_rank(1, 1.0, 0.1);
  a.counters.emplace_back("file_write_bytes", 4096ull);
  obs::RankSnapshot b = synthetic_rank(0, 1.0, 0.1);
  const obs::JobReport r = obs::Collector::build({a, b});
  ASSERT_EQ(r.counters_per_rank.size(), r.counters.size());
  for (std::size_t i = 0; i < r.counters.size(); ++i) {
    const auto& [name, per_rank] = r.counters_per_rank[i];
    EXPECT_EQ(name, r.counters[i].first);
    ASSERT_EQ(per_rank.size(), 2u);
    EXPECT_EQ(per_rank[0] + per_rank[1], r.counters[i].second) << name;
    if (name == "file_write_bytes") {
      EXPECT_EQ(per_rank[0], 0u);
      EXPECT_EQ(per_rank[1], 4096u);
    }
  }
  EXPECT_NE(r.to_json().find("\"counters_per_rank\":{\"bytes_moved\":[100,100],"
                             "\"file_write_bytes\":[0,4096]}"),
            std::string::npos);
}

// ---- collective aggregate over a multi-rank world -----------------------

TEST(Aggregate, MultiRankReportNamesInjectedStraggler) {
  ObsSandbox sandbox(/*metrics=*/true);
  constexpr int kRanks = 4;
  constexpr int kSlowRank = 2;
  constexpr int kOps = 3;
  const Off len = 64 * 1024;
  const std::string report_path =
      testing::TempDir() + "llio_report_test.json";
  std::remove(report_path.c_str());

  auto shared = pfs::MemFile::create();
  std::mutex mu;
  std::vector<obs::JobReport> reports;
  sim::Runtime::run(kRanks, [&](sim::Comm& comm) {
    pfs::FilePtr backend = shared;
    if (comm.rank() == kSlowRank) {
      // The backend pointer is per-rank (only the lock/shared-fp state is
      // exchanged at open), so one rank can see a throttled view of the
      // same storage: every access costs +4ms — an obvious straggler.
      pfs::ThrottleConfig cfg;
      cfg.op_latency_s = 0.004;
      backend = pfs::ThrottledFile::wrap(shared, cfg);
    }
    mpiio::Options o;
    o.metrics = true;
    o.report_path = report_path;
    mpiio::File f = mpiio::File::open(comm, backend, o);
    ByteVec buf(to_size(len), Byte{0x5a});
    for (int i = 0; i < kOps; ++i)
      f.write_at(comm.rank() * len, buf.data(), len, dt::byte());
    const obs::JobReport r = f.close();
    std::lock_guard lock(mu);
    reports.push_back(r);
  });

  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kRanks));
  for (const obs::JobReport& r : reports) {
    EXPECT_EQ(r.nranks, kRanks);
    // The throttled rank dominates the job and is named.
    EXPECT_EQ(r.straggler_rank, kSlowRank);
    EXPECT_GT(r.straggler_imbalance, 1.05);
    // Merged per-phase histogram counts reconcile with the per-rank ones.
    bool saw_total = false;
    for (const obs::MergedHistogram& h : r.hists) {
      std::uint64_t sum = 0;
      for (const obs::HistogramSummary& pr : h.per_rank) sum += pr.count;
      EXPECT_EQ(h.merged.count, sum) << h.name;
      if (h.name == "op.total_us") {
        saw_total = true;
        EXPECT_EQ(h.merged.count,
                  static_cast<std::uint64_t>(kRanks * kOps));
        // The merged p99 lies within one log-linear bucket of the
        // per-rank p99 envelope (identical bucket edges on every rank).
        int lo_bucket = INT_MAX, hi_bucket = INT_MIN;
        for (const obs::HistogramSummary& pr : h.per_rank) {
          if (pr.count == 0) continue;
          const int b = obs::histogram_bucket_index(
              static_cast<long long>(pr.p99));
          lo_bucket = std::min(lo_bucket, b);
          hi_bucket = std::max(hi_bucket, b);
        }
        const int merged_bucket = obs::histogram_bucket_index(
            static_cast<long long>(h.merged.quantile(0.99)));
        EXPECT_GE(merged_bucket, lo_bucket - 1);
        EXPECT_LE(merged_bucket, hi_bucket + 1);
      }
    }
    EXPECT_TRUE(saw_total);
  }

  // Rank 0 wrote the JSON report.
  std::FILE* fp = std::fopen(report_path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::string json(1 << 16, '\0');
  json.resize(std::fread(json.data(), 1, json.size(), fp));
  std::fclose(fp);
  EXPECT_NE(json.find("\"schema\":\"llio_report/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"straggler\""), std::string::npos);
  std::remove(report_path.c_str());
}

// Per-IOP file bytes in the job report: a balanced collective write shows
// every rank writing its equal share of the file.
TEST(Aggregate, ReportCarriesPerIopFileBytes) {
  constexpr int kRanks = 3;
  const Off nblock = 1024, sblock = 8;
  const Off nbytes = 8 * nblock * sblock;  // 64 KiB per rank
  auto fs = pfs::MemFile::create();
  std::mutex mu;
  std::vector<obs::JobReport> reports;
  sim::Runtime::run(kRanks, [&](sim::Comm& comm) {
    mpiio::File f = mpiio::File::open(comm, fs, mpiio::Options{});
    f.set_view(0, dt::byte(),
               iotest::noncontig_filetype(nblock, sblock, kRanks,
                                          comm.rank()));
    const ByteVec stream = iotest::payload_stream(comm.rank(), nbytes);
    f.write_at_all(0, stream.data(), nbytes, dt::byte());
    const obs::JobReport r = f.close();
    std::lock_guard lock(mu);
    reports.push_back(r);
  });
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kRanks));
  for (const obs::JobReport& r : reports) {
    const auto it = std::find_if(
        r.counters_per_rank.begin(), r.counters_per_rank.end(),
        [](const auto& c) { return c.first == "file_write_bytes"; });
    ASSERT_NE(it, r.counters_per_rank.end());
    EXPECT_EQ(it->second,
              std::vector<std::uint64_t>(kRanks,
                                         static_cast<std::uint64_t>(nbytes)));
  }
}

// The list engine's ol-list build time, the overhead paper §2.4 is about,
// reaches the job report as its own phase on every rank.
TEST(Aggregate, ReportCarriesListBuildPhase) {
  constexpr int kRanks = 3;
  const Off nblock = 1024, sblock = 8;
  const Off nbytes = 8 * nblock * sblock;
  auto fs = pfs::MemFile::create();
  std::mutex mu;
  std::vector<obs::JobReport> reports;
  sim::Runtime::run(kRanks, [&](sim::Comm& comm) {
    mpiio::Options opts;
    opts.method = mpiio::Method::ListBased;
    mpiio::File f = mpiio::File::open(comm, fs, opts);
    f.set_view(0, dt::byte(),
               iotest::noncontig_filetype(nblock, sblock, kRanks,
                                          comm.rank()));
    const ByteVec stream = iotest::payload_stream(comm.rank(), nbytes);
    f.write_at_all(0, stream.data(), nbytes, dt::byte());
    const obs::JobReport r = f.close();
    std::lock_guard lock(mu);
    reports.push_back(r);
  });
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kRanks));
  for (const obs::JobReport& r : reports) {
    const obs::PhaseStats* build = r.phase("list_build");
    ASSERT_NE(build, nullptr);
    EXPECT_GT(build->min_s, 0.0);
  }
}

// A collective's closing barrier is timed as the `skew` phase: ranks that
// finish early wait there for a straggler, and the report shows it.
TEST(Aggregate, ReportCarriesSkewPhase) {
  constexpr int kRanks = 3;
  constexpr int kSlowRank = 1;
  const Off len = 64 * 1024;
  auto shared = pfs::MemFile::create();
  std::mutex mu;
  std::vector<obs::JobReport> reports;
  std::vector<double> skew(kRanks);
  sim::Runtime::run(kRanks, [&](sim::Comm& comm) {
    pfs::FilePtr backend = shared;
    if (comm.rank() == kSlowRank) {
      pfs::ThrottleConfig cfg;
      cfg.op_latency_s = 0.05;  // the slow rank's IOP window lags 50 ms
      backend = pfs::ThrottledFile::wrap(shared, cfg);
    }
    mpiio::File f = mpiio::File::open(comm, backend, mpiio::Options{});
    f.set_view(0, dt::byte(),
               iotest::noncontig_filetype(len / 64, 64, kRanks, comm.rank()));
    const ByteVec stream = iotest::payload_stream(comm.rank(), len);
    f.write_at_all(0, stream.data(), len, dt::byte());
    skew[to_size(Off{comm.rank()})] = f.last_stats().skew_s;
    const obs::JobReport r = f.close();
    std::lock_guard lock(mu);
    reports.push_back(r);
  });
  for (int r = 0; r < kRanks; ++r) {
    if (r == kSlowRank) continue;
    EXPECT_GT(skew[to_size(Off{r})], 0.01) << r;
    EXPECT_GT(skew[to_size(Off{r})], skew[kSlowRank]) << r;
  }
  for (const obs::JobReport& r : reports) {
    const obs::PhaseStats* sk = r.phase("skew");
    ASSERT_NE(sk, nullptr);
    EXPECT_GT(sk->max_s, 0.01);
  }
}

// ---- critical path ------------------------------------------------------

obs::TraceEvent span(const char* name, int pid, int tid, double ts,
                     double dur, long long win = -1) {
  obs::TraceEvent ev;
  ev.name = name;
  ev.phase = 'X';
  ev.pid = pid;
  ev.tid = tid;
  ev.ts_us = ts;
  ev.dur_us = dur;
  if (win >= 0) ev.args.push_back({"win", win, "", false});
  return ev;
}

TEST(CriticalPath, AttributesWindowsToLimitingComponent) {
  std::vector<obs::TraceEvent> evs;
  // Window 0: io-limited (io_wait 600 of 1000).
  evs.push_back(span("window", 0, 0, 0, 1000, 0));
  evs.push_back(span("io_wait", 0, 0, 10, 600, 0));
  evs.push_back(span("pack", 0, 0, 620, 300, 0));
  // Window 1: pack-limited, with an inline serial pwrite counting as io.
  evs.push_back(span("window", 0, 0, 2000, 1000, 1));
  evs.push_back(span("pack", 0, 0, 2010, 700, 1));
  evs.push_back(span("pwrite", 0, 0, 2720, 200, 1));
  // Worker-track pwrite: hidden behind the wait, never double-counted.
  evs.push_back(span("pwrite", 0, 1, 2100, 900, 1));
  // Exchange outside the windows: reported as context only.
  evs.push_back(span("exchange", 0, 0, 4000, 500));
  // A window-less pack span and an instant event are ignored.
  evs.push_back(span("pack", 0, 0, 5000, 50));
  obs::TraceEvent inst = span("window", 0, 0, 6000, 0, 9);
  inst.phase = 'i';
  evs.push_back(inst);

  const obs::CriticalPathReport r = obs::critical_path(evs);
  EXPECT_EQ(r.windows, 2);
  EXPECT_DOUBLE_EQ(r.window_us, 2000);
  EXPECT_DOUBLE_EQ(r.io_us, 800);     // 600 wait + 200 inline pwrite
  EXPECT_DOUBLE_EQ(r.pack_us, 1000);  // 300 + 700
  EXPECT_DOUBLE_EQ(r.other_us, 200);
  EXPECT_DOUBLE_EQ(r.exchange_us, 500);
  EXPECT_NEAR(r.attributed_frac, 0.9, 1e-9);
  EXPECT_EQ(r.io_limited_windows, 1);
  EXPECT_EQ(r.pack_limited_windows, 1);
  EXPECT_EQ(r.other_limited_windows, 0);
  EXPECT_STREQ(r.limiter(), "pack");
}

TEST(CriticalPath, ClampsOverlongComponents) {
  // Clock jitter can make nested spans sum past the window; the clamp
  // keeps every category non-negative and the total at 100%.
  std::vector<obs::TraceEvent> evs;
  evs.push_back(span("window", 0, 0, 0, 100, 0));
  evs.push_back(span("io_wait", 0, 0, 0, 80, 0));
  evs.push_back(span("pack", 0, 0, 0, 50, 0));
  const obs::CriticalPathReport r = obs::critical_path(evs);
  EXPECT_EQ(r.windows, 1);
  EXPECT_DOUBLE_EQ(r.io_us, 80);
  EXPECT_DOUBLE_EQ(r.pack_us, 20);  // clamped to the remaining budget
  EXPECT_DOUBLE_EQ(r.other_us, 0);
  EXPECT_DOUBLE_EQ(r.attributed_frac, 1.0);
}

TEST(CriticalPath, EmptyTraceYieldsEmptyReport) {
  const obs::CriticalPathReport r = obs::critical_path({});
  EXPECT_EQ(r.windows, 0);
  EXPECT_DOUBLE_EQ(r.attributed_frac, 0.0);
}

}  // namespace
}  // namespace llio
