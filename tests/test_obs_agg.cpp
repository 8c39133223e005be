// Job-level observability tests: RankSnapshot wire roundtrip, Collector
// phase statistics and straggler identification, the collective
// aggregate() over a multi-rank world with an injected slow rank, the
// backend counters the report carries, and the critical-path
// attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "io_test_util.hpp"
#include "mpiio/file.hpp"
#include "obs/agg.hpp"
#include "pfs/mem_file.hpp"
#include "pfs/throttled_file.hpp"
#include "simmpi/comm.hpp"

namespace llio {
namespace {

// ---- RankSnapshot wire format ------------------------------------------

TEST(RankSnapshot, SerializeRoundtrip) {
  obs::RankSnapshot s;
  s.rank = 3;
  s.phases = {{"total", 1.25}, {"io", 0.5}, {"pack", 0.0}};
  s.counters = {{"bytes_moved", 123456789ull}, {"file_write_ops", 7ull}};

  const ByteVec raw = s.serialize();
  const obs::RankSnapshot back =
      obs::RankSnapshot::deserialize(ConstByteSpan(raw.data(), raw.size()));
  EXPECT_EQ(back.rank, 3);
  ASSERT_EQ(back.phases.size(), s.phases.size());
  EXPECT_EQ(back.phases[0].first, "total");
  EXPECT_DOUBLE_EQ(back.phases[0].second, 1.25);
  ASSERT_EQ(back.counters.size(), s.counters.size());
  EXPECT_EQ(back.counters[0].second, 123456789ull);

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

// A queue-depth backend's engine totals reach the report as backend-wide
// counters: an independent direct write over posix qd=4 submits through
// AsyncQdFile, and the report shows it.
TEST(Aggregate, ReportCarriesAsyncEngineCounters) {
  constexpr int kRanks = 2;
  const Off nblock = 64, sblock = 64;
  const Off nbytes = nblock * sblock;
  const std::string report_path =
      testing::TempDir() + "llio_report_aio_test.json";
  std::remove(report_path.c_str());
  const pfs::FilePtr fs =
      iotest::make_backend("posix:" + testing::TempDir() + ",qd=4");
  std::mutex mu;
  std::vector<obs::JobReport> reports;
  sim::Runtime::run(kRanks, [&](sim::Comm& comm) {
    mpiio::Options o;
    o.ds_write = mpiio::Sieving::Never;  // romio_ds_write=disable
    o.report_path = report_path;
    mpiio::File f = mpiio::File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               iotest::noncontig_filetype(nblock, sblock, kRanks,
                                          comm.rank()));
    const ByteVec stream = iotest::payload_stream(comm.rank(), nbytes);
    f.write_at(0, stream.data(), nbytes, dt::byte());
    const obs::JobReport r = f.close();
    std::lock_guard lock(mu);
    reports.push_back(r);
  });
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kRanks));
  for (const obs::JobReport& r : reports) {
    std::map<std::string, std::uint64_t> g(r.global_counters.begin(),
                                           r.global_counters.end());
    EXPECT_GT(g["aio.submitted"], 0u);
    EXPECT_EQ(g["aio.completed"], g["aio.submitted"]);
    EXPECT_GE(g["aio.inflight_peak"], 1u);
  }
  std::FILE* fp = std::fopen(report_path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::string json(1 << 16, '\0');
  json.resize(std::fread(json.data(), 1, json.size(), fp));
  std::fclose(fp);
  EXPECT_NE(json.find("\"aio.submitted\":"), std::string::npos) << json;
  std::remove(report_path.c_str());
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
