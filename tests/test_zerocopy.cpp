// Zero-copy descriptor path: PackPlan::materialize must describe exactly
// the bytes pack() would move, the engines must produce byte-identical
// files with llio_zerocopy on or off across every backend, and the
// IoOpStats counters must prove that dense windows really skipped the
// staging copy.
#include <gtest/gtest.h>

#include <atomic>

#include "fotf/plan.hpp"
#include "io_test_util.hpp"
#include "mpiio/mergeview.hpp"
#include "pfs/async_io.hpp"
#include "pfs/faulty_file.hpp"
#include "pfs/posix_file.hpp"
#include "pfs/striped_file.hpp"

namespace llio::mpiio {
namespace {

using testutil::Rng;

/// Gather the bytes named by a materialized run list (the memcpy the
/// kernel-side writev would do) — ground truth against pack().
ByteVec gather_runs(const Byte* typed_base, const fotf::IoVecSpan& span) {
  ByteVec out;
  out.reserve(to_size(span.total));
  for (const fotf::MemRun& r : span.runs)
    out.insert(out.end(), typed_base + r.mem, typed_base + r.mem + r.len);
  return out;
}

TEST(ZerocopyPlan, MaterializeMatchesPackOnRandomTypes) {
  // Fully random types — negative displacements, overlap, LB/UB resizes —
  // at random windows: the gathered run bytes must equal the packed
  // window byte for byte, and runs must be coalesced.
  Rng rng(20260808);
  int exercised = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const dt::Type t = testutil::random_type(rng, 3);
    auto plan = fotf::PackPlan::compile(t);
    if (plan == nullptr) continue;
    ++exercised;
    const Off count = testutil::rnd(rng, 1, 3);
    const Off total = count * t->size();
    const Off skip = testutil::rnd(rng, 0, total);
    const Off n = testutil::rnd(rng, 0, total - skip);

    auto buf = testutil::make_typed_buffer(t, count);
    testutil::fill_typed_data(buf, t, count, 7u + static_cast<unsigned>(iter));

    ByteVec packed(to_size(n), Byte{0});
    const Off got =
        plan->pack(buf.base(), 0, count, skip, packed.data(), n);
    packed.resize(to_size(got));

    fotf::IoVecSpan span;
    ASSERT_TRUE(plan->materialize(0, count, skip, n, 1u << 20, span))
        << dt::to_string(t);
    EXPECT_EQ(span.total, got);
    EXPECT_EQ(gather_runs(buf.base(), span), packed)
        << dt::to_string(t) << " count=" << count << " skip=" << skip
        << " n=" << n;
    for (std::size_t i = 1; i < span.runs.size(); ++i)
      EXPECT_NE(span.runs[i - 1].mem + span.runs[i - 1].len,
                span.runs[i].mem)
          << "adjacent runs not coalesced: " << dt::to_string(t);
  }
  EXPECT_GT(exercised, 100);
}

TEST(ZerocopyPlan, MemBiasShiftsRuns) {
  const dt::Type t = dt::hvector(3, 4, 8, dt::byte());
  auto plan = fotf::PackPlan::compile(t);
  ASSERT_NE(plan, nullptr);
  fotf::IoVecSpan a, b;
  ASSERT_TRUE(plan->materialize(0, 2, 3, 15, 64, a));
  ASSERT_TRUE(plan->materialize(5, 2, 3, 15, 64, b));
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].mem - 5, b.runs[i].mem);
    EXPECT_EQ(a.runs[i].len, b.runs[i].len);
  }
}

TEST(ZerocopyPlan, CoalescesAcrossInstanceWrap) {
  // contiguous(4, byte): each instance is one 4-byte run that abuts the
  // next instance — any window must come back as a single run.
  auto plan = fotf::PackPlan::compile(dt::contiguous(4, dt::byte()));
  ASSERT_NE(plan, nullptr);
  fotf::IoVecSpan span;
  ASSERT_TRUE(plan->materialize(0, 8, 3, 21, 4, span));
  ASSERT_EQ(span.runs.size(), 1u);
  EXPECT_EQ(span.runs[0].mem, 3);
  EXPECT_EQ(span.runs[0].len, 21);
  EXPECT_EQ(span.total, 21);
}

TEST(ZerocopyPlan, ResizedLbUbAddressing) {
  // Negative LB and padded UB: run offsets follow the typemap origin
  // (instance i at i * extent), exactly like pack().
  const dt::Type base = dt::hvector(2, 3, 8, dt::byte());
  const dt::Type t = dt::resized(base, -4, 24);
  auto plan = fotf::PackPlan::compile(t);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->instance_extent(), 24);
  auto buf = testutil::make_typed_buffer(t, 2);
  testutil::fill_typed_data(buf, t, 2, 99);
  const Off total = 2 * t->size();
  ByteVec packed(to_size(total), Byte{0});
  ASSERT_EQ(plan->pack(buf.base(), 0, 2, 0, packed.data(), total), total);
  fotf::IoVecSpan span;
  ASSERT_TRUE(plan->materialize(0, 2, 0, total, 16, span));
  EXPECT_EQ(gather_runs(buf.base(), span), packed);
}

TEST(ZerocopyPlan, DeclinesOverBudgetAndClearsOutput) {
  // 4 separated runs per instance; a 2-run budget must refuse and leave
  // `out` empty so a stale descriptor can never reach the backend.
  auto plan = fotf::PackPlan::compile(dt::hvector(4, 2, 8, dt::byte()));
  ASSERT_NE(plan, nullptr);
  fotf::IoVecSpan span;
  span.runs.push_back({123, 456});  // stale content to be cleared
  EXPECT_FALSE(plan->materialize(0, 1, 0, 8, 2, span));
  EXPECT_TRUE(span.runs.empty());
  EXPECT_EQ(span.total, 0);
  // The same range fits a 4-run budget.
  ASSERT_TRUE(plan->materialize(0, 1, 0, 8, 4, span));
  EXPECT_EQ(span.runs.size(), 4u);
}

TEST(ZerocopyPlan, EmptyAndPastEndWindows) {
  auto plan = fotf::PackPlan::compile(dt::hvector(2, 4, 16, dt::byte()));
  ASSERT_NE(plan, nullptr);
  fotf::IoVecSpan span;
  ASSERT_TRUE(plan->materialize(0, 2, 0, 0, 8, span));  // n == 0
  EXPECT_TRUE(span.runs.empty());
  ASSERT_TRUE(plan->materialize(0, 2, 16, 99, 8, span));  // skip == total
  EXPECT_TRUE(span.runs.empty());
  ASSERT_TRUE(plan->materialize(0, 0, 0, 8, 8, span));  // count == 0
  EXPECT_TRUE(span.runs.empty());
}

TEST(ZerocopyRanges, DenseAcceptsOverlapRejectsHoles) {
  using R = AccessRange;
  // Overlapping but individually contiguous restrictions: dense (reads
  // may overlap).
  EXPECT_TRUE(ranges_dense({R{0, 10, 0, 10}, R{0, 10, 5, 15}}));
  // A participant with holes (file span wider than its bytes): not dense.
  EXPECT_FALSE(ranges_dense({R{0, 10, 0, 10}, R{0, 10, 10, 30}}));
  // Non-participants are ignored; all-idle is not dense.
  EXPECT_TRUE(ranges_dense({R{0, 0, 0, 0}, R{0, 8, 32, 40}}));
  EXPECT_FALSE(ranges_dense({R{0, 0, 0, 0}}));
  EXPECT_FALSE(ranges_dense({}));
}

// ---- engine-level: counters prove staging was skipped --------------------

struct ZcStats {
  std::atomic<std::uint64_t> windows{0};
  std::atomic<std::uint64_t> fallback{0};
  std::atomic<std::uint64_t> runs{0};
  std::atomic<long long> saved{0};

  void add(const IoOpStats& s) {
    windows += s.zerocopy_windows;
    fallback += s.staged_fallback_windows;
    runs += s.iov_runs;
    saved += s.staging_bytes_saved;
  }
};

/// Dense-disjoint collective workload through a noncontig memtype: rank r
/// owns file extent [r*nbytes, (r+1)*nbytes).  Returns the image; fills
/// per-op counter sums.
ByteVec run_dense_nc(Method method, Zerocopy zc, bool plan_on, int nprocs,
                     Off nbytes, ZcStats& wr, ZcStats& rd) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(nprocs, [&](sim::Comm& comm) {
    Options o;
    o.method = method;
    o.zerocopy = zc;
    o.pack_plan = plan_on;
    o.file_buffer_size = 256;
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(), dt::byte());
    const ByteVec stream = iotest::payload_stream(comm.rank(), nbytes);
    auto buf = iotest::make_nc_buffer(stream);
    f.write_at_all(comm.rank() * nbytes, buf.storage.data(), buf.count,
                   buf.memtype);
    wr.add(f.last_stats());
    auto back = iotest::make_nc_buffer(ByteVec(to_size(nbytes), Byte{0}));
    f.read_at_all(comm.rank() * nbytes, back.storage.data(), back.count,
                  back.memtype);
    rd.add(f.last_stats());
    EXPECT_EQ(iotest::nc_buffer_stream(back), stream);
  });
  return fs->contents();
}

class ZerocopyEngine : public ::testing::TestWithParam<Method> {};

TEST_P(ZerocopyEngine, DenseCollectiveSkipsStagingOnMemFile) {
  const int nprocs = 3;
  const Off nbytes = 384;  // 48 noncontig 8-byte runs per rank
  ZcStats wr, rd;
  const ByteVec img = run_dense_nc(GetParam(), Zerocopy::Auto, true, nprocs,
                                   nbytes, wr, rd);
  // Every rank's window went through the descriptor path: one zero-copy
  // window per op per rank, the full payload never staged, one iovec run
  // per 8-byte memory block.
  EXPECT_EQ(wr.windows, static_cast<std::uint64_t>(nprocs));
  EXPECT_EQ(rd.windows, static_cast<std::uint64_t>(nprocs));
  EXPECT_EQ(wr.fallback, 0u);
  EXPECT_EQ(rd.fallback, 0u);
  EXPECT_EQ(wr.saved, nprocs * nbytes);
  EXPECT_EQ(rd.saved, nprocs * nbytes);
  EXPECT_EQ(wr.runs, static_cast<std::uint64_t>(nprocs * nbytes / 8));

  // Expected image: rank r's payload dense at r*nbytes.
  ByteVec want(to_size(Off{nprocs} * nbytes), Byte{0});
  for (int r = 0; r < nprocs; ++r)
    for (Off i = 0; i < nbytes; ++i)
      want[to_size(Off{r} * nbytes + i)] = iotest::payload_byte(r, i);
  EXPECT_EQ(img, want);
}

TEST_P(ZerocopyEngine, OffIsByteIdenticalAndCountsNothing) {
  const int nprocs = 3;
  const Off nbytes = 384;
  ZcStats wr_on, rd_on, wr_off, rd_off;
  const ByteVec on = run_dense_nc(GetParam(), Zerocopy::Auto, true, nprocs,
                                  nbytes, wr_on, rd_on);
  const ByteVec off = run_dense_nc(GetParam(), Zerocopy::Off, true, nprocs,
                                   nbytes, wr_off, rd_off);
  EXPECT_EQ(on, off);
  EXPECT_EQ(wr_off.windows, 0u);
  EXPECT_EQ(rd_off.windows, 0u);
  EXPECT_EQ(wr_off.saved, 0);
  EXPECT_EQ(rd_off.saved, 0);
  // Off means the staged path is not a "fallback" — nothing is counted.
  EXPECT_EQ(wr_off.fallback, 0u);
}

TEST(ZerocopyPlanDecline, FallsBackStagedIdentically) {
  // pack_plan=off kills the listless engine's run-table source, so
  // mem_runs declines and every window must take the counted staged
  // fallback — same bytes.  (The list engine's ol-list descriptors do not
  // depend on the plan, so this is listless-specific.)
  const int nprocs = 2;
  const Off nbytes = 192;
  ZcStats wr_a, rd_a, wr_b, rd_b;
  const ByteVec a = run_dense_nc(Method::Listless, Zerocopy::Auto, true,
                                 nprocs, nbytes, wr_a, rd_a);
  const ByteVec b = run_dense_nc(Method::Listless, Zerocopy::Auto, false,
                                 nprocs, nbytes, wr_b, rd_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(wr_b.windows, 0u);
  EXPECT_EQ(wr_b.saved, 0);
  EXPECT_GE(wr_b.fallback, static_cast<std::uint64_t>(nprocs));
}

/// Holey collective write + read-back with the default zero-copy budget:
/// rank r owns every nprocs-th `run`-byte block of an interleaved view, so
/// no restriction is one extent and the dense bypass never applies, and
/// the memtype is the paper's Fig 4 vector (nblock `run`-byte blocks at a
/// 2*run stride per instance).  Several IOPs each receive a slice from
/// every rank.  Checks the read-back and the file image; fills per-op
/// counter sums.
void run_holey_nc(Method method, Off run, ZcStats& wr, ZcStats& rd) {
  const int nprocs = 3;
  const Off nblock = 8;
  const Off nbytes = 2 * nblock * run;
  const auto ft_of = [&](int r) {
    return iotest::noncontig_filetype(nblock, run, nprocs, r);
  };
  const dt::Type memtype = dt::resized(
      dt::hvector(nblock, run, 2 * run, dt::byte()), 0, 2 * nblock * run);
  const Off count = 2;
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(nprocs, [&](sim::Comm& comm) {
    Options o;
    o.method = method;
    o.file_buffer_size = nbytes;  // one domain per rank
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(), ft_of(comm.rank()));
    const ByteVec stream = iotest::payload_stream(comm.rank(), nbytes);
    ByteVec mem(to_size(2 * nbytes), Byte{0});
    for (Off i = 0; i < nbytes / run; ++i)
      std::memcpy(mem.data() + 2 * i * run, stream.data() + i * run,
                  to_size(run));
    f.write_at_all(0, mem.data(), count, memtype);
    wr.add(f.last_stats());
    EXPECT_EQ(f.last_stats().merge_contig_ops, 0u);
    ByteVec back(to_size(2 * nbytes), Byte{0});
    f.read_at_all(0, back.data(), count, memtype);
    rd.add(f.last_stats());
    EXPECT_EQ(back, mem);
  });
  EXPECT_EQ(fs->contents(), iotest::expected_image(nprocs, ft_of, 0, 0, nbytes));
}

TEST_P(ZerocopyEngine, HoleyCollectiveShipsLongRunsZeroCopy) {
  // 512-byte memory runs meet the default llio_zerocopy_min_run: both the
  // gather-on-send write slices and the scatter-on-recv read replies go
  // straight between the wire and user memory, on either engine.
  ZcStats wr, rd;
  run_holey_nc(GetParam(), 512, wr, rd);
  EXPECT_GT(wr.windows, 0u);
  EXPECT_GT(rd.windows, 0u);
  EXPECT_EQ(wr.fallback, 0u);
  EXPECT_EQ(rd.fallback, 0u);
}

TEST_P(ZerocopyEngine, HoleyCollectiveStagesShortRuns) {
  // 8-byte memory runs stay below llio_zerocopy_min_run: every slice is
  // packed (the list baseline keeps its per-tuple staging copies).
  ZcStats wr, rd;
  run_holey_nc(GetParam(), 8, wr, rd);
  EXPECT_EQ(wr.windows, 0u);
  EXPECT_EQ(rd.windows, 0u);
  EXPECT_GT(wr.fallback, 0u);
  EXPECT_GT(rd.fallback, 0u);
}

INSTANTIATE_TEST_SUITE_P(Methods, ZerocopyEngine,
                         ::testing::Values(Method::ListBased,
                                           Method::Listless),
                         [](const auto& pinfo) {
                           return pinfo.param == Method::ListBased
                                      ? "ListBased"
                                      : "Listless";
                         });

// ---- equivalence fuzz: every backend, both engines, zc on/off ------------

/// One collective write + read-back on `fs`; returns the final backend
/// image.  `min_run` 1 engages zero-copy even for tiny fuzz-sized runs;
/// `wr`, when given, sums the write's counters.
ByteVec run_fuzz(Method method, Zerocopy zc, const pfs::FilePtr& fs,
                 int nprocs, const std::function<dt::Type(int)>& ft_of,
                 Off disp, Off nbytes, Off offset, Off fbs, unsigned seed,
                 bool nc_mem, bool per_rank_offset = false, int depth = 0,
                 Off min_run = 1, ZcStats* wr = nullptr) {
  sim::Runtime::run(nprocs, [&](sim::Comm& comm) {
    Options o;
    o.method = method;
    o.zerocopy = zc;
    o.file_buffer_size = fbs;
    o.pack_buffer_size = 64;
    o.zerocopy_min_run = min_run;
    o.pipeline_depth = depth;
    File f = File::open(comm, fs, o);
    f.set_view(disp, dt::byte(), ft_of(comm.rank()));
    const Off off = offset + (per_rank_offset ? comm.rank() * nbytes : 0);
    ByteVec stream(to_size(nbytes));
    for (Off i = 0; i < nbytes; ++i)
      stream[to_size(i)] =
          iotest::payload_byte(comm.rank() + static_cast<int>(seed), i);
    if (nc_mem) {
      auto buf = iotest::make_nc_buffer(stream);
      f.write_at_all(off, buf.storage.data(), buf.count, buf.memtype);
      if (wr != nullptr) wr->add(f.last_stats());
      auto back = iotest::make_nc_buffer(ByteVec(to_size(nbytes), Byte{0}));
      f.read_at_all(off, back.storage.data(), back.count, back.memtype);
      EXPECT_EQ(iotest::nc_buffer_stream(back), stream);
    } else {
      f.write_at_all(off, stream.data(), nbytes, dt::byte());
      if (wr != nullptr) wr->add(f.last_stats());
      ByteVec back(to_size(nbytes), Byte{0});
      f.read_at_all(off, back.data(), nbytes, dt::byte());
      EXPECT_EQ(back, stream);
    }
  });
  return iotest::backend_image(fs);
}

class ZerocopyFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ZerocopyFuzz, OnOffByteIdenticalEverywhere) {
  Rng rng(GetParam() * 7919u);
  for (int iter = 0; iter < 2; ++iter) {
    const int nprocs = static_cast<int>(testutil::rnd(rng, 2, 3));
    const Off nblock = testutil::rnd(rng, 2, 5);
    const Off sblock = testutil::rnd(rng, 1, 3) * 8;  // nc memtype needs %8
    const auto ft_of = [&, nblock, sblock, nprocs](int r) {
      return iotest::noncontig_filetype(nblock, sblock, nprocs, r);
    };
    const Off unit = nblock * sblock;
    const Off nbytes = testutil::rnd(rng, 1, 2) * unit;
    const Off offset = testutil::rnd(rng, 0, 2) * unit;
    const Off disp = testutil::rnd(rng, 0, 4) * 8;
    const Off fbs = testutil::rnd(rng, 1, 4) * 64;
    const bool nc_mem = testutil::rnd(rng, 0, 1) == 1;
    const unsigned seed = GetParam() * 100 + static_cast<unsigned>(iter);
    for (Method m : {Method::ListBased, Method::Listless}) {
      for (iotest::Backend b : iotest::kAllBackends) {
        ByteVec on = run_fuzz(m, Zerocopy::Auto, iotest::make_backend(b),
                              nprocs, ft_of, disp, nbytes, offset, fbs, seed,
                              nc_mem);
        ByteVec off = run_fuzz(m, Zerocopy::Off, iotest::make_backend(b),
                               nprocs, ft_of, disp, nbytes, offset, fbs, seed,
                               nc_mem);
        iotest::pad_to_common(on, off);
        EXPECT_EQ(on, off)
            << method_name(m) << " over " << iotest::backend_name(b)
            << " nblock=" << nblock << " sblock=" << sblock
            << " nbytes=" << nbytes << " offset=" << offset
            << " disp=" << disp << " nc_mem=" << nc_mem;
      }
    }
  }
}

TEST_P(ZerocopyFuzz, RandomNavigableViewsOnOffIdentical) {
  // Arbitrary navigable filetype shared by all ranks, disjoint instance
  // ranges; dense memtype.  Exercises the plan-decline and over-budget
  // fallbacks organically (random trees vary run counts wildly).
  Rng rng(GetParam() + 31337u);
  for (int iter = 0; iter < 3; ++iter) {
    const dt::Type ft = testutil::random_navigable_type(rng, 3);
    const Off unit = ft->size();
    if (unit == 0) continue;
    const int nprocs = static_cast<int>(testutil::rnd(rng, 2, 3));
    const Off nbytes = testutil::rnd(rng, 1, 2) * unit;
    const Off fbs = testutil::rnd(rng, 1, 4) * 64;
    const unsigned seed = GetParam() * 311 + static_cast<unsigned>(iter);
    const auto ft_of = [&](int) { return ft; };
    for (Method m : {Method::ListBased, Method::Listless}) {
      auto run = [&](Zerocopy zc) {
        return run_fuzz(m, zc, pfs::MemFile::create(), nprocs, ft_of, 0,
                        nbytes, /*offset=*/0, fbs, seed, false,
                        /*per_rank_offset=*/true);
      };
      EXPECT_EQ(run(Zerocopy::Auto), run(Zerocopy::Off))
          << method_name(m) << " " << dt::to_string(ft)
          << " nbytes=" << nbytes << " fbs=" << fbs;
    }
  }
}

/// The storage stacks a direct window must work on.
const char* const kDirectBackends[] = {"mem", "posix", "striped", "psrv",
                                       "faulty"};

pfs::FilePtr make_direct_backend(const std::string& name) {
  if (name == "posix")  // disjoint runs complete out of order
    return pfs::AsyncQdFile::wrap(
        pfs::PosixFile::open_temp(::testing::TempDir()), 4);
  if (name == "striped") {
    pfs::StripeLayout layout;
    layout.rotate = true;
    return pfs::StripedFile::create(
        {pfs::MemFile::create(), pfs::MemFile::create(),
         pfs::MemFile::create()},
        640, layout);
  }
  if (name == "psrv") return iotest::make_backend(iotest::Backend::PsrvList);
  if (name == "faulty")  // armed with nothing: a pass-through decorator
    return pfs::FaultyFile::wrap(pfs::MemFile::create(), pfs::FaultPlan{});
  return pfs::MemFile::create();
}

TEST_P(ZerocopyFuzz, DirectWindowsByteIdenticalEverywhere) {
  // Interleaved Fig 4 views whose blocks meet the default
  // llio_zerocopy_min_run, so the IOP windows go direct: on both
  // engines, serial and pipelined, over every storage stack, the image
  // must equal the staged one.
  Rng rng(GetParam() * 104729u);
  const Off min_run = Options{}.zerocopy_min_run;
  for (int iter = 0; iter < 2; ++iter) {
    const int nprocs = static_cast<int>(testutil::rnd(rng, 2, 3));
    const Off nblock = testutil::rnd(rng, 2, 5);
    const Off sblock = testutil::rnd(rng, 1, 3) * min_run;
    const auto ft_of = [&, nblock, sblock, nprocs](int r) {
      return iotest::noncontig_filetype(nblock, sblock, nprocs, r);
    };
    const Off unit = nblock * sblock;
    const Off nbytes = testutil::rnd(rng, 1, 2) * unit;
    const Off offset = testutil::rnd(rng, 0, 2) * unit;
    const Off disp = testutil::rnd(rng, 0, 4) * 8;
    const Off fbs =
        testutil::rnd(rng, 1, 4) * 1024 + 8 * testutil::rnd(rng, 0, 7);
    const bool nc_mem = testutil::rnd(rng, 0, 1) == 1;
    const unsigned seed = GetParam() * 100 + static_cast<unsigned>(iter);
    for (Method m : {Method::ListBased, Method::Listless}) {
      for (const int depth : {0, 2}) {
        for (const char* b : kDirectBackends) {
          ZcStats wr_on, wr_off;
          ByteVec on = run_fuzz(m, Zerocopy::Auto, make_direct_backend(b),
                                nprocs, ft_of, disp, nbytes, offset, fbs,
                                seed, nc_mem, false, depth, min_run, &wr_on);
          ByteVec off = run_fuzz(m, Zerocopy::Off, make_direct_backend(b),
                                 nprocs, ft_of, disp, nbytes, offset, fbs,
                                 seed, nc_mem, false, depth, min_run,
                                 &wr_off);
          iotest::pad_to_common(on, off);
          const std::string where =
              std::string(method_name(m)) + " over " + b +
              " depth=" + std::to_string(depth) +
              " nblock=" + std::to_string(nblock) +
              " sblock=" + std::to_string(sblock) +
              " fbs=" + std::to_string(fbs);
          EXPECT_EQ(on, off) << where;
          // The APs' slices save at most nprocs * nbytes of staging; the
          // rest is IOP windows that went direct.
          EXPECT_GT(wr_on.saved, nprocs * nbytes) << where;
          EXPECT_EQ(wr_off.windows, 0u) << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZerocopyFuzz, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace llio::mpiio
