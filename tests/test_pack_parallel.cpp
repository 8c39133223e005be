// Tests for the parallel flattening-on-the-fly work: widened / collapsed
// strided kernels, the non-temporal-store path, PackPlan compile+replay,
// navigation edge cases the slicer depends on (zero-extent and LB/UB
// resized types, segment-boundary skipbytes), and the randomized
// "slice-and-concat == whole pack" fuzz across threads x plan settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "fotf/navigate.hpp"
#include "fotf/pack.hpp"
#include "fotf/parallel.hpp"
#include "fotf/plan.hpp"
#include "test_util.hpp"

namespace llio::fotf {
namespace {

using dt::Type;
using testutil::Rng;

// ---------------------------------------------------------------------------
// Strided kernels: widened fixed sizes, seg == stride collapse, NT path.

void expect_gather_scatter(Off seg, Off stride, Off n) {
  ByteVec src(to_size((n - 1) * stride + seg + 8), Byte{0});
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = Byte{static_cast<unsigned char>(i * 131 + 17)};
  ByteVec dense(to_size(n * seg), Byte{0});
  strided_gather(dense.data(), src.data(), seg, stride, n);
  for (Off i = 0; i < n; ++i)
    for (Off j = 0; j < seg; ++j)
      ASSERT_EQ(dense[to_size(i * seg + j)], src[to_size(i * stride + j)])
          << "seg=" << seg << " stride=" << stride << " i=" << i << " j=" << j;
  ByteVec back(src.size(), Byte{0xAA});
  strided_scatter(back.data(), stride, dense.data(), seg, n);
  for (Off i = 0; i < n; ++i)
    for (Off j = 0; j < seg; ++j)
      ASSERT_EQ(back[to_size(i * stride + j)], src[to_size(i * stride + j)]);
}

TEST(StridedKernels, WidenedFixedSizes) {
  for (Off seg : {Off{24}, Off{48}, Off{256}, Off{512}}) {
    expect_gather_scatter(seg, seg + 8, 33);
    expect_gather_scatter(seg, 2 * seg, 7);
  }
}

TEST(StridedKernels, GenericTailOddSizes) {
  for (Off seg : {Off{3}, Off{7}, Off{13}, Off{100}, Off{1000}})
    expect_gather_scatter(seg, seg + 11, 19);
}

TEST(StridedKernels, SegEqualsStrideCollapsesToMemcpy) {
  // seg == stride means the "strided" region is dense: one memcpy.  The
  // collapse must be observationally identical to the per-segment loop.
  for (Off seg : {Off{1}, Off{5}, Off{16}, Off{24}, Off{512}, Off{4097}}) {
    const Off n = 13;
    ByteVec src(to_size(n * seg));
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = Byte{static_cast<unsigned char>(i * 37 + 5)};
    ByteVec dense(to_size(n * seg), Byte{0});
    strided_gather(dense.data(), src.data(), seg, seg, n);
    EXPECT_EQ(dense, src) << "seg=" << seg;
    ByteVec back(src.size(), Byte{0});
    strided_scatter(back.data(), seg, dense.data(), seg, n);
    EXPECT_EQ(back, src) << "seg=" << seg;
  }
}

TEST(StridedKernels, NonTemporalPathMatchesScalar) {
  if (!nt_supported()) GTEST_SKIP() << "no SSE2 streaming stores";
  // Force the NT path for everything, run the 16-byte-multiple widths the
  // dispatcher streams, and compare against the default (cache) path.
  for (Off seg : {Off{64}, Off{128}, Off{256}, Off{512}}) {
    const Off stride = seg + 32;
    const Off n = 64;
    ByteVec src(to_size(n * stride));
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = Byte{static_cast<unsigned char>(i * 101 + 3)};
    ByteVec want(to_size(n * seg), Byte{0});
    set_nt_threshold(-1);  // disable: scalar reference
    strided_gather(want.data(), src.data(), seg, stride, n);
    ByteVec got(to_size(n * seg), Byte{0});
    set_nt_threshold(1);  // force streaming stores
    strided_gather(got.data(), src.data(), seg, stride, n);
    set_nt_threshold(0);  // restore auto-detection
    EXPECT_EQ(got, want) << "seg=" << seg;
  }
}

TEST(StridedKernels, DenseCopyNtMatchesMemcpy) {
  if (!nt_supported()) GTEST_SKIP() << "no SSE2 streaming stores";
  ByteVec src(to_size(Off{1} << 16));
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = Byte{static_cast<unsigned char>(i * 7 + 1)};
  // Misalign the destination so the scalar head/tail paths run too.
  ByteVec dst(src.size() + 3, Byte{0});
  set_nt_threshold(1);
  dense_copy(dst.data() + 3, src.data(), to_off(src.size()));
  set_nt_threshold(0);
  EXPECT_EQ(std::memcmp(dst.data() + 3, src.data(), src.size()), 0);
}

// ---------------------------------------------------------------------------
// PackPlan: compile + replay equals the reference pack for any skip/n.

void expect_plan_matches_reference(const Type& t, Off count, Rng& rng) {
  const auto plan = PackPlan::compile(t);
  ASSERT_NE(plan, nullptr) << dt::to_string(t);
  EXPECT_EQ(plan->instance_size(), t->size());
  EXPECT_EQ(plan->instance_extent(), t->extent());

  auto buf = testutil::make_typed_buffer(t, count);
  testutil::fill_typed_data(buf, t, count,
                            static_cast<unsigned>(testutil::rnd(rng, 1, 999)));
  const ByteVec want = testutil::reference_pack(buf.base(), count, t);
  const Off total = count * t->size();

  // Whole-stream replay.
  ByteVec got(to_size(total), Byte{0});
  EXPECT_EQ(plan->pack(buf.base(), 0, count, 0, got.data(), total), total);
  EXPECT_EQ(got, want) << dt::to_string(t);

  // Random [skip, skip+n) windows.
  for (int i = 0; i < 16; ++i) {
    const Off skip = testutil::rnd(rng, 0, total);
    const Off n = testutil::rnd(rng, 0, total - skip);
    ByteVec part(to_size(n) + 1, Byte{0x5C});
    EXPECT_EQ(plan->pack(buf.base(), 0, count, skip, part.data(), n), n);
    EXPECT_EQ(std::memcmp(part.data(), want.data() + skip, to_size(n)), 0)
        << dt::to_string(t) << " skip=" << skip << " n=" << n;
    EXPECT_EQ(part[to_size(n)], Byte{0x5C});  // no overrun
  }

  // Replay unpack reproduces the data bytes.
  auto back = testutil::make_typed_buffer(t, count, Byte{0x11});
  EXPECT_EQ(plan->unpack(back.base(), 0, count, 0, want.data(), total), total);
  const ByteVec round = testutil::reference_pack(back.base(), count, t);
  EXPECT_EQ(round, want) << dt::to_string(t);
}

TEST(PackPlan, UniformVectorReplay) {
  Rng rng(42);
  // Natural hvector extent ends after the last block, so instance-to-
  // instance spacing differs from the in-instance stride: not uniform.
  const Type vec = dt::hvector(16, 8, 24, dt::byte());
  const auto vplan = PackPlan::compile(vec);
  ASSERT_NE(vplan, nullptr);
  EXPECT_EQ(vplan->run_count(), 16);
  EXPECT_FALSE(vplan->uniform());
  expect_plan_matches_reference(vec, 5, rng);

  // Pad the extent to a full stride and the wrap delta matches: uniform,
  // replayable as one strided kernel call across instance boundaries.
  const Type t = dt::resized(vec, 0, 16 * 24);
  const auto plan = PackPlan::compile(t);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->uniform());
  EXPECT_EQ(plan->run_count(), 16);
  expect_plan_matches_reference(t, 5, rng);
}

TEST(PackPlan, ContiguousIsSingleRun) {
  const Type t = dt::contiguous(32, dt::double_());
  const auto plan = PackPlan::compile(t);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->run_count(), 1);
  EXPECT_TRUE(plan->uniform());
}

TEST(PackPlan, DeclinesHugeRunTables) {
  std::vector<Off> bls, ds;
  for (Off i = 0; i < 64; ++i) {
    bls.push_back(1);
    ds.push_back(i * 3);
  }
  const Type t = dt::hindexed(bls, ds, dt::byte());  // 64 runs/instance
  EXPECT_EQ(PackPlan::compile(t, /*max_runs=*/32), nullptr);
  EXPECT_NE(PackPlan::compile(t, /*max_runs=*/64), nullptr);
}

TEST(PackPlan, RandomTypesMatchReference) {
  Rng rng(20260807);
  for (int i = 0; i < 40; ++i) {
    const Type t = testutil::random_type(rng, 3);
    if (t->size() <= 0) continue;
    expect_plan_matches_reference(t, testutil::rnd(rng, 1, 4), rng);
  }
}

// ---------------------------------------------------------------------------
// Navigation edge cases the slicer depends on.

TEST(NavEdgeCases, ZeroExtentResizedType) {
  // All instances of a zero-extent type alias the same memory; navigation
  // and pack must still advance through the *stream* correctly.
  const Type t = dt::resized(dt::contiguous(4, dt::byte()), 0, 0);
  ASSERT_EQ(t->extent(), 0);
  ASSERT_EQ(t->size(), 4);
  // Within an instance mem_start tracks the child; across instances the
  // base does not advance (extent 0).
  EXPECT_EQ(mem_start(t, 0), 0);
  EXPECT_EQ(mem_start(t, 3), 3);
  EXPECT_EQ(mem_start(t, 4), 0);
  EXPECT_EQ(mem_start(t, 9), 1);

  const Off count = 3;
  auto buf = testutil::make_typed_buffer(t, count);
  testutil::fill_typed_data(buf, t, count, 7);
  const ByteVec want = testutil::reference_pack(buf.base(), count, t);
  ByteVec got(to_size(count * t->size()), Byte{0});
  EXPECT_EQ(pack_range(t, count, buf.base(), 0, 0, got.data(),
                       count * t->size()),
            count * t->size());
  EXPECT_EQ(got, want);
}

TEST(NavEdgeCases, LbUbResizedType) {
  // Negative LB and padded UB: the typemap starts before the base pointer
  // and instances tile at the resized extent, not the true span.
  const Type inner = dt::hvector(3, 2, 6, dt::byte());
  const Type t = dt::resized(inner, -4, 24);
  ASSERT_EQ(t->extent(), 24);
  Rng rng(11);
  expect_plan_matches_reference(t, 4, rng);

  const Off count = 4;
  auto buf = testutil::make_typed_buffer(t, count);
  testutil::fill_typed_data(buf, t, count, 3);
  const ByteVec want = testutil::reference_pack(buf.base(), count, t);
  const Off total = count * t->size();
  // Every skip, including ones landing exactly on instance boundaries.
  for (Off skip = 0; skip <= total; ++skip) {
    const Off n = std::min<Off>(total - skip, 5);
    ByteVec part(to_size(n), Byte{0});
    EXPECT_EQ(pack_range(t, count, buf.base(), 0, skip, part.data(), n), n);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), want.begin() + skip))
        << "skip=" << skip;
  }
}

TEST(NavEdgeCases, SegmentBoundarySkips) {
  // skipbytes landing exactly on segment boundaries must resume at the
  // next segment's first byte (the slice handoff convention).
  const Type t = dt::hvector(8, 4, 12, dt::byte());
  const Off count = 3;
  auto buf = testutil::make_typed_buffer(t, count);
  testutil::fill_typed_data(buf, t, count, 19);
  const ByteVec want = testutil::reference_pack(buf.base(), count, t);
  const Off total = count * t->size();
  const auto plan = PackPlan::compile(t);
  ASSERT_NE(plan, nullptr);
  for (Off skip = 0; skip < total; skip += 4) {  // every segment boundary
    for (const Off n : {Off{1}, Off{4}, Off{9}, total - skip}) {
      if (n > total - skip) continue;
      ByteVec a(to_size(n), Byte{0}), b(to_size(n), Byte{0});
      EXPECT_EQ(pack_range(t, count, buf.base(), 0, skip, a.data(), n), n);
      EXPECT_EQ(plan->pack(buf.base(), 0, count, skip, b.data(), n), n);
      EXPECT_EQ(std::memcmp(a.data(), want.data() + skip, to_size(n)), 0)
          << "skip=" << skip << " n=" << n;
      EXPECT_EQ(a, b) << "skip=" << skip << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// pack_range / unpack_range: slice-and-concat == whole pack, all configs.

PackConfig fuzz_config(int threads, bool use_plan) {
  PackConfig cfg;
  cfg.threads = threads;
  cfg.parallel_min = 1;  // engage slicing as soon as the floor allows
  cfg.use_plan = use_plan;
  return cfg;
}

void expect_range_matches(const Type& t, Off count, const ByteVec& want,
                          const Byte* base, Rng& rng) {
  const Off total = count * t->size();
  const auto compiled = PackPlan::compile(t);
  for (const int threads : {1, 2, 4}) {
    for (const bool use_plan : {false, true}) {
      const PackConfig cfg = fuzz_config(threads, use_plan);
      const PackPlan* plan = use_plan ? compiled.get() : nullptr;
      // Whole pack in one call.
      ByteVec whole(to_size(total), Byte{0});
      RangeStats rs;
      EXPECT_EQ(pack_range(t, count, base, 0, 0, whole.data(), total, cfg,
                           plan, &rs),
                total);
      EXPECT_EQ(whole, want)
          << dt::to_string(t) << " threads=" << threads
          << " plan=" << use_plan;
      if (threads > 1 && will_parallelize(cfg, total)) {
        EXPECT_GT(rs.threads_used, 1);
        EXPECT_GT(rs.slices, 0u);
      }
      // Random slice-and-concat of the same stream.
      ByteVec cat(to_size(total), Byte{0});
      Off done = 0;
      while (done < total) {
        const Off n = std::min(total - done,
                               testutil::rnd(rng, 1, total / 3 + 1));
        EXPECT_EQ(pack_range(t, count, base, 0, done, cat.data() + done, n,
                             cfg, plan),
                  n);
        done += n;
      }
      EXPECT_EQ(cat, want)
          << dt::to_string(t) << " threads=" << threads
          << " plan=" << use_plan;
    }
  }
}

TEST(ParallelPack, DenseWindowAllConfigs) {
  // The collective-window shape: large payload so threads>1 really slices
  // (will_parallelize needs >= 2 x 64 KiB).
  Rng rng(1);
  const Off sblock = 4096;
  const Off nblock = 128;  // 512 KiB of data
  const Type t = dt::hvector(nblock, sblock, 2 * sblock, dt::byte());
  const Off count = 1;
  auto buf = testutil::make_typed_buffer(t, count);
  testutil::fill_typed_data(buf, t, count, 77);
  const ByteVec want = testutil::reference_pack(buf.base(), count, t);
  expect_range_matches(t, count, want, buf.base(), rng);

  // Parallel unpack (monotone, non-overlapping type): round-trip.
  for (const int threads : {1, 2, 4}) {
    const PackConfig cfg = fuzz_config(threads, true);
    auto back = testutil::make_typed_buffer(t, count, Byte{0x33});
    EXPECT_EQ(unpack_range(t, count, back.base(), 0, 0, want.data(),
                           count * t->size(), cfg,
                           PackPlan::compile(t).get()),
              count * t->size());
    EXPECT_EQ(testutil::reference_pack(back.base(), count, t), want)
        << "threads=" << threads;
  }
}

TEST(ParallelPack, FuzzRandomTypes) {
  // Pack is a gather — race-free even for overlapping/non-monotone
  // typemaps — so the pack fuzz draws from the unrestricted generator.
  Rng rng(987654);
  int done = 0;
  while (done < 8) {
    const Type t = testutil::random_type(rng, 3);
    if (t->size() < 8 || t->extent() <= 0 || t->extent() > 512) continue;
    ++done;
    const Off count = (Off{192} << 10) / t->size() + 1;  // ~192 KiB stream
    auto buf = testutil::make_typed_buffer(t, count);
    testutil::fill_typed_data(buf, t, count,
                              static_cast<unsigned>(done) * 31 + 1);
    const ByteVec want = testutil::reference_pack(buf.base(), count, t);
    expect_range_matches(t, count, want, buf.base(), rng);
  }
}

TEST(ParallelPack, FuzzUnpackNavigableTypes) {
  // Unpack is a scatter: parallel slices are only race-free when the
  // typemap never writes a byte twice, which MPI guarantees for fileviews
  // (monotone).  The unpack fuzz therefore draws navigable types.
  Rng rng(555);
  int done = 0;
  while (done < 6) {
    const Type t = testutil::random_navigable_type(rng, 3);
    if (t->size() < 8 || t->extent() > 512) continue;
    ++done;
    const Off count = (Off{192} << 10) / t->size() + 1;
    auto src = testutil::make_typed_buffer(t, count);
    testutil::fill_typed_data(src, t, count,
                              static_cast<unsigned>(done) * 17 + 3);
    const ByteVec stream = testutil::reference_pack(src.base(), count, t);
    const Off total = count * t->size();
    const auto compiled = PackPlan::compile(t);
    for (const int threads : {1, 2, 4}) {
      for (const bool use_plan : {false, true}) {
        const PackConfig cfg = fuzz_config(threads, use_plan);
        const PackPlan* plan = use_plan ? compiled.get() : nullptr;
        auto back = testutil::make_typed_buffer(t, count, Byte{0x44});
        // Unpack in random chunks, then compare via a reference re-pack.
        Off at = 0;
        while (at < total) {
          const Off n =
              std::min(total - at, testutil::rnd(rng, 1, total / 2 + 1));
          EXPECT_EQ(unpack_range(t, count, back.base(), 0, at,
                                 stream.data() + at, n, cfg, plan),
                    n);
          at += n;
        }
        EXPECT_EQ(testutil::reference_pack(back.base(), count, t), stream)
            << dt::to_string(t) << " threads=" << threads
            << " plan=" << use_plan;
      }
    }
  }
}

TEST(ParallelPack, SerialIsByteIdenticalToFfPack) {
  // threads=1 + plan off must be *the same computation* as ff_pack_window:
  // identical bytes for every (skip, n) on a type with holes and padding.
  Rng rng(2026);
  for (int i = 0; i < 12; ++i) {
    const Type t = testutil::random_type(rng, 3);
    if (t->size() <= 0) continue;
    const Off count = testutil::rnd(rng, 1, 5);
    auto buf = testutil::make_typed_buffer(t, count);
    testutil::fill_typed_data(buf, t, count, static_cast<unsigned>(i + 1));
    const Off total = count * t->size();
    const Off skip = testutil::rnd(rng, 0, total);
    const Off n = testutil::rnd(rng, 0, total - skip);
    ByteVec a(to_size(n) + 1, Byte{0x7E}), b(to_size(n) + 1, Byte{0x7E});
    EXPECT_EQ(ff_pack(buf.base(), count, t, skip, a.data(), n), n);
    PackConfig cfg;  // defaults: threads=1, plan on (no plan passed)
    EXPECT_EQ(pack_range(t, count, buf.base(), 0, skip, b.data(), n, cfg),
              n);
    EXPECT_EQ(a, b) << dt::to_string(t) << " skip=" << skip << " n=" << n;
  }
}

TEST(ParallelPack, WillParallelizeThresholds) {
  PackConfig cfg;
  cfg.threads = 4;
  cfg.parallel_min = 1 << 20;
  EXPECT_FALSE(will_parallelize(cfg, (1 << 20) - 1));  // under parallel_min
  EXPECT_TRUE(will_parallelize(cfg, 1 << 20));
  cfg.parallel_min = 1;
  EXPECT_FALSE(will_parallelize(cfg, (Off{128} << 10) - 1));  // < 2 slices
  EXPECT_TRUE(will_parallelize(cfg, Off{128} << 10));
  cfg.threads = 1;
  EXPECT_FALSE(will_parallelize(cfg, Off{1} << 30));  // serial config
}

}  // namespace
}  // namespace llio::fotf
