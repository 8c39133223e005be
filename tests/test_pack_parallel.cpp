// Tests for the flattening-on-the-fly pack kernels: widened / collapsed
// strided kernels, the non-temporal-store path, PackPlan compile+replay,
// navigation edge cases (zero-extent and LB/UB resized types,
// segment-boundary skipbytes), and the randomized "slice-and-concat ==
// whole pack" fuzz over both serial pack paths, plan replay and cursor
// walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "fotf/cursor.hpp"
#include "fotf/navigate.hpp"
#include "fotf/pack.hpp"
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

TEST(PackPlan, RunCountIsCachedBlockCount) {
  // compile()'s run cap and the zero-copy average-run test read the
  // node's cached block count in O(1) in place of a walk, so the count
  // must equal the walk's merged run count, for unordered hindexed and
  // struct blocks too.
  const std::vector<Off> bl2{2, 1}, unordered{8, 0}, touching{4, 0};
  const std::vector<Off> sbl{1, 2}, sds{16, 0};
  const std::vector<Type> skids{dt::double_(), dt::int_()};
  const std::vector<Off> sizes{6, 8}, sub{3, 4}, starts{1, 2};
  const std::vector<Type> fixed{
      dt::byte(),
      dt::contiguous(16, dt::int_()),
      dt::resized(dt::hvector(1, 8, 24, dt::byte()), 0, 24),
      dt::hvector(4, 2, 8, dt::int_()),  // touching blocks: one run
      dt::hvector(4096, 8, 16, dt::byte()),
      dt::hindexed(bl2, unordered, dt::byte()),
      dt::hindexed(bl2, touching, dt::int_()),
      dt::struct_(sbl, sds, skids),
      dt::subarray(sizes, sub, starts, dt::Order::C, dt::double_()),
  };
  for (const Type& t : fixed) {
    const auto plan = PackPlan::compile(t);
    ASSERT_NE(plan, nullptr) << dt::to_string(t);
    EXPECT_EQ(plan->run_count(), t->block_count()) << dt::to_string(t);
  }
  Rng rng(20261019);
  int compiled = 0;
  for (int i = 0; i < 2000; ++i) {
    const Type t = testutil::random_type(rng, 1 + i % 4);
    const auto plan = PackPlan::compile(t);
    if (plan == nullptr) continue;  // zero-size type
    ++compiled;
    ASSERT_EQ(plan->run_count(), t->block_count()) << dt::to_string(t);
  }
  EXPECT_GT(compiled, 1000);
}

TEST(PackPlan, AvgRunFromNodeFields) {
  // One run that fills its extent is contiguous across instances.
  EXPECT_EQ(avg_run(dt::contiguous(8, dt::double_())),
            std::numeric_limits<Off>::max());
  EXPECT_EQ(avg_run(dt::resized(dt::contiguous(8, dt::byte()), 4, 8)),
            std::numeric_limits<Off>::max());
  // One run per instance that does not fill it: the run, not unbounded.
  EXPECT_EQ(avg_run(dt::resized(dt::hvector(1, 8, 24, dt::byte()), 0, 24)),
            8);
  EXPECT_EQ(avg_run(dt::hvector(4, 512, 1024, dt::byte())), 512);
  EXPECT_EQ(avg_run(dt::hvector(3, 1, 8, dt::contiguous(10, dt::byte()))),
            10);
  EXPECT_EQ(avg_run(nullptr), 0);
  EXPECT_EQ(avg_run(dt::contiguous(0, dt::byte())), 0);
}

// ---------------------------------------------------------------------------
// Navigation edge cases.

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
  EXPECT_EQ(ff_pack(buf.base(), count, t, 0, got.data(), count * t->size()),
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
    EXPECT_EQ(ff_pack(buf.base(), count, t, skip, part.data(), n), n);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), want.begin() + skip))
        << "skip=" << skip;
  }
}

TEST(NavEdgeCases, SegmentBoundarySkips) {
  // skipbytes landing exactly on segment boundaries must resume at the
  // next segment's first byte (the chunk handoff convention).
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
      EXPECT_EQ(ff_pack(buf.base(), count, t, skip, a.data(), n), n);
      EXPECT_EQ(plan->pack(buf.base(), 0, count, skip, b.data(), n), n);
      EXPECT_EQ(std::memcmp(a.data(), want.data() + skip, to_size(n)), 0)
          << "skip=" << skip << " n=" << n;
      EXPECT_EQ(a, b) << "skip=" << skip << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// The serial pack path — PackPlan replay, or the cursor walk when compile
// declines: slice-and-concat == whole pack on both.

void expect_range_matches(const Type& t, Off count, const ByteVec& want,
                          const Byte* base, Rng& rng) {
  const Off total = count * t->size();
  const auto compiled = PackPlan::compile(t);
  for (const bool replay : {false, true}) {
    const PackPlan* plan = replay ? compiled.get() : nullptr;
    // Whole pack in one call.
    ByteVec whole(to_size(total), Byte{0});
    EXPECT_EQ(plan != nullptr
                  ? plan->pack(base, 0, count, 0, whole.data(), total)
                  : ff_pack(base, count, t, 0, whole.data(), total),
              total);
    EXPECT_EQ(whole, want) << dt::to_string(t) << " plan=" << replay;
    // Random slice-and-concat of the same stream; the cursor path
    // streams one cursor across the chunks, as the engines do.
    SegmentCursor cur(t, count);
    ByteVec cat(to_size(total), Byte{0});
    Off done = 0;
    while (done < total) {
      const Off n = std::min(total - done,
                             testutil::rnd(rng, 1, total / 3 + 1));
      Byte* dst = cat.data() + done;
      EXPECT_EQ(plan != nullptr ? plan->pack(base, 0, count, done, dst, n)
                                : transfer_pack(cur, base, 0, dst, n),
                n);
      done += n;
    }
    EXPECT_EQ(cat, want) << dt::to_string(t) << " plan=" << replay;
  }
}

/// Unpack `stream` into a fresh buffer of `count` instances of `t` in
/// random chunks, through `plan` or (null) one streaming cursor, and
/// return the buffer's reference re-pack.
ByteVec chunked_unpack_repack(const Type& t, Off count, const ByteVec& stream,
                              const PackPlan* plan, Rng& rng) {
  const Off total = count * t->size();
  auto back = testutil::make_typed_buffer(t, count, Byte{0x44});
  SegmentCursor cur(t, count);
  Off at = 0;
  while (at < total) {
    const Off n = std::min(total - at, testutil::rnd(rng, 1, total / 2 + 1));
    const Byte* src = stream.data() + at;
    EXPECT_EQ(plan != nullptr ? plan->unpack(back.base(), 0, count, at, src, n)
                              : transfer_unpack(cur, back.base(), 0, src, n),
              n);
    at += n;
  }
  return testutil::reference_pack(back.base(), count, t);
}

TEST(ParallelPack, DenseWindowAllConfigs) {
  // The collective-window shape: 512 KiB of data in a dense strided
  // window.
  Rng rng(1);
  const Off sblock = 4096;
  const Off nblock = 128;  // 512 KiB of data
  const Type t = dt::hvector(nblock, sblock, 2 * sblock, dt::byte());
  const Off count = 1;
  auto buf = testutil::make_typed_buffer(t, count);
  testutil::fill_typed_data(buf, t, count, 77);
  const ByteVec want = testutil::reference_pack(buf.base(), count, t);
  expect_range_matches(t, count, want, buf.base(), rng);

  // Unpack round-trip on both paths.
  const auto plan = PackPlan::compile(t);
  ASSERT_NE(plan, nullptr);
  for (const PackPlan* p : {static_cast<const PackPlan*>(nullptr), plan.get()})
    EXPECT_EQ(chunked_unpack_repack(t, count, want, p, rng), want)
        << "plan=" << (p != nullptr);
}

TEST(ParallelPack, FuzzRandomTypes) {
  // Pack is a gather, defined for overlapping/non-monotone typemaps too,
  // so the pack fuzz draws from the unrestricted generator.
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
  // Unpack is a scatter: the round trip is only defined when the typemap
  // never writes a byte twice, which MPI guarantees for fileviews
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
    const auto compiled = PackPlan::compile(t);
    for (const bool replay : {false, true}) {
      const PackPlan* plan = replay ? compiled.get() : nullptr;
      EXPECT_EQ(chunked_unpack_repack(t, count, stream, plan, rng), stream)
          << dt::to_string(t) << " plan=" << replay;
    }
  }
}

TEST(ParallelPack, SerialIsByteIdenticalToFfPack) {
  // Plan replay must produce exactly ff_pack's bytes for every (skip, n)
  // on a type with holes and padding.
  Rng rng(2026);
  for (int i = 0; i < 12; ++i) {
    const Type t = testutil::random_type(rng, 3);
    if (t->size() <= 0) continue;
    const auto plan = PackPlan::compile(t);
    ASSERT_NE(plan, nullptr) << dt::to_string(t);
    const Off count = testutil::rnd(rng, 1, 5);
    auto buf = testutil::make_typed_buffer(t, count);
    testutil::fill_typed_data(buf, t, count, static_cast<unsigned>(i + 1));
    const Off total = count * t->size();
    const Off skip = testutil::rnd(rng, 0, total);
    const Off n = testutil::rnd(rng, 0, total - skip);
    ByteVec a(to_size(n) + 1, Byte{0x7E}), b(to_size(n) + 1, Byte{0x7E});
    EXPECT_EQ(ff_pack(buf.base(), count, t, skip, a.data(), n), n);
    EXPECT_EQ(plan->pack(buf.base(), 0, count, skip, b.data(), n), n);
    EXPECT_EQ(a, b) << dt::to_string(t) << " skip=" << skip << " n=" << n;
  }
}

}  // namespace
}  // namespace llio::fotf
