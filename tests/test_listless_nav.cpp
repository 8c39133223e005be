// Direct unit tests for the listless ViewNav / StreamMover (the engine
// internals the sieve/two-phase code composes).
#include <gtest/gtest.h>

#include "core/fotf_mover.hpp"
#include "core/listless_nav.hpp"
#include "io_test_util.hpp"

namespace llio::core {
namespace {

TEST(ListlessNavUnit, NavigationMatchesFotf) {
  const dt::Type ft = iotest::noncontig_filetype(4, 8, 2, 1);
  ListlessNav nav(ft);
  for (Off s = 0; s <= 3 * ft->size(); s += 3) {
    EXPECT_EQ(nav.stream_to_file_start(s), fotf::mem_start(ft, s));
    EXPECT_EQ(nav.stream_to_file_end(s), fotf::mem_end(ft, s));
  }
  for (Off m = 0; m <= 3 * ft->extent(); m += 5)
    EXPECT_EQ(nav.file_to_stream(m), fotf::data_below(ft, m));
}

TEST(ListlessNavUnit, ScatterGatherThroughWindow) {
  // View: 8-byte blocks at stride 16.  A window holding layout offsets
  // [16, 48) receives stream bytes [8, 24).
  const dt::Type ft = iotest::noncontig_filetype(8, 8, 2, 0);
  ListlessNav nav(ft);
  ByteVec window(32, Byte{0});
  ByteVec payload(16);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = Byte{static_cast<unsigned char>(i + 1)};
  nav.scatter(window.data(), /*bias=*/16, /*s=*/8, payload.data(), 16);
  for (int j = 0; j < 8; ++j) {
    EXPECT_EQ(window[to_size(Off{j})], payload[to_size(Off{j})]);        // block @16
    EXPECT_EQ(window[to_size(Off{16 + j})], payload[to_size(Off{8 + j})]);  // block @32
    EXPECT_EQ(window[to_size(Off{8 + j})], Byte{0});                     // gap
  }
  ByteVec got(16, Byte{0});
  nav.gather(got.data(), window.data(), 16, 8, 16);
  EXPECT_EQ(got, payload);
}

TEST(ListlessNavUnit, SequentialCallsAvoidReseek) {
  // Functional check that split sequential transfers through the reused
  // cursor (no plan: the run cap makes compile decline) equal one plan
  // replay, both ways.
  const dt::Type ft = iotest::noncontig_filetype(16, 8, 2, 0);
  ListlessNav nav(ft, /*max_runs=*/0);
  const Off total = ft->size();
  ByteVec window(to_size(ft->extent()), Byte{0});
  ByteVec payload(to_size(total));
  for (Off i = 0; i < total; ++i)
    payload[to_size(i)] = Byte{static_cast<unsigned char>(i * 3 + 1)};
  Off done = 0;
  while (done < total) {
    const Off n = std::min<Off>(13, total - done);
    nav.scatter(window.data(), 0, done, payload.data() + done, n);
    done += n;
  }
  ListlessNav nav2(ft);
  ByteVec window2(window.size(), Byte{0});
  nav2.scatter(window2.data(), 0, 0, payload.data(), total);
  EXPECT_EQ(window, window2);
  ByteVec got(payload.size(), Byte{0});
  for (done = 0; done < total;) {
    const Off n = std::min<Off>(13, total - done);
    nav.gather(got.data() + done, window.data(), 0, done, n);
    done += n;
  }
  EXPECT_EQ(got, payload);
}

TEST(ListlessNavUnit, SegmentIterationCoversStream) {
  const dt::Type ft = iotest::noncontig_filetype(5, 8, 3, 1);
  ListlessNav nav(ft);
  Off covered = 0;
  Off last_stream = 20;
  nav.for_each_segment(20, 50, [&](Off mem, Off stream, Off len) {
    EXPECT_EQ(stream, last_stream);
    EXPECT_EQ(mem, fotf::mem_start(ft, stream));
    covered += len;
    last_stream = stream + len;
  });
  EXPECT_EQ(covered, 50);
}

TEST(ListlessNavUnit, PlanWalkMatchesCursorWalk) {
  // The run walk replays the compiled plan, and walks the cursor only
  // when there is none.  Over random navigable views and ranges, both
  // must give the same runs in stream order, each at the layout offset
  // of its first stream byte, and no two consecutive plan runs touch.
  struct Run {
    Off mem, stream, len;
    bool operator==(const Run&) const = default;
  };
  const auto walk = [](ListlessNav& nav, Off s, Off n) {
    std::vector<Run> runs;
    nav.for_each_run(s, n, [&](Off mem, Off stream, Off len) {
      runs.push_back({mem, stream, len});
    });
    return runs;
  };
  testutil::Rng rng(19);
  int planned = 0;
  for (int i = 0; i < 200; ++i) {
    const dt::Type ft = testutil::random_navigable_type(rng, 3);
    if (ft->size() == 0) continue;
    ListlessNav with_plan(ft);
    ListlessNav cursor_only(ft, /*max_runs=*/0);  // compile always declines
    if (fotf::PackPlan::compile(ft) != nullptr) ++planned;
    for (int k = 0; k < 8; ++k) {
      const Off s = testutil::rnd(rng, 0, 3 * ft->size());
      const Off n = testutil::rnd(rng, 0, 4 * ft->size());
      const std::vector<Run> runs = walk(with_plan, s, n);
      Off next = s;
      for (std::size_t j = 0; j < runs.size(); ++j) {
        const Run& r = runs[j];
        ASSERT_GT(r.len, 0) << dt::to_string(ft);
        ASSERT_EQ(r.stream, next) << dt::to_string(ft);
        ASSERT_EQ(r.mem, fotf::mem_start(ft, r.stream)) << dt::to_string(ft);
        if (j > 0) {
          ASSERT_NE(runs[j - 1].mem + runs[j - 1].len, r.mem)
              << dt::to_string(ft) << " s=" << s << " n=" << n;
        }
        next += r.len;
      }
      ASSERT_EQ(next, s + n) << dt::to_string(ft);
      ASSERT_EQ(walk(cursor_only, s, n), runs)
          << dt::to_string(ft) << " s=" << s << " n=" << n;
    }
  }
  EXPECT_GT(planned, 150);
}

TEST(FotfMoverUnit, RoundTripsAgainstReference) {
  testutil::Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    const dt::Type mt = testutil::random_type(rng, 3);
    if (mt->size() == 0) continue;
    const Off count = testutil::rnd(rng, 1, 3);
    auto buf = testutil::make_typed_buffer(mt, count);
    testutil::fill_typed_data(buf, mt, count);
    const ByteVec want = testutil::reference_pack(buf.base(), count, mt);
    MemtypePlans plans;
    FotfMover mover(buf.base(), count, mt, plans);
    ByteVec got(want.size(), Byte{0});
    // Random-size sequential chunks (the sieve access pattern).
    Off done = 0;
    while (done < to_off(want.size())) {
      const Off n =
          std::min(to_off(want.size()) - done, testutil::rnd(rng, 1, 9));
      mover.to_stream(got.data() + done, done, n);
      done += n;
    }
    EXPECT_EQ(got, want) << dt::to_string(mt);

    // And back.
    auto dst = testutil::make_typed_buffer(mt, count, Byte{0x11});
    FotfMover unmover(dst.base(), count, mt, plans);
    done = 0;
    while (done < to_off(want.size())) {
      const Off n =
          std::min(to_off(want.size()) - done, testutil::rnd(rng, 1, 7));
      unmover.from_stream(want.data() + done, done, n);
      done += n;
    }
    EXPECT_EQ(testutil::reference_pack(dst.base(), count, mt), want);
  }
}

TEST(FotfMoverUnit, NonSequentialAccessReseeks) {
  const dt::Type mt = dt::hvector(8, 4, 12, dt::byte());
  auto buf = testutil::make_typed_buffer(mt, 1);
  testutil::fill_typed_data(buf, mt, 1);
  const ByteVec want = testutil::reference_pack(buf.base(), 1, mt);
  MemtypePlans plans;
  FotfMover mover(buf.base(), 1, mt, plans);
  // Jump around the stream.
  for (Off s : {Off{16}, Off{0}, Off{24}, Off{8}}) {
    ByteVec got(8);
    mover.to_stream(got.data(), s, 8);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin() + s));
  }
}

}  // namespace
}  // namespace llio::core
