// The parallel file-server subsystem (src/psrv): shard partitioning,
// all three request classes (contig / list / view), flow control, the
// fileview cache with eviction + UnknownView retry, fault propagation,
// decorator composition, concurrent handles on one pool checked against
// an in-memory model, and the wire-volume claim that makes view I/O
// worthwhile — the serialized tree replaces the ol-list on the wire.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <thread>

#include "fotf/plan.hpp"
#include "io_test_util.hpp"
#include "mpiio/info.hpp"
#include "pfs/async_io.hpp"
#include "pfs/faulty_file.hpp"
#include "pfs/throttled_file.hpp"
#include "pfs/traced_file.hpp"
#include "simmpi/net_model.hpp"

namespace llio::psrv {
namespace {

using iotest::small_pool_config;

std::shared_ptr<ServerFile> make_file(RequestClass cls,
                                      PoolConfig cfg = small_pool_config()) {
  return ServerFile::create(ServerPool::create(std::move(cfg)), cls);
}

constexpr RequestClass kClasses[] = {RequestClass::Contig, RequestClass::List,
                                     RequestClass::View};

TEST(PsrvPool, DomainsPartitionAndLastIsOpenEnded) {
  auto pool = ServerPool::create(small_pool_config());
  const auto& doms = pool->domains();
  ASSERT_EQ(doms.size(), 3u);
  EXPECT_EQ(doms[0].lo, 0);
  EXPECT_EQ(doms[0].hi, 64);
  EXPECT_EQ(doms[1].lo, 64);
  EXPECT_EQ(doms[1].hi, 128);
  EXPECT_EQ(doms[2].lo, 128);
  EXPECT_EQ(doms[2].hi, ServerPool::kOpenEnd);
  EXPECT_EQ(pool->owner(0), 0);
  EXPECT_EQ(pool->owner(63), 0);
  EXPECT_EQ(pool->owner(64), 1);
  EXPECT_EQ(pool->owner(191), 2);
  // Past the configured capacity still lands on the last server.
  EXPECT_EQ(pool->owner(1 << 20), 2);
  EXPECT_THROW(pool->owner(-1), Error);
}

TEST(PsrvPool, FewerStripesThanServersLeavesTrailingServersEmpty) {
  PoolConfig cfg = small_pool_config();
  cfg.nservers = 4;
  cfg.capacity = 2 * cfg.stripe;  // only 2 stripes to hand out
  auto f = make_file(RequestClass::Contig, cfg);
  const ByteVec data = iotest::payload_stream(1, 300);
  f->pwrite(0, data);
  ByteVec back(300);
  f->pread(0, back);
  EXPECT_EQ(back, data);
}

TEST(PsrvBackend, RoundTripsAcrossShardBoundaries) {
  for (RequestClass cls : kClasses) {
    auto f = make_file(cls);
    auto ref = pfs::MemFile::create();
    // One write spanning all three shards (including the open end).
    const ByteVec data = iotest::payload_stream(7, 300);
    f->pwrite(10, data);
    ref->pwrite(10, data);
    // Scattered vectored accesses, some shard-straddling, some adjacent
    // (exercises client-side coalescing and server-side batching).
    ByteVec small = iotest::payload_stream(9, 40);
    const pfs::ConstIoVec wv[] = {
        {60, ConstByteSpan(small.data(), 10)},       // straddles 64
        {70, ConstByteSpan(small.data() + 10, 10)},  // adjacent to previous
        {126, ConstByteSpan(small.data() + 20, 10)}, // straddles 128
        {400, ConstByteSpan(small.data() + 30, 10)}, // open-ended shard
    };
    f->pwritev(wv);
    ref->pwritev(wv);
    EXPECT_EQ(f->size(), ref->size()) << request_class_name(cls);

    ByteVec a(to_size(f->size())), b(to_size(ref->size()));
    EXPECT_EQ(f->pread(0, a), ref->pread(0, b)) << request_class_name(cls);
    EXPECT_EQ(a, b) << request_class_name(cls);

    ByteVec ra(25), rb(25), rc(7), rd(7);
    const pfs::IoVec rv_f[] = {{55, ByteSpan(ra)}, {120, ByteSpan(rc)}};
    const pfs::IoVec rv_r[] = {{55, ByteSpan(rb)}, {120, ByteSpan(rd)}};
    EXPECT_EQ(f->preadv(rv_f), ref->preadv(rv_r)) << request_class_name(cls);
    EXPECT_EQ(ra, rb) << request_class_name(cls);
    EXPECT_EQ(rc, rd) << request_class_name(cls);
  }
}

TEST(PsrvBackend, ReadsPastEofZeroFillAndReturnShort) {
  for (RequestClass cls : kClasses) {
    auto f = make_file(cls);
    f->pwrite(0, iotest::payload_stream(3, 100));
    ByteVec out(150, Byte{0xEE});
    EXPECT_EQ(f->pread(40, out), 60) << request_class_name(cls);
    for (std::size_t i = 60; i < out.size(); ++i)
      ASSERT_EQ(out[i], Byte{0}) << request_class_name(cls) << " @" << i;
    EXPECT_EQ(f->pread(200, out), 0) << request_class_name(cls);
  }
}

TEST(PsrvBackend, ResizeShrinksAndGrowsLikeMemFile) {
  for (RequestClass cls : kClasses) {
    auto f = make_file(cls);
    auto ref = pfs::MemFile::create();
    const ByteVec data = iotest::payload_stream(5, 250);
    f->pwrite(0, data);
    ref->pwrite(0, data);
    for (Off size : {Off{90}, Off{170}, Off{0}, Off{40}}) {
      f->resize(size);
      ref->resize(size);
      ASSERT_EQ(f->size(), ref->size()) << request_class_name(cls);
      // pread says nothing of the bytes past a short read: compare the
      // bytes it returned.
      ByteVec a(200), b(200);
      const Off got = f->pread(0, a);
      ASSERT_EQ(got, ref->pread(0, b)) << request_class_name(cls);
      a.resize(to_size(got));
      b.resize(to_size(got));
      ASSERT_EQ(a, b) << request_class_name(cls) << " after resize " << size;
    }
    f->sync();  // must not throw
  }
}

TEST(PsrvBackend, EnginesProduceTheExpectedImage) {
  // Both engines, independent and collective, over each request class:
  // the final image must equal the reference computed from the flatten.
  const int P = 3;
  const Off nblock = 4, sblock = 8, nbytes = 2 * nblock * sblock;
  const auto ft_of = [&](int r) {
    return iotest::noncontig_filetype(nblock, sblock, P, r);
  };
  ByteVec want = iotest::expected_image(P, ft_of, /*disp=*/16, 0, nbytes);
  for (RequestClass cls : kClasses) {
    for (mpiio::Method m :
         {mpiio::Method::ListBased, mpiio::Method::Listless}) {
      for (bool collective : {false, true}) {
        auto f = make_file(cls);
        sim::Runtime::run(P, [&](sim::Comm& comm) {
          mpiio::Options o;
          o.method = m;
          o.file_buffer_size = 128;
          o.pack_buffer_size = 64;
          mpiio::File mf = mpiio::File::open(comm, f, o);
          mf.set_view(16, dt::byte(), ft_of(comm.rank()));
          const ByteVec stream = iotest::payload_stream(comm.rank(), nbytes);
          if (collective)
            mf.write_at_all(0, stream.data(), nbytes, dt::byte());
          else
            mf.write_at(0, stream.data(), nbytes, dt::byte());
          comm.barrier();
          ByteVec back(to_size(nbytes), Byte{0});
          if (collective)
            mf.read_at_all(0, back.data(), nbytes, dt::byte());
          else
            mf.read_at(0, back.data(), nbytes, dt::byte());
          EXPECT_EQ(back, stream);
        });
        ByteVec img = iotest::backend_image(f);
        ByteVec ref = want;
        iotest::pad_to_common(img, ref);
        EXPECT_EQ(img, ref)
            << request_class_name(cls) << " " << mpiio::method_name(m)
            << (collective ? " collective" : " independent");
      }
    }
  }
}

TEST(PsrvBackend, ServerStatsAttributeRequestClasses) {
  PoolConfig cfg = small_pool_config();
  auto pool = ServerPool::create(cfg);
  auto contig = ServerFile::create(pool, RequestClass::Contig);
  auto list = ServerFile::create(pool, RequestClass::List);
  auto view = ServerFile::create(pool, RequestClass::View);

  contig->pwrite(0, iotest::payload_stream(1, 100));
  ServerStats t = pool->total_server_stats();
  EXPECT_GT(t.contig_ops, 0u);
  EXPECT_EQ(t.list_ops, 0u);
  EXPECT_EQ(t.view_ops, 0u);
  EXPECT_EQ(t.contig_bytes, 100u);

  // Two file-adjacent extents on one server: coalesced client-side into
  // one wire extent.
  ByteVec d = iotest::payload_stream(2, 20);
  const pfs::ConstIoVec wv[] = {{0, ConstByteSpan(d.data(), 10)},
                                {10, ConstByteSpan(d.data() + 10, 10)}};
  list->pwritev(wv);
  t = pool->total_server_stats();
  EXPECT_GT(t.list_ops, 0u);
  EXPECT_EQ(t.list_extents, 1u);
  EXPECT_EQ(t.list_bytes, 20u);

  const dt::Type ft = iotest::noncontig_filetype(4, 8, 2, 0);
  const ByteVec stream = iotest::payload_stream(3, 32);
  view->view_write(ft, 0, 0, stream);
  t = pool->total_server_stats();
  EXPECT_GT(t.view_ops, 0u);
  EXPECT_GT(t.view_segments, 0u);
  EXPECT_GT(t.view_installs, 0u);
  EXPECT_EQ(t.view_bytes, 32u);
}

TEST(PsrvBackend, ViewPastThePlanCapWalksTheCursor) {
  // One more 1-byte run per instance than PackPlan compiles: the server
  // walks this view with the cursor.  Each run is one iovec, so
  // view_segments counts one per byte moved, and nothing batches.
  constexpr Off kRuns = Off{fotf::PackPlan::kDefaultMaxRuns} + 1;
  const dt::Type ft =
      dt::resized(dt::hvector(kRuns, 1, 2, dt::byte()), 0, 2 * kRuns);
  ASSERT_EQ(fotf::PackPlan::compile(ft), nullptr);
  const Off disp = 16;
  const Off nbytes = 2 * kRuns + 100;  // across two instance wraps
  PoolConfig cfg = small_pool_config();
  cfg.stripe = 1024;
  cfg.capacity = 3 * 4 * 1024;
  auto f = make_file(RequestClass::View, cfg);
  const ByteVec stream = iotest::payload_stream(5, nbytes);
  f->view_write(ft, disp, 0, stream);
  ByteVec back(to_size(nbytes));
  f->view_read(ft, disp, 0, back);
  EXPECT_EQ(back, stream);

  pfs::FilePtr ref = pfs::MemFile::create();
  for (Off k = 0; k < nbytes; ++k)
    ref->pwrite(disp + fotf::mem_start(ft, k),
                ConstByteSpan(stream.data() + k, 1));
  ByteVec img = iotest::backend_image(f);
  ByteVec want = iotest::backend_image(ref);
  iotest::pad_to_common(img, want);
  EXPECT_EQ(img, want);

  const ServerStats t = f->pool()->total_server_stats();
  EXPECT_EQ(t.view_segments, static_cast<std::uint64_t>(2 * nbytes));
  EXPECT_EQ(t.batched_extents, 0u);
}

TEST(PsrvBackend, ViewWireBytesBeatListWireBytesOnSparsePattern) {
  // The paper's motivating pattern: many tiny (8-byte) blocks.  The list
  // class ships 16 bytes of ol-list per block every time; the view class
  // ships the fixed-size tree once per server, then only (disp, range)
  // scalars.  Wire volume must be strictly smaller for view I/O.
  const Off nblock = 64, sblock = 8;
  const dt::Type ft = iotest::noncontig_filetype(nblock, sblock, 2, 0);
  const Off nbytes = nblock * sblock;
  const ByteVec stream = iotest::payload_stream(11, nbytes);

  auto wire_bytes_of = [&](RequestClass cls) {
    PoolConfig cfg = small_pool_config();
    cfg.stripe = 256;
    cfg.capacity = 3 * 256;
    auto f = make_file(cls, cfg);
    f->pool()->reset_wire_stats();
    ByteVec back(to_size(nbytes));
    if (cls == RequestClass::View) {
      // Twice, so the one-off tree install is amortized like a real
      // repeated access pattern; list pays the ol-list both times.
      f->view_write(ft, 0, 0, stream);
      f->view_write(ft, 0, 0, stream);
      f->view_read(ft, 0, 0, back);
    } else {
      // The engine-level equivalent: one vectored access per block run.
      std::vector<pfs::ConstIoVec> wv;
      for (Off i = 0; i < nblock; ++i)
        wv.push_back({i * 2 * sblock,
                      ConstByteSpan(stream.data() + i * sblock,
                                    to_size(sblock))});
      f->pwritev(wv);
      f->pwritev(wv);
      std::vector<pfs::IoVec> rv;
      for (Off i = 0; i < nblock; ++i)
        rv.push_back({i * 2 * sblock,
                      ByteSpan(back.data() + i * sblock, to_size(sblock))});
      f->preadv(rv);
    }
    EXPECT_EQ(back, stream) << request_class_name(cls);
    return f->pool()->wire_stats().total_bytes();
  };

  const std::uint64_t list_bytes = wire_bytes_of(RequestClass::List);
  const std::uint64_t view_bytes = wire_bytes_of(RequestClass::View);
  EXPECT_LT(view_bytes, list_bytes);
}

TEST(PsrvBackend, QueueDepthIsBounded) {
  PoolConfig cfg = small_pool_config();
  cfg.queue_depth = 2;
  cfg.client_slots = 8;
  auto pool = ServerPool::create(cfg);
  // Credits belong to the server, not the handle: two handles writing at
  // once still share a depth of 2.
  const std::shared_ptr<ServerFile> files[] = {
      ServerFile::create(pool, RequestClass::Contig),
      ServerFile::create(pool, RequestClass::Contig)};
  // 8 concurrent writers on alternating handles, each splitting into many
  // per-shard round trips.
  std::vector<std::thread> writers;
  for (int w = 0; w < 8; ++w)
    writers.emplace_back([&, w] {
      ServerFile& f = *files[w % 2];
      for (int i = 0; i < 4; ++i)
        f.pwrite(w * 400, iotest::payload_stream(w, 384));
    });
  for (auto& t : writers) t.join();
  for (int s = 0; s < pool->nservers(); ++s)
    EXPECT_LE(pool->server_stats(s).max_queue_depth, 2u) << "server " << s;
  EXPECT_GT(pool->total_server_stats().requests, 0u);
}

TEST(PsrvBackend, QueueWaitExcludesService) {
  // One client issuing one request at a time never queues behind anyone,
  // so its requests' wait must stay below the time spent serving them.
  PoolConfig cfg = small_pool_config();
  cfg.make_shard = [](int) -> pfs::FilePtr {
    pfs::ThrottleConfig tc;
    tc.op_latency_s = 2e-3;
    return pfs::ThrottledFile::wrap(pfs::MemFile::create(), tc);
  };
  auto f = make_file(RequestClass::Contig, cfg);
  for (int i = 0; i < 8; ++i) f->pwrite(i * 16, iotest::payload_stream(i, 16));
  const ServerStats t = f->pool()->total_server_stats();
  EXPECT_GT(t.service_s, 8 * 2e-3);
  EXPECT_LT(t.queue_wait_s, t.service_s);
}

TEST(PsrvBackend, ViewCacheEvictionTriggersUnknownViewRetry) {
  PoolConfig cfg = small_pool_config();
  cfg.view_cache_cap = 1;
  auto f = make_file(RequestClass::View, cfg);
  const dt::Type fta = iotest::noncontig_filetype(4, 8, 2, 0);
  const dt::Type ftb = iotest::noncontig_filetype(2, 16, 2, 0);
  const ByteVec sa = iotest::payload_stream(1, 32);
  const ByteVec sb = iotest::payload_stream(2, 32);
  // Alternating views with a one-entry cache: every switch evicts, and
  // the client's "already installed" belief goes stale — the UnknownView
  // retry must make this fully transparent.
  for (int round = 0; round < 3; ++round) {
    f->view_write(fta, 0, 0, sa);
    f->view_write(ftb, 0, 0, sb);
  }
  ByteVec ba(32), bb(32);
  f->view_read(fta, 0, 0, ba);
  f->view_read(ftb, 0, 0, bb);
  // Reference: replay on MemFile through the same public contract.
  auto ref = pfs::MemFile::create();
  auto rf = make_file(RequestClass::View);  // fresh, big cache
  for (int round = 0; round < 3; ++round) {
    rf->view_write(fta, 0, 0, sa);
    rf->view_write(ftb, 0, 0, sb);
  }
  ByteVec ra(32), rb(32);
  rf->view_read(fta, 0, 0, ra);
  rf->view_read(ftb, 0, 0, rb);
  EXPECT_EQ(ba, ra);
  EXPECT_EQ(bb, rb);
  const ServerStats t = f->pool()->total_server_stats();
  EXPECT_GT(t.view_evictions, 0u);
  EXPECT_GT(t.view_misses, 0u);
}

/// One independent listless write, then read, of `stream` through a
/// strided user buffer (8-byte blocks at a 24-byte stride) at byte
/// offset `offset` of the view `ft` displaced by `disp`.  Returns the
/// stream read back; `wr` and `rd` get the two ops' stats.
ByteVec nc_view_round_trip(const pfs::FilePtr& fs, const dt::Type& ft,
                           Off disp, Off offset, const ByteVec& stream,
                           mpiio::IoOpStats& wr, mpiio::IoOpStats& rd) {
  ByteVec got;
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    mpiio::Options o;
    o.method = mpiio::Method::Listless;
    mpiio::File f = mpiio::File::open(comm, fs, o);
    f.set_view(disp, dt::byte(), ft);
    auto buf = iotest::make_nc_buffer(stream);
    f.write_at(offset, buf.storage.data(), buf.count, buf.memtype);
    wr = f.last_stats();
    auto back = iotest::make_nc_buffer(ByteVec(stream.size(), Byte{0}));
    f.read_at(offset, back.storage.data(), back.count, back.memtype);
    rd = f.last_stats();
    got = iotest::nc_buffer_stream(back);
  });
  return got;
}

TEST(PsrvStream, NcMemtypeAtUnalignedOffsetSplitsIntoStripeRequests) {
  // Stream bytes [20, 180) of 8-byte blocks at a 16-byte stride, from
  // file byte 8: stream [20, 64) lands on server 0 and [64, 180) on
  // server 1, so with 64-byte stripes each op is 1 + 2 requests, packed
  // from and unpacked into a strided buffer.
  PoolConfig cfg = small_pool_config();
  cfg.nservers = 2;
  cfg.capacity = 4 * cfg.stripe;
  auto f = make_file(RequestClass::View, cfg);
  const dt::Type ft = iotest::noncontig_filetype(8, 8, 2, 0);
  const Off disp = 8, offset = 20, nbytes = 160;
  const ByteVec stream = iotest::payload_stream(6, nbytes);
  mpiio::IoOpStats wr, rd;
  EXPECT_EQ(nc_view_round_trip(f, ft, disp, offset, stream, wr, rd), stream);

  auto ref = pfs::MemFile::create();
  mpiio::IoOpStats rwr, rrd;
  EXPECT_EQ(nc_view_round_trip(ref, ft, disp, offset, stream, rwr, rrd),
            stream);
  ByteVec img = iotest::backend_image(f);
  ByteVec want = iotest::backend_image(ref);
  iotest::pad_to_common(img, want);
  EXPECT_EQ(img, want);

  // Each op sends every server ceil(slice / stripe) requests.
  std::uint64_t ops = 0;
  for (int s = 0; s < cfg.nservers; ++s) {
    const ServerStats st = f->pool()->server_stats(s);
    const std::uint64_t slice = st.view_bytes / 2;  // per op
    ASSERT_GT(slice, 0u) << "server " << s;
    const std::uint64_t stripe = static_cast<std::uint64_t>(cfg.stripe);
    EXPECT_EQ(st.view_ops, 2 * ((slice + stripe - 1) / stripe))
        << "server " << s;
    ops += st.view_ops;
  }
  EXPECT_EQ(ops, 2u * 3u);
}

TEST(PsrvStream, ViewOpChargesPackAndUnpackToCopyTime) {
  // The pack into each request and the unpack out of each reply run
  // inside the view call; they are copy time, not file time.  The op is
  // large enough that counting them in both would exceed its wall time.
  PoolConfig cfg = small_pool_config();
  cfg.stripe = 16 << 10;
  cfg.capacity = 3 * cfg.stripe;
  auto f = make_file(RequestClass::View, cfg);
  const dt::Type ft = iotest::noncontig_filetype(8, 8, 2, 0);
  const ByteVec stream = iotest::payload_stream(2, 256 << 10);
  mpiio::IoOpStats wr, rd;
  EXPECT_EQ(nc_view_round_trip(f, ft, 0, 0, stream, wr, rd), stream);
  for (const mpiio::IoOpStats* st : {&wr, &rd}) {
    EXPECT_GT(st->copy_s, 0.0);
    EXPECT_GT(st->file_s, 0.0);
    EXPECT_LE(st->copy_s + st->file_s, st->total_s);
  }
}

TEST(PsrvStream, UnknownViewRetryRefillsMultiRequestWrites) {
  // A one-entry view cache and two alternating views, each write several
  // requests per server: every switch back meets an evicted view, and
  // each retried request packs its payload again.
  const dt::Type fta = iotest::noncontig_filetype(4, 8, 2, 0);
  const dt::Type ftb = iotest::noncontig_filetype(2, 16, 2, 0);
  const Off nbytes = 96;
  const ByteVec sa = iotest::payload_stream(1, nbytes);
  const ByteVec sb = iotest::payload_stream(2, nbytes);
  const auto run = [&](int cache_cap, Off& filled, ByteVec& ra, ByteVec& rb) {
    PoolConfig cfg = small_pool_config();
    cfg.stripe = 16;
    cfg.view_cache_cap = cache_cap;
    auto f = make_file(RequestClass::View, cfg);
    const auto write = [&](const dt::Type& ft, const ByteVec& s) {
      f->view_write_stream(ft, 0, 0, nbytes, [&](Byte* p, Off lo, Off n) {
        std::memcpy(p, s.data() + lo, to_size(n));
        filled += n;
      });
    };
    for (int round = 0; round < 3; ++round) {
      write(fta, sa);
      write(ftb, sb);
    }
    ra.assign(to_size(nbytes), Byte{0});
    rb.assign(to_size(nbytes), Byte{0});
    f->view_read(fta, 0, 0, ra);
    f->view_read(ftb, 0, 0, rb);
    EXPECT_GT(f->pool()->server_stats(0).view_ops, 6u);  // > 1 per op
    return f;
  };
  Off filled = 0, ref_filled = 0;
  ByteVec ra, rb, refa, refb;
  auto f = run(1, filled, ra, rb);
  auto ref = run(64, ref_filled, refa, refb);
  EXPECT_EQ(ra, sa);
  EXPECT_EQ(rb, sb);
  EXPECT_EQ(refa, sa);
  EXPECT_EQ(refb, sb);
  ByteVec img = iotest::backend_image(f);
  ByteVec want = iotest::backend_image(ref);
  iotest::pad_to_common(img, want);
  EXPECT_EQ(img, want);
  EXPECT_GT(f->pool()->total_server_stats().view_misses, 0u);
  EXPECT_EQ(ref->pool()->total_server_stats().view_misses, 0u);
  EXPECT_EQ(ref_filled, 6 * nbytes);
  EXPECT_GT(filled, ref_filled);
}

TEST(PsrvStream, ThrowingCallbackLeavesTheEndpointClean) {
  // A fill or drain that throws mid-op stops the sends, but every
  // response already owed is still consumed: the next op on the same
  // (only) endpoint sees its own responses, not stale ones.
  PoolConfig cfg = small_pool_config();
  cfg.stripe = 16;
  cfg.client_slots = 1;
  auto f = make_file(RequestClass::View, cfg);
  const dt::Type ft = iotest::noncontig_filetype(4, 8, 2, 0);
  const Off nbytes = 96;
  const ByteVec stream = iotest::payload_stream(3, nbytes);
  int calls = 0;
  const auto fill = [&](Byte* p, Off s, Off n) {
    if (++calls == 3) throw std::runtime_error("fill failed");
    std::memcpy(p, stream.data() + s, to_size(n));
  };
  EXPECT_THROW(f->view_write_stream(ft, 0, 0, nbytes, fill),
               std::runtime_error);
  f->view_write(ft, 0, 0, stream);
  calls = 0;
  EXPECT_THROW(f->view_read_stream(ft, 0, 0, nbytes,
                                   [&](const Byte*, Off, Off) {
                                     if (++calls == 2)
                                       throw std::runtime_error("drain");
                                   }),
               std::runtime_error);
  ByteVec back(to_size(nbytes));
  f->view_read(ft, 0, 0, back);
  EXPECT_EQ(back, stream);
}

TEST(PsrvBackend, ShardFaultsSurfaceAsIoErrors) {
  PoolConfig cfg = small_pool_config();
  cfg.make_shard = [](int server) -> pfs::FilePtr {
    pfs::FilePtr mem = pfs::MemFile::create();
    if (server != 1) return mem;
    pfs::FaultPlan plan;
    plan.fail_after_writes = 0;  // server 1: first write fails
    return pfs::FaultyFile::wrap(std::move(mem), plan);
  };
  for (RequestClass cls : kClasses) {
    auto f = make_file(cls, cfg);
    // Shard 0 only: fine.
    f->pwrite(0, iotest::payload_stream(1, 32));
    // Spans shard 1: the server's Errc::Io must reach this thread.
    try {
      f->pwrite(32, iotest::payload_stream(1, 64));
      FAIL() << "expected Errc::Io for " << request_class_name(cls);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::Io) << request_class_name(cls);
    }
    // The pool survives the fault: shard 0 still serves.
    ByteVec back(32);
    EXPECT_EQ(f->pread(0, back), 32) << request_class_name(cls);
  }
}

TEST(PsrvBackend, ViewErrorsSurfaceThroughViewIo) {
  PoolConfig cfg = small_pool_config();
  cfg.make_shard = [](int) -> pfs::FilePtr {
    pfs::FaultPlan plan;
    plan.fail_after_writes = 0;
    return pfs::FaultyFile::wrap(pfs::MemFile::create(), plan);
  };
  auto f = make_file(RequestClass::View, cfg);
  const dt::Type ft = iotest::noncontig_filetype(4, 8, 1, 0);
  try {
    f->view_write(ft, 0, 0, iotest::payload_stream(1, 32));
    FAIL() << "expected Errc::Io";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::Io);
  }
}

TEST(PsrvDecorators, ThrottledAndFaultyMaskViewIoTracedForwardsIt) {
  auto f = make_file(RequestClass::View);
  ASSERT_NE(f->view_io(), nullptr);
  // Cost/fault decorators must see every byte: capability masked, the
  // engines fall back to pread/pwrite through the wrapper.
  auto throttled = pfs::ThrottledFile::wrap(f, {});
  EXPECT_EQ(throttled->view_io(), nullptr);
  auto faulty = pfs::FaultyFile::wrap(f, {});
  EXPECT_EQ(faulty->view_io(), nullptr);
  // The tracer is observational: it forwards the capability (wrapped, so
  // accesses are still recorded) ...
  auto traced = pfs::TracedFile::wrap(f);
  EXPECT_NE(traced->view_io(), nullptr);
  // ... but only when the inner backend has it.
  auto traced_mem = pfs::TracedFile::wrap(pfs::MemFile::create());
  EXPECT_EQ(traced_mem->view_io(), nullptr);
  // And Traced(Throttled(view backend)) is masked transitively.
  auto traced_throttled = pfs::TracedFile::wrap(throttled);
  EXPECT_EQ(traced_throttled->view_io(), nullptr);
}

TEST(PsrvDecorators, TracedViewIoCountsBytesExactlyOnce) {
  auto f = make_file(RequestClass::View);
  auto traced = pfs::TracedFile::wrap(f);
  const dt::Type ft = iotest::noncontig_filetype(4, 8, 1, 0);
  const ByteVec stream = iotest::payload_stream(4, 32);
  pfs::ViewIo* vio = traced->view_io();
  ASSERT_NE(vio, nullptr);
  EXPECT_EQ(vio->view_write(ft, 0, 0, stream), 32);
  ByteVec back(32);
  EXPECT_EQ(vio->view_read(ft, 0, 0, back), 32);
  EXPECT_EQ(back, stream);

  // The stream forms, over all three servers: the tracer forwards them
  // unstaged, so the callbacks see the server requests' stripe-sized
  // pieces, never one staged buffer of the whole range.
  const dt::Type wide = iotest::noncontig_filetype(4, 8, 2, 0);
  const Off nbytes = 160;
  const ByteVec wstream = iotest::payload_stream(5, nbytes);
  const Off stripe = f->pool()->config().stripe;
  int calls = 0;
  EXPECT_EQ(vio->view_write_stream(wide, 0, 0, nbytes,
                                   [&](Byte* p, Off s, Off n) {
                                     EXPECT_LE(n, stripe);
                                     std::memcpy(p, wstream.data() + s,
                                                 to_size(n));
                                     ++calls;
                                   }),
            nbytes);
  EXPECT_GT(calls, 1);
  calls = 0;
  ByteVec wback(to_size(nbytes));
  EXPECT_EQ(vio->view_read_stream(wide, 0, 0, nbytes,
                                  [&](const Byte* p, Off s, Off n) {
                                    EXPECT_LE(n, stripe);
                                    std::memcpy(wback.data() + s, p,
                                                to_size(n));
                                    ++calls;
                                  }),
            nbytes);
  EXPECT_GT(calls, 1);
  EXPECT_EQ(wback, wstream);

  // Each layer counts its own stats once: payload bytes, not payload
  // times the number of layers.
  const pfs::FileStats outer = traced->stats();
  EXPECT_EQ(outer.write_bytes, 32u + 160u);
  EXPECT_EQ(outer.read_bytes, 32u + 160u);
  EXPECT_EQ(outer.write_ops, 2u);
  EXPECT_EQ(outer.read_ops, 2u);
  const pfs::FileStats inner = f->stats();
  EXPECT_EQ(inner.write_bytes, 32u + 160u);
  EXPECT_EQ(inner.read_bytes, 32u + 160u);
  EXPECT_EQ(inner.write_ops, 2u);
  EXPECT_EQ(inner.read_ops, 2u);
}

TEST(PsrvDecorators, EngineFallsBackThroughMaskingDecorators) {
  // A view-class backend behind FaultyFile: the engine must not use
  // ViewIo, so all bytes pass the wrapper and its armed fault fires.
  auto f = make_file(RequestClass::View);
  pfs::FaultPlan plan;
  plan.fail_after_writes = 0;
  auto faulty = pfs::FaultyFile::wrap(f, plan);
  const dt::Type ft = iotest::noncontig_filetype(4, 8, 1, 0);
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    mpiio::Options o;
    o.ds_write = mpiio::Sieving::Never;
    mpiio::File mf = mpiio::File::open(comm, faulty, o);
    mf.set_view(0, dt::byte(), ft);
    const ByteVec stream = iotest::payload_stream(1, 32);
    try {
      mf.write_at(0, stream.data(), 32, dt::byte());
      ADD_FAILURE() << "fault did not fire: bytes bypassed the decorator";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::Io);
    }
  });
}

TEST(PsrvHints, OptionsSelectServersQueueDepthRequestClassAndNet) {
  const std::string spec = "psrv:servers=5,qd=3,request=view,net=mid";
  const mpiio::Options o =
      mpiio::apply_info(mpiio::Info{{"llio_backend", spec}}, {});
  EXPECT_EQ(o.backend, spec);
  const pfs::BackendSpec bs = pfs::parse_backend_spec(o.backend);
  EXPECT_EQ(bs.servers, 5);
  EXPECT_EQ(bs.qd, 3);
  EXPECT_EQ(bs.request, "view");
  EXPECT_EQ(bs.net, "mid");

  auto f = std::dynamic_pointer_cast<ServerFile>(make_backend(bs));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pool()->nservers(), 5);
  EXPECT_EQ(f->pool()->config().queue_depth, 3);
  EXPECT_EQ(f->request_class(), RequestClass::View);
  EXPECT_NE(f->view_io(), nullptr);
  const sim::CommCostModel mid = sim::named_cost_model("mid");
  EXPECT_EQ(f->pool()->config().net.latency_s, mid.latency_s);
  EXPECT_EQ(f->pool()->config().net.bandwidth_bps, mid.bandwidth_bps);

  // Round trip through options_to_info.
  const mpiio::Options o2 = mpiio::apply_info(mpiio::options_to_info(o), {});
  EXPECT_EQ(o2.backend, spec);

  EXPECT_THROW(mpiio::apply_info(
                   mpiio::Info{{"llio_backend", "psrv:request=bulk"}}, {}),
               Error);
  EXPECT_THROW(
      mpiio::apply_info(mpiio::Info{{"llio_backend", "psrv:qd=0"}}, {}),
      Error);
  EXPECT_THROW(request_class_from_name("bulk"), Error);
}

TEST(PsrvHints, BackendSpecsRejectMalformedAndComposePosixQueueDepth) {
  // Every malformed spec fails with InvalidArgument, both as an
  // llio_backend hint and through the factory.
  const char* const kBad[] = {
      "",                            // unknown kind
      "disk:/tmp",                   // unknown kind
      "psrv:servers=2,bogus=1",      // unknown key
      "mem,qd=4",                    // key of another kind
      "posix:/tmp,cache=1",          // unknown key
      "psrv:weight=2",               // unknown key
      "psrv:cache=1",                // unknown key
      "psrv:lease=8",                // unknown key
      "psrv:qd=2,qd=3",              // repeated key
      "mem,net=mid,net=fast",        // repeated key
      "psrv:servers=two",            // malformed value
      "psrv:servers=-1",             // malformed value
      "psrv:servers",                // not key=value
      "posix:/tmp,direct=yes",       // malformed value
      "psrv:request=bulk",           // malformed value
      "mem,net=",                    // malformed value
      "mem,",                        // empty item
      "mem:x",                       // mem takes no field
      "posix:/tmp,qd=0",             // qd=0
      "psrv:qd=0",                   // qd=0
      "posix",                       // empty <dir>
      "posix:",                      // empty <dir>
      "posix:,qd=2",                 // empty <dir>
  };
  for (const char* spec : kBad) {
    try {
      make_backend(pfs::parse_backend_spec(spec));
      ADD_FAILURE() << "accepted '" << spec << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::InvalidArgument) << spec;
    }
    EXPECT_THROW(mpiio::apply_info(mpiio::Info{{"llio_backend", spec}}, {}),
                 Error)
        << spec;
  }
  // A well-formed spec naming an unknown interconnect fails in the
  // factory, on every kind.
  for (const char* spec : {"mem,net=warp", "psrv:net=warp"}) {
    try {
      make_backend(pfs::parse_backend_spec(spec));
      ADD_FAILURE() << "accepted '" << spec << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::InvalidArgument) << spec;
    }
  }

  // posix with qd > 1 composes an AsyncQdFile over the PosixFile.
  const pfs::FilePtr f = make_backend(pfs::parse_backend_spec(
      "posix:" + ::testing::TempDir() + ",qd=4,direct=1"));
  ASSERT_NE(std::dynamic_pointer_cast<pfs::AsyncQdFile>(f), nullptr);
  const auto info = f->async_info();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->queue_depth, 4);
  EXPECT_TRUE(info->direct);
  EXPECT_NE(std::dynamic_pointer_cast<pfs::MemFile>(
                make_backend(pfs::parse_backend_spec("mem,net=mid"))),
            nullptr);
}

TEST(PsrvHints, NamedCostModels) {
  EXPECT_EQ(sim::named_cost_model("shared-mem").latency_s, 0.0);
  EXPECT_GT(sim::named_cost_model("fast").bandwidth_bps,
            sim::named_cost_model("mid").bandwidth_bps);
  EXPECT_GT(sim::named_cost_model("mid").bandwidth_bps,
            sim::named_cost_model("slow").bandwidth_bps);
  EXPECT_LT(sim::named_cost_model("fast").latency_s,
            sim::named_cost_model("slow").latency_s);
  const sim::CommCostModel custom = sim::named_cost_model("2.5e-6:5e9");
  EXPECT_DOUBLE_EQ(custom.latency_s, 2.5e-6);
  EXPECT_DOUBLE_EQ(custom.bandwidth_bps, 5e9);
  EXPECT_THROW(sim::named_cost_model("warp"), Error);
  EXPECT_THROW(sim::named_cost_model("1e-6:"), Error);
  EXPECT_THROW(sim::named_cost_model(""), Error);
  EXPECT_EQ(sim::standard_cost_models().size(), 4u);
}

TEST(PsrvConcurrency, ManyClientsOneSharedPool) {
  // Rank-threads from two separate runtimes plus raw threads all hammer
  // one pool through separate handles — disjoint ranges, then verify.
  PoolConfig cfg = small_pool_config();
  cfg.client_slots = 4;  // fewer slots than clients: checkout contention
  auto pool = ServerPool::create(cfg);
  constexpr int kClients = 6;
  constexpr Off kSpan = 200;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      auto f = ServerFile::create(
          pool, kClasses[static_cast<std::size_t>(c) % 3]);
      for (int round = 0; round < 3; ++round)
        f->pwrite(c * kSpan, iotest::payload_stream(c, kSpan));
    });
  for (auto& t : clients) t.join();
  auto reader = ServerFile::create(pool, RequestClass::List);
  for (int c = 0; c < kClients; ++c) {
    ByteVec back(to_size(kSpan));
    reader->pread(c * kSpan, back);
    EXPECT_EQ(back, iotest::payload_stream(c, kSpan)) << "client " << c;
  }
}

// Byte i belongs to handle (i / kChunk) % kHandles.  kChunk does not
// divide the 64-byte stripe, so chunks straddle shard boundaries.
constexpr int kHandles = 3;
constexpr Off kModelSpan = 4 << 10;
constexpr Off kChunk = 48;

TEST(PsrvConcurrency, InterleavedHandlesMatchModel) {
  PoolConfig cfg = small_pool_config();
  cfg.capacity = kModelSpan;
  auto pool = ServerPool::create(cfg);
  {  // Pre-extend to the full span so no read ever lands past EOF.
    auto init = ServerFile::create(pool, RequestClass::List);
    init->pwrite(0, ByteVec(to_size(kModelSpan), Byte{0}));
  }
  std::vector<std::shared_ptr<ServerFile>> files;
  for (int h = 0; h < kHandles; ++h)
    files.push_back(ServerFile::create(pool, RequestClass::List));

  ByteVec model(to_size(kModelSpan), Byte{0});
  std::vector<std::thread> clients;
  for (int h = 0; h < kHandles; ++h) {
    clients.emplace_back([&, h] {
      std::uint64_t rng = 0x9E3779B97F4A7C15ull * static_cast<unsigned>(h + 1);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      ServerFile& f = *files[static_cast<std::size_t>(h)];
      for (int op = 0; op < 160; ++op) {
        // Pick one of my chunks and a sub-extent inside it.
        const Off nchunks = kModelSpan / kChunk;
        Off c = to_off(next() % static_cast<std::uint64_t>(nchunks));
        c = c - (c % kHandles) + Off{h};  // chunk index owned by me
        if (c >= nchunks) c = Off{h};
        const Off base = c * kChunk;
        const Off lo = base + to_off(next() % 32);
        const Off len = 1 + to_off(next() % to_size(kChunk - (lo - base)));
        const std::uint64_t kind = next() % 8;
        if (kind < 4) {  // write my bytes, remember them in the model
          ByteVec data(to_size(len));
          for (Off i = 0; i < len; ++i)
            data[to_size(i)] = Byte{static_cast<unsigned char>(next())};
          f.pwrite(lo, data);
          // My bytes are mine alone: plain stores race with nobody.
          std::memcpy(model.data() + lo, data.data(), data.size());
        } else if (kind < 7) {  // read my bytes back, verify vs model
          ByteVec back(to_size(len));
          f.pread(lo, back);
          for (Off i = 0; i < len; ++i)
            EXPECT_EQ(back[to_size(i)], model[to_size(lo + i)])
                << "handle " << h << " off " << lo + i;
        } else {  // read across other handles' bytes while they write
          const Off flo = to_off(next() % to_size(kModelSpan - 64));
          ByteVec sink(64);
          f.pread(flo, sink);
        }
      }
      f.sync();
    });
  }
  for (std::thread& t : clients) t.join();

  auto reader = ServerFile::create(pool, RequestClass::List);
  ByteVec image(to_size(kModelSpan), Byte{0});
  reader->pread(0, image);
  EXPECT_EQ(image, model);
}

}  // namespace
}  // namespace llio::psrv
