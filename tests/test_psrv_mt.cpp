// Multi-tenant psrv: the fair-share scheduler, the lease table, the
// session's lease-coherent client cache (hits, write-back, recalls,
// abandonment + fencing), and the acceptance fuzz — concurrent cached
// sessions must produce a final file image byte-identical to the same
// op schedule over uncached sessions and to an in-memory model.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "io_test_util.hpp"
#include "mpiio/info.hpp"
#include "psrv/lease.hpp"
#include "psrv/server_file.hpp"
#include "psrv/session.hpp"
#include "psrv/wire.hpp"

namespace llio::psrv {
namespace {

using iotest::small_pool_config;

// ---- FairScheduler -------------------------------------------------------

/// A request tagged with a recognizable marker in its message bytes.
PendingReq mk(std::int64_t session, std::int64_t marker) {
  PendingReq r;
  r.src = 0;
  r.session = session;
  wire::put_i64(r.msg, marker);
  return r;
}

std::int64_t marker_of(const PendingReq& r) {
  return wire::Reader(ConstByteSpan(r.msg.data(), r.msg.size())).i64();
}

TEST(FairScheduler, ExpressOvertakesQueuedData) {
  FairScheduler s(/*deadline_ticks=*/1000);
  s.push(mk(1, 10), /*now=*/0);
  s.push(mk(1, 11), 0);
  s.push_express(mk(2, 99));
  auto r = s.pop(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(marker_of(*r), 99);
  EXPECT_EQ(marker_of(*s.pop(0)), 10);
}

TEST(FairScheduler, WeightedRoundRobinHonorsWeights) {
  FairScheduler s(1000);
  s.set_weight(1, 1);
  s.set_weight(2, 3);
  for (int i = 0; i < 4; ++i) s.push(mk(1, 100 + i), 0);
  for (int i = 0; i < 12; ++i) s.push(mk(2, 200 + i), 0);
  // Each rotation serves 1 from session 1 and 3 from session 2.
  std::vector<std::int64_t> order;
  while (!s.empty()) order.push_back(s.pop(0)->session);
  ASSERT_EQ(order.size(), 16u);
  for (int rot = 0; rot < 4; ++rot) {
    EXPECT_EQ(order[to_size(Off{rot} * 4)], 1) << "rotation " << rot;
    for (int k = 1; k < 4; ++k)
      EXPECT_EQ(order[to_size(Off{rot} * 4 + k)], 2) << "rotation " << rot;
  }
}

TEST(FairScheduler, OverdueRequestsServeEarliestDeadlineFirst) {
  FairScheduler s(/*deadline_ticks=*/10);
  // Session 2 registers first (owns the rotation cursor) but its request
  // is younger; once both are overdue, EDF must pick session 1's.
  s.push(mk(2, 22), /*now=*/5);  // deadline 15
  s.push(mk(1, 11), /*now=*/0);  // deadline 10
  auto r = s.pop(/*now=*/20);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(marker_of(*r), 11);
  EXPECT_GE(s.escalations(), 1u);
}

TEST(FairScheduler, BlockedLaneIsSkippedUntilUnblocked) {
  FairScheduler s(1000);
  s.push(mk(1, 10), 0);
  s.push(mk(1, 11), 0);
  s.push(mk(2, 20), 0);
  s.block(1);
  EXPECT_EQ(marker_of(*s.pop(0)), 20);
  // Only the blocked lane remains: pop yields nothing, size stays.
  EXPECT_FALSE(s.pop(0).has_value());
  EXPECT_EQ(s.size(), 2u);
  s.unblock(1);
  EXPECT_EQ(marker_of(*s.pop(0)), 10);  // lane FIFO preserved
  EXPECT_EQ(marker_of(*s.pop(0)), 11);
}

TEST(FairScheduler, StealFrontTakesOnlyMatchingUnblockedFronts) {
  FairScheduler s(1000);
  s.push(mk(1, 10), 0);
  s.push(mk(1, 11), 0);
  s.push(mk(2, 20), 0);
  auto pred = [](std::int64_t want) {
    return [want](const PendingReq& r) { return marker_of(r) == want; };
  };
  // 11 sits behind 10: not a front, not stealable.
  EXPECT_FALSE(s.steal_front(pred(11)).has_value());
  EXPECT_EQ(marker_of(*s.steal_front(pred(20))), 20);
  s.block(1);
  EXPECT_FALSE(s.steal_front(pred(10)).has_value());
  s.unblock(1);
  EXPECT_EQ(marker_of(*s.steal_front(pred(10))), 10);
  EXPECT_EQ(s.size(), 1u);
}

TEST(FairScheduler, DropSessionForgetsItsQueue) {
  FairScheduler s(1000);
  s.push(mk(1, 10), 0);
  s.push(mk(1, 11), 0);
  s.push(mk(2, 20), 0);
  s.drop_session(1);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(marker_of(*s.pop(0)), 20);
  EXPECT_TRUE(s.empty());
}

// ---- LeaseTable ----------------------------------------------------------

TEST(LeaseTable, ReadersShareWritersConflictAndRecall) {
  lease::LeaseTable t(/*grace=*/10);
  const auto r1 = t.acquire(1, /*session=*/100, lease::Mode::Read, 0, 100,
                            /*now=*/0, /*term=*/50);
  ASSERT_TRUE(r1.granted);
  EXPECT_EQ(r1.expiry, 50);
  const auto r2 =
      t.acquire(2, 200, lease::Mode::Read, 50, 150, 0, 50);
  EXPECT_TRUE(r2.granted);  // read-read never conflicts
  const auto w =
      t.acquire(3, 300, lease::Mode::Write, 40, 60, 0, 50);
  EXPECT_FALSE(w.granted);
  EXPECT_EQ(w.recalled.size(), 2u);  // both readers stood in the way
  EXPECT_EQ(t.stats().denied, 1u);
  EXPECT_EQ(t.stats().recalls, 2u);
  EXPECT_EQ(t.conflicts(300, /*writing=*/true, 40, 60, 0).size(), 2u);
  // A range covered only by the session's own lease: no self-conflict.
  EXPECT_TRUE(t.conflicts(100, true, 0, 40, 0).empty());
}

TEST(LeaseTable, NaturalExpiryLapsesReadLeasesOnly) {
  lease::LeaseTable t(10);
  ASSERT_TRUE(t.acquire(1, 100, lease::Mode::Read, 0, 10, 0, 5).granted);
  ASSERT_TRUE(
      t.acquire(2, 100, lease::Mode::Write, 20, 30, 0, 5).granted);
  EXPECT_EQ(t.sweep(/*now=*/100), 1);  // only the read lease lapsed
  EXPECT_EQ(t.stats().expired, 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.covered_by_write(100, 20, 30, 100));
  EXPECT_FALSE(t.is_fenced(100, 20, 30));  // lapse is not force-expiry
}

TEST(LeaseTable, RecallGraceForceExpiryFencesWriteRanges) {
  lease::LeaseTable t(/*grace=*/10);
  ASSERT_TRUE(
      t.acquire(7, 100, lease::Mode::Write, 0, 50, /*now=*/0, 50).granted);
  const auto recalled = t.mark_recalled({7}, /*now=*/0);
  ASSERT_EQ(recalled.size(), 1u);
  EXPECT_EQ(recalled[0].recall_deadline, 10);
  EXPECT_EQ(t.earliest_recall_deadline(), 10);
  // Marking again is idempotent: no second recall message owed.
  EXPECT_TRUE(t.mark_recalled({7}, 5).empty());
  EXPECT_EQ(t.sweep(/*now=*/9), 0);  // grace still running
  EXPECT_EQ(t.sweep(/*now=*/10), 1);
  EXPECT_EQ(t.stats().force_expired, 1u);
  EXPECT_EQ(t.stats().fenced_ranges, 1u);
  EXPECT_TRUE(t.is_fenced(100, 0, 50));
  EXPECT_TRUE(t.is_fenced(100, 30, 200));  // any overlap fences
  EXPECT_FALSE(t.is_fenced(100, 60, 70));
  EXPECT_FALSE(t.is_fenced(999, 0, 50));  // other sessions unaffected
  t.drop_session(100);  // graceful close clears the fence
  EXPECT_FALSE(t.is_fenced(100, 0, 50));
}

TEST(LeaseTable, ActivityRenewsReadLeasesButNotRecalledOnes) {
  lease::LeaseTable t(10);
  ASSERT_TRUE(t.acquire(1, 100, lease::Mode::Read, 0, 10, 0, 10).granted);
  t.renew_session(100, /*now=*/8);
  ASSERT_NE(t.find(1), nullptr);
  EXPECT_EQ(t.find(1)->expiry, 18);
  t.mark_recalled({1}, 8);
  t.renew_session(100, /*now=*/12);
  EXPECT_EQ(t.find(1)->expiry, 18);  // recall deadline stands
  const std::uint64_t v = t.version();
  EXPECT_TRUE(t.release(1));
  EXPECT_GT(t.version(), v);  // parked requests re-evaluate on release
}

// ---- Session: the lease-coherent client cache ----------------------------

PoolConfig mt_pool_config() {
  PoolConfig cfg = small_pool_config();
  cfg.session_slots = 4;
  return cfg;
}

TEST(SessionCache, RepeatReadsAreServedWithoutWireTraffic) {
  auto pool = ServerPool::create(mt_pool_config());
  SessionConfig sc;
  sc.cache = true;
  auto f = ServerFile::create(pool, RequestClass::List, sc);
  const ByteVec data = iotest::payload_stream(1, 150);
  f->pwrite(0, data);  // crosses two shard boundaries
  ByteVec back(150);
  f->pread(0, back);
  EXPECT_EQ(back, data);
  const auto msgs_before = pool->wire_stats().msgs_sent;
  ByteVec again(150);
  f->pread(0, again);
  EXPECT_EQ(again, data);
  EXPECT_EQ(pool->wire_stats().msgs_sent, msgs_before)
      << "repeat read of cached blocks must not touch the wire";
  EXPECT_GT(f->session().cache_stats().hits, 0u);
}

TEST(SessionCache, ConflictingReaderRecallsWriteBackAndSeesTheData) {
  auto pool = ServerPool::create(mt_pool_config());
  SessionConfig sc;
  sc.cache = true;
  auto cached = ServerFile::create(pool, RequestClass::List, sc);
  auto direct = ServerFile::create(pool, RequestClass::List);
  const ByteVec data = iotest::payload_stream(2, 150);
  cached->pwrite(0, data);  // buffered client-side under write leases
  ByteVec back(150);
  direct->pread(0, back);  // parks, recalls, waits for the flush
  EXPECT_EQ(back, data);
  EXPECT_GE(cached->session().cache_stats().recalls, 1u);
  const ServerStats st = pool->total_server_stats();
  EXPECT_GE(st.recalls_sent, 1u);
  EXPECT_GE(st.writeback_ops, 1u);
}

TEST(SessionCache, WireWritesBypassCoherentlyThroughPrepareBypass) {
  // A vectored write takes the direct wire path even on a cached
  // session; the cache must flush + invalidate so a later cached read
  // does not resurrect stale bytes.
  auto pool = ServerPool::create(mt_pool_config());
  SessionConfig sc;
  sc.cache = true;
  auto f = ServerFile::create(pool, RequestClass::List, sc);
  const ByteVec a(96, Byte{0xAA});
  f->pwrite(0, a);  // cached write-back
  ByteVec warm(96);
  f->pread(0, warm);  // cache holds [0, 96)
  const ByteVec b(48, Byte{0xBB});
  const pfs::ConstIoVec iov[] = {{24, ConstByteSpan(b.data(), b.size())}};
  f->pwritev(iov);  // wire path
  ByteVec back(96);
  f->pread(0, back);
  for (Off i = 0; i < 96; ++i)
    EXPECT_EQ(back[to_size(i)], (i >= 24 && i < 72) ? Byte{0xBB} : Byte{0xAA})
        << "offset " << i;
}

TEST(SessionCache, AbandonedClientExpiresByGraceAndLateFlushIsFenced) {
  PoolConfig cfg = mt_pool_config();
  cfg.lease_grace = 64;
  auto pool = ServerPool::create(cfg);
  SessionConfig sc;
  sc.cache = true;
  auto dead = ServerFile::create(pool, RequestClass::List, sc);
  const std::int64_t dead_id = dead->session().id();
  const ByteVec doomed(96, Byte{0xDD});
  dead->pwrite(0, doomed);      // dirty write-back, never flushed
  dead->session().abandon();    // client dies without a word

  // A live writer parks on the dead session's leases; the stalled server
  // jumps the sim clock to the recall deadline, force-expires them and
  // fences the dirty range, then serves.
  auto live = ServerFile::create(pool, RequestClass::List);
  const ByteVec fresh = iotest::payload_stream(3, 96);
  live->pwrite(0, fresh);
  ByteVec back(96);
  live->pread(0, back);
  EXPECT_EQ(back, fresh);

  // A write-back straggling in from the dead session must be dropped
  // extent-by-extent, not applied over the newer data.
  {
    auto ep = pool->checkout();
    ByteVec msg = wire::request_header(wire::Op::WriteBack, dead_id);
    wire::put_i64(msg, 1);   // one extent
    wire::put_i64(msg, 0);   // server-local offset on server 0
    wire::put_i64(msg, 32);  // length
    const ByteVec junk(32, Byte{0xEE});
    const ConstByteSpan runs[] = {ConstByteSpan(junk.data(), junk.size())};
    ep.comm().send_gather(0, wire::kTagRequest, ConstByteSpan(msg), runs,
                          sim::MsgClass::Data);
    const ByteVec resp = ep.comm().recv(0, wire::kTagResponse);
    wire::Reader rd(ConstByteSpan(resp.data(), resp.size()));
    EXPECT_EQ(rd.u8(), static_cast<std::uint8_t>(wire::Status::Ok));
    EXPECT_EQ(rd.i64(), 0) << "fenced write-back must apply zero bytes";
  }
  EXPECT_GE(pool->total_server_stats().fenced_drops, 1u);
  ByteVec after(96);
  live->pread(0, after);
  EXPECT_EQ(after, fresh) << "fenced bytes landed over newer data";
}

TEST(SessionHints, OptionsConfigureWeightCacheAndLeaseTerm) {
  const mpiio::Options o = mpiio::apply_info(
      mpiio::Info{
          {"llio_backend", "psrv:servers=2,weight=5,cache=1,lease=4096"}},
      mpiio::Options{});
  auto f = std::dynamic_pointer_cast<ServerFile>(
      make_backend(pfs::parse_backend_spec(o.backend)));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pool()->nservers(), 2);
  EXPECT_EQ(f->session().config().weight, 5);
  EXPECT_TRUE(f->session().cache_enabled());
  EXPECT_EQ(f->session().config().lease_term, 4096);
  EXPECT_THROW(
      mpiio::apply_info(mpiio::Info{{"llio_backend", "psrv:weight=0"}},
                        mpiio::Options{}),
      Error);
}

// ---- Acceptance fuzz: cached == uncached == model ------------------------

// Byte i is owned by tenant (i / kChunk) % T.  kChunk deliberately
// divides neither the 64-byte cache blocks nor the 64-byte stripes, so
// tenants false-share blocks (write leases collide block-aligned while
// the bytes stay disjoint) and extents straddle shard boundaries.
constexpr int kTenants = 3;
constexpr Off kSpan = 4 << 10;
constexpr Off kChunk = 48;

struct FuzzResult {
  ByteVec image;
  ByteVec model;
  std::uint64_t recalls = 0;
};

FuzzResult run_fuzz_world(bool cache) {
  PoolConfig pc = small_pool_config();
  pc.capacity = kSpan;
  pc.session_slots = kTenants + 1;
  pc.lease_grace = 256;
  auto pool = ServerPool::create(pc);
  {  // Pre-extend to the full span so no read ever lands past EOF.
    auto init = ServerFile::create(pool, RequestClass::List);
    init->pwrite(0, ByteVec(to_size(kSpan), Byte{0}));
  }
  std::vector<std::shared_ptr<ServerFile>> files;
  for (int t = 0; t < kTenants; ++t) {
    SessionConfig sc;
    sc.cache = cache;
    sc.cache_block = 64;
    sc.cache_capacity = 16;  // 1 KB cache < 4 KB span: forced evictions
    files.push_back(ServerFile::create(pool, RequestClass::List, sc));
  }

  ByteVec model(to_size(kSpan), Byte{0});
  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      // Deterministic per-tenant schedule, identical across cache modes.
      std::uint64_t rng = 0x9E3779B97F4A7C15ull * static_cast<unsigned>(t + 1);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      ServerFile& f = *files[static_cast<std::size_t>(t)];
      for (int op = 0; op < 160; ++op) {
        // Pick one of my chunks and a sub-extent inside it.
        const Off nchunks = kSpan / kChunk;
        Off c = to_off(next() % static_cast<std::uint64_t>(nchunks));
        c = c - (c % kTenants) + Off{t};  // chunk index owned by me
        if (c >= nchunks) c = Off{t};
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
                << "tenant " << t << " off " << lo + i << " cache "
                << cache;
        } else {  // foreign read: provoke recalls, no value to verify
          const Off flo = to_off(next() % to_size(kSpan - 64));
          ByteVec sink(64);
          f.pread(flo, sink);
        }
      }
      f.sync();  // flush this tenant's write-back
    });
  }
  for (std::thread& th : tenants) th.join();

  FuzzResult r;
  for (const auto& f : files)
    r.recalls += f->session().cache_stats().recalls;
  // Final image through a fresh uncached session (its reads recall any
  // leftover leases, so this also exercises the teardown coherence).
  auto reader = ServerFile::create(pool, RequestClass::List);
  r.image.resize(to_size(kSpan), Byte{0});
  reader->pread(0, r.image);
  r.model = std::move(model);
  return r;
}

TEST(PsrvMtFuzz, ConcurrentCachedSessionsMatchUncachedAndModel) {
  const FuzzResult uncached = run_fuzz_world(false);
  const FuzzResult cached = run_fuzz_world(true);
  EXPECT_EQ(uncached.image, uncached.model);
  EXPECT_EQ(cached.image, cached.model);
  EXPECT_EQ(cached.image, uncached.image)
      << "lease-coherent caching changed the bytes";
  // The schedule must actually have exercised the coherence machinery.
  EXPECT_GT(cached.recalls, 0u) << "fuzz never provoked a recall";
}

}  // namespace
}  // namespace llio::psrv
