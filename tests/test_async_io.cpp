// Async submission/completion engine and its queue-depth decorator:
// inline determinism at depth 1, SQ-full backpressure, per-batch error
// isolation, and — the load-bearing property — byte-identical semantics
// of every async/direct configuration against the synchronous reference,
// fuzz-asserted at the backend level and through both MPI-IO engines.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "io_test_util.hpp"
#include "pfs/async_io.hpp"
#include "pfs/mem_file.hpp"
#include "pfs/posix_file.hpp"
#include "pfs/striped_file.hpp"
#include "psrv/server_file.hpp"

namespace llio::pfs {
namespace {

using testutil::Rng;
using testutil::rnd;

ByteVec pattern(std::size_t n, unsigned seed) {
  ByteVec v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = Byte{static_cast<unsigned char>((i * 131 + seed * 7) & 0xFF)};
  return v;
}

TEST(AsyncIo, DepthOneRunsInlineInOrder) {
  AsyncIo io(1);
  std::vector<int> order;  // unguarded on purpose: inline = no threads
  AsyncIo::Batch batch;
  for (int i = 0; i < 32; ++i)
    io.submit(batch, [&order, i] { order.push_back(i); });
  io.wait(batch);
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[to_size(i)], i);
  const AsyncIoStats st = io.stats();
  EXPECT_EQ(st.submitted, 32u);
  EXPECT_EQ(st.completed, 32u);
  EXPECT_EQ(st.inflight_peak, 1u);
}

TEST(AsyncIo, RejectsBadDepth) { EXPECT_THROW(AsyncIo io(0), Error); }

TEST(AsyncIo, ErrorRethrownOnWaitAndEngineReusable) {
  for (int qd : {1, 4}) {
    AsyncIo io(qd);
    AsyncIo::Batch bad;
    io.submit(bad, [] {});
    io.submit(bad, [] { throw_error(Errc::Io, "injected"); });
    io.submit(bad, [] {});
    EXPECT_THROW(io.wait(bad), Error) << "qd=" << qd;
    // The engine stays usable after a failed batch.
    AsyncIo::Batch ok;
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
      io.submit(ok, [&ran] { ran.fetch_add(1); });
    io.wait(ok);
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(AsyncIo, ConcurrentBatchesSeeOnlyTheirOwnErrors) {
  AsyncIo io(4);
  AsyncIo::Batch poisoned, clean;
  io.submit(poisoned, [] { throw_error(Errc::Io, "poisoned"); });
  std::atomic<int> ran{0};
  for (int i = 0; i < 6; ++i)
    io.submit(clean, [&ran] { ran.fetch_add(1); });
  io.wait(clean);  // must not observe the other batch's failure
  EXPECT_EQ(ran.load(), 6);
  EXPECT_THROW(io.wait(poisoned), Error);
}

TEST(AsyncIo, BackpressureBoundsInflight) {
  const int qd = 3;
  AsyncIo io(qd);
  std::atomic<int> cur{0}, peak{0};
  AsyncIo::Batch batch;
  for (int i = 0; i < 24; ++i) {
    io.submit(batch, [&] {
      const int c = cur.fetch_add(1) + 1;
      int p = peak.load();
      while (c > p && !peak.compare_exchange_weak(p, c)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      cur.fetch_sub(1);
    });
  }
  io.wait(batch);
  EXPECT_LE(peak.load(), qd);
  EXPECT_GE(peak.load(), 1);
  const AsyncIoStats st = io.stats();
  EXPECT_EQ(st.completed, 24u);
  EXPECT_LE(st.inflight_peak, static_cast<std::uint64_t>(qd));
}

// ---- randomized batch helpers ------------------------------------------

/// A sorted, group-disjoint vectored batch slicing `payload`; zero-length
/// segments and file-adjacent runs included on purpose.
std::vector<ConstIoVec> random_write_batch(Rng& rng, const ByteVec& payload) {
  std::vector<ConstIoVec> iov;
  Off off = rnd(rng, 0, 64);
  std::size_t at = 0;
  while (at < payload.size() && iov.size() < 40) {
    const std::size_t len =
        to_size(rnd(rng, 0, 48)) % (payload.size() - at + 1);
    iov.push_back({off, {payload.data() + at, len}});
    at += len;
    off += to_off(len);
    if (rnd(rng, 0, 2) == 0) off += rnd(rng, 1, 80);  // else stay adjacent
  }
  return iov;
}

std::vector<IoVec> random_read_batch(Rng& rng, ByteVec& dst, Off file_size) {
  std::vector<IoVec> iov;
  Off off = rnd(rng, 0, 16);
  std::size_t at = 0;
  while (at < dst.size() && iov.size() < 40 && off <= file_size + 32) {
    const std::size_t len = to_size(rnd(rng, 0, 48)) % (dst.size() - at + 1);
    iov.push_back({off, {dst.data() + at, len}});
    at += len;
    off += to_off(len) + rnd(rng, 0, 64);
  }
  return iov;
}

/// Identical random op soup against `f` and the MemFile reference; the
/// images and every read-back must match byte for byte.
void fuzz_against_mem(const FilePtr& f, unsigned seed, int rounds = 24) {
  auto ref = MemFile::create();
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const ByteVec payload =
        pattern(to_size(rnd(rng, 1, 2000)), seed + static_cast<unsigned>(round));
    switch (rnd(rng, 0, 3)) {
      case 0: {  // plain pwrite
        const Off off = rnd(rng, 0, 6000);
        f->pwrite(off, payload);
        ref->pwrite(off, payload);
        break;
      }
      case 1: {  // vectored write
        const auto iov = random_write_batch(rng, payload);
        f->pwritev(iov);
        ref->pwritev(iov);
        break;
      }
      case 2: {  // resize (grow or shrink)
        const Off n = rnd(rng, 0, 8000);
        f->resize(n);
        ref->resize(n);
        break;
      }
      default: {  // vectored read-back, including past-EOF segments
        ByteVec got(to_size(rnd(rng, 1, 1500)), Byte{0xAB});
        ByteVec want = got;
        Rng save = rng;
        const auto gi = random_read_batch(rng, got, f->size());
        rng = save;
        const auto wi = random_read_batch(rng, want, ref->size());
        EXPECT_EQ(f->preadv(gi), ref->preadv(wi));
        EXPECT_EQ(got, want);
        break;
      }
    }
    ASSERT_EQ(f->size(), ref->size()) << "round " << round;
  }
  ByteVec img(to_size(f->size()));
  if (!img.empty()) f->pread(0, img);
  EXPECT_EQ(img, ref->contents());
}

TEST(AsyncQdFile, FuzzMatchesInnerAtEveryDepth) {
  for (int qd : {1, 2, 4, 8}) {
    fuzz_against_mem(AsyncQdFile::wrap(MemFile::create(), qd),
                     1000u + static_cast<unsigned>(qd));
  }
}

TEST(AsyncQdFile, RejectsBadConfig) {
  EXPECT_THROW(AsyncQdFile::wrap(nullptr, 2), Error);
  EXPECT_THROW(AsyncQdFile::wrap(MemFile::create(), 0), Error);
}

TEST(AsyncQdFile, ReportsAsyncInfo) {
  auto f = AsyncQdFile::wrap(MemFile::create(), 4);
  const ByteVec data(256, Byte{1});
  const ConstIoVec iov[] = {{0, {data.data(), 64}},
                            {100, {data.data() + 64, 64}},
                            {200, {data.data() + 128, 64}}};
  f->pwritev(iov);
  const auto info = f->async_info();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->queue_depth, 4);
  EXPECT_FALSE(info->direct);
  EXPECT_EQ(info->stats.submitted, 3u);  // one op per disjoint group
  EXPECT_EQ(info->stats.completed, 3u);
}

/// The stack the backend spec posix:<dir>,qd=N builds: a PosixFile
/// scratch file, behind an AsyncQdFile when qd > 1.
FilePtr posix_at_depth(int qd, bool direct = false) {
  return psrv::make_backend(parse_backend_spec(
      "posix:" + ::testing::TempDir() + ",qd=" + std::to_string(qd) +
      (direct ? ",direct=1" : "")));
}

TEST(PosixFileAsync, FuzzMatchesMemAcrossDepthAndDirect) {
  unsigned seed = 7000;
  for (const bool direct : {false, true}) {
    for (const int qd : {1, 4})
      fuzz_against_mem(posix_at_depth(qd, direct), ++seed);
  }
}

TEST(PosixFileAsync, DirectUnalignedRmwPreservesNeighbors) {
  PosixConfig pc;
  pc.direct = true;
  auto f = PosixFile::open_temp(::testing::TempDir(), pc);
  // Lay down a pattern crossing several 4 KiB blocks, all unaligned.
  const ByteVec base = pattern(3 * 4096 + 123, 9);
  f->pwrite(1000, base);
  EXPECT_EQ(f->size(), 1000 + to_off(base.size()));  // logical, not rounded
  // Overwrite a span straddling a block edge; bytes on both sides stay.
  const ByteVec patch = pattern(32, 10);
  f->pwrite(4096 - 16, patch);
  ByteVec img(to_size(f->size()));
  f->pread(0, img);
  ByteVec want(to_size(f->size()), Byte{0});
  for (std::size_t i = 0; i < base.size(); ++i) want[1000 + i] = base[i];
  for (std::size_t i = 0; i < patch.size(); ++i)
    want[to_size(4096 - 16) + i] = patch[i];
  EXPECT_EQ(img, want);
  // Reads past the logical end are short, exactly like the plain path.
  ByteVec tail(64, Byte{0xEE});
  EXPECT_EQ(f->pread(f->size() - 8, tail), 8);
}

TEST(PosixFileAsync, ReportsAsyncInfo) {
  auto posix = PosixFile::open_temp(::testing::TempDir());
  auto f = AsyncQdFile::wrap(posix, 2);
  f->pwrite(0, ByteVec(16, Byte{1}));
  const auto info = f->async_info();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->queue_depth, 2);
  EXPECT_EQ(info->direct, posix->direct_active());
}

// The acceptance fuzz: through the full MPI-IO stack, both engines over
// a PosixFile at qd=1 and behind an AsyncQdFile of depth 4 (direct off)
// must produce the exact image the MemFile reference run produces.
TEST(PosixFileAsync, EnginesMatchMemImageOverAsyncBackend) {
  const int nprocs = 2;
  const Off nblock = 6, sblock = 7;
  const Off nbytes = 3 * nblock * sblock;
  auto run = [&](mpiio::Method method, const FilePtr& fs) {
    sim::Runtime::run(nprocs, [&](sim::Comm& comm) {
      mpiio::Options o;
      o.method = method;
      o.file_buffer_size = 64;  // small windows: many backend ops
      mpiio::File f = mpiio::File::open(comm, fs, o);
      f.set_view(0, dt::byte(),
                 iotest::noncontig_filetype(nblock, sblock, nprocs,
                                            comm.rank()));
      ByteVec stream(to_size(nbytes));
      for (Off i = 0; i < nbytes; ++i)
        stream[to_size(i)] = iotest::payload_byte(comm.rank(), i);
      f.write_at_all(0, stream.data(), nbytes, dt::byte());
      ByteVec back(to_size(nbytes), Byte{0});
      f.read_at_all(0, back.data(), nbytes, dt::byte());
      EXPECT_EQ(back, stream);
    });
    return iotest::backend_image(fs);
  };
  for (const auto method :
       {mpiio::Method::ListBased, mpiio::Method::Listless}) {
    const ByteVec want = run(method, MemFile::create());
    for (const int qd : {1, 4}) {
      ByteVec got = run(method, posix_at_depth(qd));
      ByteVec ref = want;
      iotest::pad_to_common(ref, got);
      EXPECT_EQ(got, ref) << mpiio::method_name(method) << " qd=" << qd;
    }
  }
}

// ---- striped layout ----------------------------------------------------

TEST(StripedFile, RotationMatchesClassicImageFuzz) {
  StripeLayout rotated;
  rotated.rotate = true;
  auto make = [&](const StripeLayout& layout) {
    std::vector<FilePtr> devs = {MemFile::create(), MemFile::create(),
                                 MemFile::create()};
    return StripedFile::create(std::move(devs), 64, layout);
  };
  fuzz_against_mem(make(rotated), 4242);
  fuzz_against_mem(make(StripeLayout{}), 4242);  // same seed, classic layout
}

TEST(StripedFile, RotationShiftsRowsAcrossDevices) {
  const Off stripe = 64;
  const int nd = 3;
  std::vector<FilePtr> devs;
  std::vector<std::shared_ptr<MemFile>> mems;
  for (int d = 0; d < nd; ++d) {
    mems.push_back(MemFile::create());
    devs.push_back(mems.back());
  }
  StripeLayout layout;
  layout.rotate = true;
  auto f = StripedFile::create(std::move(devs), stripe, layout);
  // Stripe s carries byte value s; rotation maps stripe s (row r = s/nd,
  // k = s%nd) onto device (k + r) % nd at device offset r * stripe.
  const int nstripes = 9;
  for (int s = 0; s < nstripes; ++s)
    f->pwrite(Off{s} * stripe,
              ByteVec(to_size(stripe), Byte{static_cast<unsigned char>(s)}));
  for (int s = 0; s < nstripes; ++s) {
    const int row = s / nd, dev = (s % nd + row) % nd;
    ByteVec got(to_size(stripe));
    ASSERT_EQ(mems[to_size(dev)]->pread(Off{row} * stripe, got), stripe);
    for (Byte b : got) ASSERT_EQ(b, Byte{static_cast<unsigned char>(s)});
  }
  // Every device holds the same share: rotation balances full rows.
  for (int d = 0; d < nd; ++d)
    EXPECT_EQ(mems[to_size(d)]->size(), Off{nstripes / nd} * stripe);
}

TEST(StripedFile, RotationSizeResizeRoundtrip) {
  StripeLayout layout;
  layout.rotate = true;
  std::vector<FilePtr> devs = {MemFile::create(), MemFile::create(),
                               MemFile::create(), MemFile::create()};
  auto f = StripedFile::create(std::move(devs), 32, layout);
  for (const Off n : {Off{0}, Off{1}, Off{31}, Off{32}, Off{33}, Off{400},
                      Off{4096}, Off{129}, Off{7}}) {
    f->resize(n);
    EXPECT_EQ(f->size(), n);
  }
  // Write at a rotated tail and make sure size lands on the last byte.
  f->resize(0);
  f->pwrite(777, ByteVec(55, Byte{3}));
  EXPECT_EQ(f->size(), 832);
}

}  // namespace
}  // namespace llio::pfs
