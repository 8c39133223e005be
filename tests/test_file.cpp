// File front-end behaviour: open, default view, views, move semantics,
// engine dispatch, PosixFile end-to-end.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/timer.hpp"

#include "io_test_util.hpp"
#include "pfs/posix_file.hpp"
#include "pfs/throttled_file.hpp"

namespace llio::mpiio {
namespace {

// Wall-clock assertions cannot hold under sanitizer slowdowns.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(FileApi, DefaultViewIsWholeFileBytes) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    EXPECT_EQ(f.view().disp, 0);
    EXPECT_TRUE(f.view().dense());
    const char msg[] = "hello llio";
    f.write_at(0, msg, sizeof(msg), dt::byte());
    char back[sizeof(msg)] = {};
    f.read_at(0, back, sizeof(msg), dt::byte());
    EXPECT_STREQ(back, msg);
  });
  EXPECT_EQ(fs->size(), 11);
}

TEST(FileApi, OpenRequiresBackend) {
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    EXPECT_THROW(File::open(comm, nullptr), Error);
  });
}

TEST(FileApi, SetViewResetsPointer) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    const int v[4] = {1, 2, 3, 4};
    f.write(v, 4, dt::int_());
    EXPECT_EQ(f.tell(), 16);  // etype is byte
    f.set_view(0, dt::int_(), dt::contiguous(4, dt::int_()));
    EXPECT_EQ(f.tell(), 0);
  });
}

TEST(FileApi, ViewDispOffsetsWholeAccess) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.set_view(100, dt::byte(), dt::byte());
    const char c = 'x';
    f.write_at(0, &c, 1, dt::byte());
  });
  ASSERT_EQ(fs->size(), 101);
  EXPECT_EQ(fs->contents()[100], Byte{'x'});
}

TEST(FileApi, MoveSemantics) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    File g = std::move(f);
    const char c = 'm';
    g.write_at(0, &c, 1, dt::byte());
    EXPECT_EQ(g.size(), 1);
  });
}

TEST(FileApi, SeekEndUsesFileSize) {
  auto fs = pfs::MemFile::create(64);
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.set_view(0, dt::long_(), dt::long_());
    f.seek(0, File::Whence::End);
    EXPECT_EQ(f.tell(), 8);  // 64 bytes / 8-byte etype
    f.seek(-2, File::Whence::Cur);
    EXPECT_EQ(f.tell(), 6);
  });
}

TEST(FileApi, LastStatsReflectsMostRecentOp) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    ByteVec buf(100, Byte{1});
    f.write_at(0, buf.data(), 100, dt::byte());
    EXPECT_EQ(f.last_stats().bytes_moved, 100);
    f.read_at(0, buf.data(), 40, dt::byte());
    EXPECT_EQ(f.last_stats().bytes_moved, 40);
  });
}

TEST(FileApi, TwoFilesIndependentLocks) {
  auto a = pfs::MemFile::create();
  auto b = pfs::MemFile::create();
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    File fa = File::open(comm, a);
    File fb = File::open(comm, b);
    const ByteVec data = iotest::payload_stream(comm.rank(), 64);
    fa.write_at(comm.rank() * 64, data.data(), 64, dt::byte());
    fb.write_at((1 - comm.rank()) * 64, data.data(), 64, dt::byte());
  });
  EXPECT_EQ(a->size(), 128);
  EXPECT_EQ(b->size(), 128);
}

TEST(FileApi, InterleavedCollectivesOnTwoFiles) {
  // Two handles on one comm, collectives alternating between them in the
  // same order on every rank (as MPI requires): the message matching must
  // keep the operations separate.
  auto a = pfs::MemFile::create();
  auto b = pfs::MemFile::create();
  sim::Runtime::run(3, [&](sim::Comm& comm) {
    File fa = File::open(comm, a);
    File fb = File::open(comm, b, Options{.method = Method::ListBased});
    fa.set_view(0, dt::byte(), iotest::noncontig_filetype(4, 8, 3, comm.rank()));
    fb.set_view(0, dt::byte(), iotest::noncontig_filetype(2, 16, 3, comm.rank()));
    for (int round = 0; round < 4; ++round) {
      const ByteVec da = iotest::payload_stream(comm.rank() + round, 32);
      const ByteVec db = iotest::payload_stream(comm.rank() + 100 + round, 32);
      fa.write_at_all(round * 32, da.data(), 32, dt::byte());
      fb.write_at_all(round * 32, db.data(), 32, dt::byte());
      ByteVec ra(32), rb(32);
      fb.read_at_all(round * 32, rb.data(), 32, dt::byte());
      fa.read_at_all(round * 32, ra.data(), 32, dt::byte());
      EXPECT_EQ(ra, da) << "round " << round;
      EXPECT_EQ(rb, db) << "round " << round;
    }
  });
}

TEST(FileApi, SetSizePreallocateSync) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.set_size(1000);
    EXPECT_EQ(f.size(), 1000);
    f.preallocate(500);  // never shrinks
    EXPECT_EQ(f.size(), 1000);
    f.preallocate(2000);
    EXPECT_EQ(f.size(), 2000);
    f.set_size(100);  // truncates
    EXPECT_EQ(f.size(), 100);
    f.sync();
    EXPECT_THROW(f.set_size(-1), Error);
  });
}

TEST(FileApi, NonblockingIndependentIo) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.set_view(0, dt::byte(), iotest::noncontig_filetype(8, 8, 2, comm.rank()));
    const ByteVec data = iotest::payload_stream(comm.rank(), 64);
    Request w = f.iwrite_at(0, data.data(), 64, dt::byte());
    EXPECT_TRUE(w.valid());
    EXPECT_EQ(w.wait(), 64);
    EXPECT_FALSE(w.valid());        // consumed
    EXPECT_THROW(w.wait(), Error);  // double wait rejected

    ByteVec back(64, Byte{0});
    Request r = f.iread_at(0, back.data(), 64, dt::byte());
    EXPECT_EQ(r.wait(), 64);
    EXPECT_EQ(back, data);
  });
}

TEST(FileApi, NonblockingOverlapsWithCallerWork) {
  // With a slow backend, the async write proceeds while the caller is
  // busy: total wall time is well under write-time + busy-time.
  if (kSanitized) GTEST_SKIP() << "timing assertion, skipped under sanitizers";
  pfs::ThrottleConfig cfg;
  cfg.write_bandwidth_bps = 100e6;  // 4 MiB -> ~42 ms
  auto fs = pfs::ThrottledFile::wrap(pfs::MemFile::create(), cfg);
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    ByteVec data(4 << 20, Byte{1});
    llio::WallTimer t;
    Request w = f.iwrite_at(0, data.data(), to_off(data.size()), dt::byte());
    llio::WallTimer busy;
    while (busy.seconds() < 0.04) {
    }
    EXPECT_EQ(w.wait(), to_off(data.size()));
    EXPECT_LT(t.seconds(), 0.04 + 0.042);  // overlapped, not serialized
  });
}

TEST(FileApi, DroppedRequestFinishesBeforeScopeEnds) {
  // A request replaced or dropped without wait() still finishes first:
  // its operation holds raw pointers to the engine and to the buffer,
  // and both die with the rank's scope.
  pfs::ThrottleConfig cfg;
  cfg.op_latency_s = 0.05;
  auto inner = pfs::MemFile::create();
  auto fs = pfs::ThrottledFile::wrap(inner, cfg);
  const ByteVec want = iotest::payload_stream(0, 4096);
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    const ByteVec data = want;
    Request r = f.iwrite_at(0, data.data(), 2048, dt::byte());
    r = f.iwrite_at(2048, data.data() + 2048, 2048, dt::byte());
  });
  EXPECT_EQ(inner->contents(), want);
}

TEST(FileApi, MixedSyncAndAsyncOpsSerialize) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    ByteVec a(1024, Byte{0xA1});
    ByteVec b(1024, Byte{0xB2});
    // Async write to [0,1024) racing a sync write to [512, 1536): both
    // complete, every byte comes from one of them, and the overlap region
    // is entirely one writer's (engine ops serialize).
    Request w = f.iwrite_at(0, a.data(), 1024, dt::byte());
    f.write_at(512, b.data(), 1024, dt::byte());
    w.wait();
    const ByteVec img = fs->contents();
    ASSERT_EQ(img.size(), 1536u);
    for (std::size_t i = 0; i < 512; ++i) EXPECT_EQ(img[i], Byte{0xA1});
    for (std::size_t i = 1024; i < 1536; ++i) EXPECT_EQ(img[i], Byte{0xB2});
    const Byte mid = img[512];
    EXPECT_TRUE(mid == Byte{0xA1} || mid == Byte{0xB2});
    for (std::size_t i = 512; i < 1024; ++i) EXPECT_EQ(img[i], mid);
  });
}

TEST(FileApi, PosixBackendEndToEnd) {
  const std::string path = ::testing::TempDir() + "/llio_file_e2e.bin";
  const int P = 2;
  const Off nblock = 6, sblock = 8;
  const Off nbytes = 2 * nblock * sblock;
  {
    auto fs = pfs::PosixFile::open(path, /*truncate=*/true);
    sim::Runtime::run(P, [&](sim::Comm& comm) {
      Options o;
      o.method = Method::Listless;
      o.file_buffer_size = 128;
      File f = File::open(comm, fs, o);
      f.set_view(0, dt::byte(),
                 iotest::noncontig_filetype(nblock, sblock, P, comm.rank()));
      const ByteVec stream = iotest::payload_stream(comm.rank(), nbytes);
      f.write_at_all(0, stream.data(), nbytes, dt::byte());
    });
  }
  // Re-open and verify with the other engine.
  {
    auto fs = pfs::PosixFile::open(path);
    sim::Runtime::run(P, [&](sim::Comm& comm) {
      Options o;
      o.method = Method::ListBased;
      File f = File::open(comm, fs, o);
      f.set_view(0, dt::byte(),
                 iotest::noncontig_filetype(nblock, sblock, P, comm.rank()));
      ByteVec back(to_size(nbytes), Byte{0});
      f.read_at_all(0, back.data(), nbytes, dt::byte());
      EXPECT_EQ(back, iotest::payload_stream(comm.rank(), nbytes));
    });
  }
  std::remove(path.c_str());
}

TEST(FileApi, ThrottledBackendWorks) {
  auto inner = pfs::MemFile::create();
  pfs::ThrottleConfig cfg;
  cfg.read_bandwidth_bps = 500e6;
  cfg.write_bandwidth_bps = 500e6;
  auto fs = pfs::ThrottledFile::wrap(inner, cfg);
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.set_view(0, dt::byte(), iotest::noncontig_filetype(4, 8, 2, comm.rank()));
    const ByteVec stream = iotest::payload_stream(comm.rank(), 64);
    f.write_at_all(0, stream.data(), 64, dt::byte());
    ByteVec back(64, Byte{0});
    f.read_at_all(0, back.data(), 64, dt::byte());
    EXPECT_EQ(back, stream);
  });
  EXPECT_GT(fs->simulated_time(), 0.0);
}

}  // namespace
}  // namespace llio::mpiio
