#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/error.hpp"
#include "pfs/mem_file.hpp"
#include "pfs/posix_file.hpp"
#include "pfs/range_lock.hpp"
#include "pfs/active_buffer_file.hpp"
#include "pfs/striped_file.hpp"
#include "pfs/faulty_file.hpp"
#include "pfs/throttled_file.hpp"

#include "dtype/datatype.hpp"
#include "mpiio/file.hpp"
#include "simmpi/comm.hpp"

namespace llio::pfs {
namespace {

ByteVec pattern_bytes(std::size_t n, unsigned seed = 3) {
  ByteVec v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = Byte{static_cast<unsigned char>((i * 31 + seed) & 0xFF)};
  return v;
}

template <typename MakeFile>
void backend_contract(MakeFile make) {
  auto f = make();
  EXPECT_EQ(f->size(), 0);

  // Write grows the file.
  const ByteVec data = pattern_bytes(100);
  f->pwrite(10, data);
  EXPECT_EQ(f->size(), 110);

  // Read back exactly what was written.
  ByteVec out(100);
  EXPECT_EQ(f->pread(10, out), 100);
  EXPECT_EQ(out, data);

  // Reads past EOF are short.
  ByteVec big(64);
  EXPECT_EQ(f->pread(100, big), 10);
  EXPECT_EQ(f->pread(110, big), 0);
  EXPECT_EQ(f->pread(4000, big), 0);

  // Overwrite in place.
  const ByteVec patch = pattern_bytes(7, 77);
  f->pwrite(42, patch);
  ByteVec check(7);
  EXPECT_EQ(f->pread(42, check), 7);
  EXPECT_EQ(check, patch);
  EXPECT_EQ(f->size(), 110);

  // Resize shrinks and grows.
  f->resize(50);
  EXPECT_EQ(f->size(), 50);
  f->resize(200);
  EXPECT_EQ(f->size(), 200);

  // Stats counted every access.
  const FileStats st = f->stats();
  EXPECT_EQ(st.write_ops, 2u);
  EXPECT_EQ(st.write_bytes, 107u);
  EXPECT_GE(st.read_ops, 4u);

  // Negative offsets rejected.
  EXPECT_THROW(f->pread(-1, out), Error);
  EXPECT_THROW(f->pwrite(-1, data), Error);
}

TEST(MemFile, BackendContract) {
  backend_contract([] { return MemFile::create(); });
}

TEST(PosixFile, BackendContract) {
  const std::string path = ::testing::TempDir() + "/llio_pfs_posix_test.bin";
  backend_contract([&] { return PosixFile::open(path, /*truncate=*/true); });
  std::remove(path.c_str());
}

template <typename MakeFile>
void vectored_contract(MakeFile make) {
  auto f = make();
  // Scattered pwritev lands every segment; a whole batch is one op.
  const ByteVec a = pattern_bytes(10, 1);
  const ByteVec b = pattern_bytes(20, 2);
  const ByteVec c = pattern_bytes(5, 3);
  const ConstIoVec w[] = {{0, a}, {30, b}, {100, c}};
  f->pwritev(w);
  EXPECT_EQ(f->size(), 105);
  EXPECT_EQ(f->stats().write_ops, 1u);
  EXPECT_EQ(f->stats().write_bytes, 35u);

  // preadv: written segments come back, the hole reads zero, and the
  // segment crossing EOF is valid bytes + zero fill; the return value
  // counts only bytes actually read.
  ByteVec ra(10), rb(20), hole(10, Byte{0xEE}), tail(15, Byte{0xEE});
  const IoVec r[] = {{0, ra}, {30, rb}, {10, hole}, {95, tail}};
  EXPECT_EQ(f->preadv(r), 10 + 20 + 10 + 10);
  EXPECT_EQ(f->stats().read_ops, 1u);
  EXPECT_EQ(ra, a);
  EXPECT_EQ(rb, b);
  for (Byte x : hole) EXPECT_EQ(x, Byte{0});
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(tail[i], Byte{0});  // hole
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(tail[5 + i], c[i]);
  for (std::size_t i = 10; i < 15; ++i)
    EXPECT_EQ(tail[i], Byte{0});  // past EOF

  // Negative offsets rejected for the whole batch.
  const IoVec bad[] = {{-1, ra}};
  EXPECT_THROW(f->preadv(bad), Error);
}

TEST(MemFile, VectoredContract) {
  vectored_contract([] { return MemFile::create(); });
}

TEST(PosixFile, VectoredContract) {
  const std::string path = ::testing::TempDir() + "/llio_pfs_posix_vec_test.bin";
  vectored_contract([&] { return PosixFile::open(path, /*truncate=*/true); });
  std::remove(path.c_str());
}

TEST(StripedFile, VectoredContract) {
  vectored_contract([] {
    std::vector<FilePtr> devs = {MemFile::create(), MemFile::create(),
                                 MemFile::create()};
    return StripedFile::create(std::move(devs), 16);
  });
}

TEST(ThrottledFile, VectoredContract) {
  vectored_contract([] {
    ThrottleConfig cfg;
    cfg.read_bandwidth_bps = 100e6;
    cfg.write_bandwidth_bps = 100e6;
    return ThrottledFile::wrap(MemFile::create(), cfg);
  });
}

TEST(FaultyFile, VectoredContract) {
  vectored_contract([] {
    return FaultyFile::wrap(MemFile::create(), FaultPlan{});
  });
}

TEST(ActiveBufferFile, VectoredContract) {
  vectored_contract([] { return ActiveBufferFile::wrap(MemFile::create()); });
}

TEST(FaultyFile, VectoredOpsTriggerFaults) {
  FaultPlan plan;
  plan.fail_after_writes = 0;
  auto f = FaultyFile::wrap(MemFile::create(), plan);
  const ByteVec d = pattern_bytes(8);
  const ConstIoVec w[] = {{0, d}, {16, d}};
  try {
    f->pwritev(w);
    FAIL() << "expected injected fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::Io);
  }
  f->pwritev(w);  // one-shot: the batch now succeeds
  EXPECT_EQ(f->size(), 24);
}

TEST(MemFile, InitialSizeZeroFilled) {
  auto f = MemFile::create(32);
  EXPECT_EQ(f->size(), 32);
  ByteVec out(32, Byte{0xFF});
  EXPECT_EQ(f->pread(0, out), 32);
  for (Byte b : out) EXPECT_EQ(b, Byte{0});
}

TEST(MemFile, ContentsSnapshot) {
  auto f = MemFile::create();
  const ByteVec data = pattern_bytes(16);
  f->pwrite(0, data);
  EXPECT_EQ(f->contents(), data);
}

TEST(MemFile, ConcurrentDisjointWrites) {
  auto f = MemFile::create(64 * 1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const ByteVec data = pattern_bytes(8 * 1024, static_cast<unsigned>(t));
      f->pwrite(t * 8 * 1024, data);
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 8; ++t) {
    ByteVec out(8 * 1024);
    EXPECT_EQ(f->pread(t * 8 * 1024, out), 8 * 1024);
    EXPECT_EQ(out, pattern_bytes(8 * 1024, static_cast<unsigned>(t)));
  }
}

// Writers rewrite their own blocks while readers read ranges that span
// block edges: every block a read covers holds one write's bytes, wholly
// old or wholly new, never a mix (and under TSan, no data race).
TEST(MemFile, OverlappingReadsSeeWholeWrites) {
  constexpr int kWriters = 4, kReaders = 3, kRounds = 300;
  constexpr Off kBlock = 4096;
  auto f = MemFile::create(kWriters * kBlock);
  std::atomic<int> mixed{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ByteVec block(to_size(kBlock));
      for (int k = 1; k <= kRounds; ++k) {
        std::fill(block.begin(), block.end(),
                  static_cast<Byte>(k * kWriters + w));
        if (k % 2 == 0) {
          f->pwrite(w * kBlock, block);
        } else {  // one batch of two segments
          const ConstIoVec iov[] = {
              {w * kBlock, {block.data(), to_size(kBlock / 2)}},
              {w * kBlock + kBlock / 2,
               {block.data() + kBlock / 2, to_size(kBlock / 2)}}};
          f->pwritev(iov);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      ByteVec out(to_size(2 * kBlock));
      for (int i = 0; i < 2 * kRounds; ++i) {
        // Two blocks' length from inside one of the first writers' blocks.
        const Off lo = (i + r) % (kWriters - 2) * kBlock + (i * 97) % kBlock;
        const ByteSpan span(out.data(), out.size());
        if (i % 2 == 0) {
          f->pread(lo, span);
        } else {
          const IoVec iov[] = {{lo, span}};
          f->preadv(iov);
        }
        for (Off at = lo; at < lo + 2 * kBlock;) {
          const Off end = std::min(lo + 2 * kBlock, (at / kBlock + 1) * kBlock);
          const Byte first = out[to_size(at - lo)];
          for (Off x = at; x < end; ++x)
            if (out[to_size(x - lo)] != first) {
              ++mixed;
              break;
            }
          at = end;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mixed.load(), 0);
}

TEST(ThrottledFile, DelegatesAndAccountsTime) {
  auto inner = MemFile::create();
  ThrottleConfig cfg;
  cfg.read_bandwidth_bps = 100e6;
  cfg.write_bandwidth_bps = 100e6;
  auto f = ThrottledFile::wrap(inner, cfg);
  const ByteVec data = pattern_bytes(1 << 20);
  f->pwrite(0, data);
  ByteVec out(1 << 20);
  EXPECT_EQ(f->pread(0, out), 1 << 20);
  EXPECT_EQ(out, data);
  // 2 MiB at 100 MB/s is ~21 ms of simulated time.
  EXPECT_GT(f->simulated_time(), 0.015);
  // Inner stats see the traffic too.
  EXPECT_EQ(inner->stats().write_bytes, std::uint64_t{1} << 20);
}

TEST(ThrottledFile, RejectsBadConfig) {
  ThrottleConfig cfg;
  cfg.read_bandwidth_bps = 0;
  EXPECT_THROW(ThrottledFile::wrap(MemFile::create(), cfg), Error);
  EXPECT_THROW(ThrottledFile::wrap(nullptr, ThrottleConfig{}), Error);
}

TEST(ActiveBufferFile, WriteBehindFlushesInOrder) {
  auto inner = MemFile::create();
  auto f = ActiveBufferFile::wrap(inner, 1 << 20);
  const ByteVec a = pattern_bytes(64, 1);
  const ByteVec b = pattern_bytes(64, 2);
  f->pwrite(0, a);
  f->pwrite(32, b);  // overlaps; must apply after a
  f->drain();
  ByteVec out(96);
  EXPECT_EQ(inner->pread(0, out), 96);
  EXPECT_TRUE(std::equal(a.begin(), a.begin() + 32, out.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), out.begin() + 32));
}

TEST(ActiveBufferFile, ReadsSeeStagedWrites) {
  auto f = ActiveBufferFile::wrap(MemFile::create());
  const ByteVec data = pattern_bytes(256);
  f->pwrite(0, data);
  // No explicit drain: the read must still observe the write.
  ByteVec out(256);
  EXPECT_EQ(f->pread(0, out), 256);
  EXPECT_EQ(out, data);
}

TEST(ActiveBufferFile, SizeIncludesStagedTail) {
  auto f = ActiveBufferFile::wrap(MemFile::create());
  f->pwrite(1000, pattern_bytes(24));
  EXPECT_EQ(f->size(), 1024);  // even before the flush completes
  f->drain();
  EXPECT_EQ(f->size(), 1024);
}

TEST(ActiveBufferFile, BackpressureBoundsStage) {
  auto inner = MemFile::create();
  ThrottleConfig cfg;
  cfg.write_bandwidth_bps = 50e6;
  auto slow = ThrottledFile::wrap(inner, cfg);
  auto f = ActiveBufferFile::wrap(slow, /*max_pending_bytes=*/4096);
  const ByteVec chunk = pattern_bytes(1024);
  for (int i = 0; i < 32; ++i) f->pwrite(i * 1024, chunk);
  f->drain();
  EXPECT_LE(f->peak_pending_bytes(), 4096 + 1024);
  EXPECT_EQ(inner->size(), 32 * 1024);
}

TEST(ActiveBufferFile, FlushErrorsSurfaceOnNextOperation) {
  FaultPlan plan;
  plan.fail_after_writes = 0;
  auto faulty = FaultyFile::wrap(MemFile::create(), plan);
  auto f = ActiveBufferFile::wrap(faulty);
  f->pwrite(0, pattern_bytes(16));  // flush will fail asynchronously
  EXPECT_THROW(f->drain(), Error);
}

TEST(ActiveBufferFile, WorksUnderTheFileApi) {
  auto inner = MemFile::create();
  auto f = ActiveBufferFile::wrap(inner);
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    mpiio::File file = mpiio::File::open(comm, f, mpiio::Options{});
    const ByteVec data = pattern_bytes(128, 5u + (unsigned)comm.rank());
    file.write_at(comm.rank() * 128, data.data(), 128, dt::byte());
    file.sync();
    ByteVec back(128);
    file.read_at(comm.rank() * 128, back.data(), 128, dt::byte());
    EXPECT_EQ(back, data);
  });
  EXPECT_EQ(inner->size(), 256);
}

TEST(StripedFile, BackendContract) {
  backend_contract([] {
    std::vector<FilePtr> devs = {MemFile::create(), MemFile::create(),
                                 MemFile::create()};
    return StripedFile::create(std::move(devs), 16);
  });
}

TEST(StripedFile, StripesLandOnTheRightDevices) {
  auto d0 = MemFile::create();
  auto d1 = MemFile::create();
  auto f = StripedFile::create({d0, d1}, 8);
  const ByteVec data = pattern_bytes(32);  // 4 stripes: d0,d1,d0,d1
  f->pwrite(0, data);
  EXPECT_EQ(d0->size(), 16);
  EXPECT_EQ(d1->size(), 16);
  // Device 0 holds logical stripes 0 and 2.
  const ByteVec c0 = d0->contents();
  EXPECT_TRUE(std::equal(data.begin(), data.begin() + 8, c0.begin()));
  EXPECT_TRUE(std::equal(data.begin() + 16, data.begin() + 24,
                         c0.begin() + 8));
  // Device 1 holds logical stripes 1 and 3.
  const ByteVec c1 = d1->contents();
  EXPECT_TRUE(std::equal(data.begin() + 8, data.begin() + 16, c1.begin()));
  EXPECT_TRUE(std::equal(data.begin() + 24, data.end(), c1.begin() + 8));
}

TEST(StripedFile, UnalignedAccessSpansStripes) {
  auto f = StripedFile::create({MemFile::create(), MemFile::create()}, 8);
  f->pwrite(0, pattern_bytes(64, 9));
  // Read an awkward window crossing three stripe boundaries.
  ByteVec out(21);
  EXPECT_EQ(f->pread(5, out), 21);
  const ByteVec all = pattern_bytes(64, 9);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), all.begin() + 5));
  // Patch across a boundary and read back.
  const ByteVec patch = pattern_bytes(10, 42);
  f->pwrite(12, patch);
  ByteVec back(10);
  EXPECT_EQ(f->pread(12, back), 10);
  EXPECT_EQ(back, patch);
}

TEST(StripedFile, SizeTracksPartialTailStripe) {
  auto f = StripedFile::create(
      {MemFile::create(), MemFile::create(), MemFile::create()}, 10);
  EXPECT_EQ(f->size(), 0);
  f->pwrite(0, pattern_bytes(25));  // 2.5 stripes
  EXPECT_EQ(f->size(), 25);
  f->pwrite(37, pattern_bytes(3));  // sparse tail in stripe 4 (device 0)
  EXPECT_EQ(f->size(), 40);
  f->resize(12);
  EXPECT_EQ(f->size(), 12);
}

TEST(StripedFile, RejectsBadConfig) {
  EXPECT_THROW(StripedFile::create({}, 8), Error);
  EXPECT_THROW(StripedFile::create({MemFile::create()}, 0), Error);
  EXPECT_THROW(StripedFile::create({nullptr}, 8), Error);
}

TEST(StripedFile, WorksUnderCollectiveIo) {
  std::vector<FilePtr> devs = {MemFile::create(), MemFile::create(),
                               MemFile::create(), MemFile::create()};
  auto f = StripedFile::create(devs, 64);
  sim::Runtime::run(4, [&](sim::Comm& comm) {
    mpiio::File file = mpiio::File::open(comm, f, mpiio::Options{});
    const ByteVec data = pattern_bytes(256, 11u + (unsigned)comm.rank());
    file.write_at_all(comm.rank() * 256, data.data(), 256, dt::byte());
    ByteVec back(256);
    file.read_at_all(comm.rank() * 256, back.data(), 256, dt::byte());
    EXPECT_EQ(back, data);
  });
  EXPECT_EQ(f->size(), 1024);
}

TEST(RangeLock, NonOverlappingRangesDoNotBlock) {
  RangeLock rl;
  rl.lock(0, 10);
  rl.lock(10, 20);  // adjacent is fine
  rl.unlock(0, 10);
  rl.unlock(10, 20);
}

TEST(RangeLock, UnlockOfUnheldRangeThrows) {
  RangeLock rl;
  rl.lock(0, 10);
  EXPECT_THROW(rl.unlock(5, 10), Error);
  rl.unlock(0, 10);
}

TEST(RangeLock, OverlappingWriterExcluded) {
  RangeLock rl;
  std::atomic<bool> second_acquired{false};
  rl.lock(0, 100);
  std::thread other([&] {
    rl.lock(50, 150);  // blocks until main unlocks
    second_acquired = true;
    rl.unlock(50, 150);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_acquired.load());
  rl.unlock(0, 100);
  other.join();
  EXPECT_TRUE(second_acquired.load());
}

TEST(RangeLock, SharedHoldersOverlapExclusiveWaits) {
  RangeLock rl;
  rl.lock_shared(0, 100);
  rl.lock_shared(50, 150);  // shared holders may overlap
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    rl.lock(90, 95);  // blocks until both readers leave
    writer_in = true;
    rl.unlock(90, 95);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());
  rl.unlock_shared(0, 100);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());
  EXPECT_THROW(rl.unlock(50, 150), Error);  // held shared, not exclusive
  rl.unlock_shared(50, 150);
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(RangeLock, ExclusiveHolderBlocksShared) {
  RangeLock rl;
  rl.lock(0, 10);
  std::atomic<bool> reader_in{false};
  std::thread reader([&] {
    ScopedRangeLock guard(rl, 5, 20, /*shared=*/true);
    reader_in = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(reader_in.load());
  rl.unlock(0, 10);
  reader.join();
  EXPECT_TRUE(reader_in.load());
}

TEST(RangeLock, ScopedGuardReleases) {
  RangeLock rl;
  {
    ScopedRangeLock guard(rl, 0, 8);
  }
  rl.lock(0, 8);  // would deadlock if the guard leaked
  rl.unlock(0, 8);
}

TEST(RangeLock, StressManyThreads) {
  RangeLock rl;
  std::vector<int> cells(16, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const Off lo = (t + i) % 16;
        ScopedRangeLock guard(rl, lo, lo + 1);
        ++cells[to_size(lo)];  // protected by the range lock
      }
    });
  }
  for (auto& t : threads) t.join();
  int total = 0;
  for (int v : cells) total += v;
  EXPECT_EQ(total, 8 * 200);
}

}  // namespace
}  // namespace llio::pfs
