// Shared file pointer and ordered collective access.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>

#include "io_test_util.hpp"

namespace llio::mpiio {
namespace {

TEST(SharedFp, StartsAtZeroAndAdvances) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    EXPECT_EQ(f.tell_shared(), 0);
    const ByteVec data = iotest::payload_stream(0, 32);
    EXPECT_EQ(f.write_shared(data.data(), 32, dt::byte()), 32);
    EXPECT_EQ(f.tell_shared(), 32);
    ByteVec back(16);
    f.seek_shared(0);
    EXPECT_EQ(f.read_shared(back.data(), 16, dt::byte()), 16);
    EXPECT_EQ(f.tell_shared(), 16);
    EXPECT_TRUE(std::equal(back.begin(), back.end(), data.begin()));
  });
}

TEST(SharedFp, ConcurrentWritesClaimDisjointRanges) {
  // Every rank appends its marker block via write_shared; the order is
  // unspecified, but the blocks must be disjoint and all present.
  const int P = 4;
  const Off blk = 64;
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    ByteVec mine(to_size(blk),
                 Byte{static_cast<unsigned char>(0x10 + comm.rank())});
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(f.write_shared(mine.data(), blk, dt::byte()), blk);
  });
  ASSERT_EQ(fs->size(), P * 3 * blk);
  // Each block is uniform and each rank appears exactly 3 times.
  const ByteVec img = fs->contents();
  std::map<Byte, int> counts;
  for (Off b = 0; b < P * 3; ++b) {
    const Byte v = img[to_size(b * blk)];
    for (Off j = 1; j < blk; ++j)
      ASSERT_EQ(img[to_size(b * blk + j)], v) << "torn block " << b;
    counts[v]++;
  }
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(P));
  for (const auto& [v, c] : counts) EXPECT_EQ(c, 3);
}

TEST(SharedFp, OrderedWriteSerializesByRank) {
  const int P = 4;
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.set_view(0, dt::double_(), dt::double_());  // etype = double
    // Variable sizes: rank r writes r+1 doubles of value r.
    std::vector<double> mine(to_size(Off{comm.rank()} + 1),
                             static_cast<double>(comm.rank()));
    EXPECT_EQ(f.write_ordered(mine.data(), to_off(mine.size()), dt::double_()),
              to_off(mine.size() * 8));
    // Second round appends after everyone.
    EXPECT_EQ(f.write_ordered(mine.data(), to_off(mine.size()), dt::double_()),
              to_off(mine.size() * 8));
    EXPECT_EQ(f.tell_shared(), 2 * (1 + 2 + 3 + 4));
  });
  // Layout: 0 | 1 1 | 2 2 2 | 3 3 3 3, twice.
  const ByteVec img = fs->contents();
  const double* vals = reinterpret_cast<const double*>(img.data());
  std::size_t at = 0;
  for (int round = 0; round < 2; ++round)
    for (int r = 0; r < P; ++r)
      for (int i = 0; i <= r; ++i)
        EXPECT_EQ(vals[at++], static_cast<double>(r))
            << "round " << round << " rank " << r;
}

TEST(SharedFp, OrderedReadMatchesWrite) {
  const int P = 3;
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    const ByteVec mine = iotest::payload_stream(comm.rank(), 48);
    f.write_ordered(mine.data(), 48, dt::byte());
    f.seek_shared(0);
    ByteVec back(48, Byte{0});
    f.read_ordered(back.data(), 48, dt::byte());
    EXPECT_EQ(back, mine);
    EXPECT_EQ(f.tell_shared(), P * 48);
  });
}

TEST(SharedFp, SeekSharedWhence) {
  auto fs = pfs::MemFile::create(100);
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.seek_shared(10);
    EXPECT_EQ(f.tell_shared(), 10);
    f.seek_shared(5, File::Whence::Cur);
    EXPECT_EQ(f.tell_shared(), 15);
    f.seek_shared(-20, File::Whence::End);  // size 100, etype byte
    EXPECT_EQ(f.tell_shared(), 80);
  });
}

TEST(SharedFp, SetViewResetsSharedPointer) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    const ByteVec data(16, Byte{1});
    f.write_shared(data.data(), 16, dt::byte());
    comm.barrier();
    EXPECT_EQ(f.tell_shared(), 32);  // both ranks wrote
    f.set_view(0, dt::byte(), dt::byte());
    EXPECT_EQ(f.tell_shared(), 0);
  });
}

TEST(SharedFp, RequiresWholeEtypes) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.set_view(0, dt::int_(), dt::int_());
    ByteVec data(6, Byte{0});
    EXPECT_THROW(f.write_shared(data.data(), 6, dt::byte()), Error);
  });
}

TEST(SharedFp, WorksThroughNoncontigView) {
  // The shared pointer counts etypes of the view, so shared appends land
  // in this rank's visible bytes only.
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.set_view(0, dt::byte(),
               iotest::noncontig_filetype(4, 8, 2, comm.rank()));
    const ByteVec mine = iotest::payload_stream(comm.rank(), 32);
    f.write_ordered(mine.data(), 32, dt::byte());
    // Rank 0's view bytes 0..31 then rank 1's view bytes 32..63.
    ByteVec back(32, Byte{0});
    if (comm.rank() == 0)
      f.read_at(0, back.data(), 32, dt::byte());
    else
      f.read_at(32, back.data(), 32, dt::byte());
    EXPECT_EQ(back, mine);
  });
}

// The shared-pointer and atomic-mode machinery sits above the storage
// backend, but the psrv wire path (request classes, session credits,
// write aggregation) is exactly where a serialization bug would surface
// as a torn or misplaced shared append — so run the core scenarios over
// the full backend matrix, verifying through the public read path
// (MemFile::contents() does not exist on a ServerFile).
class SharedFpBackend : public ::testing::TestWithParam<std::string> {};

TEST_P(SharedFpBackend, ConcurrentWritesClaimDisjointRanges) {
  const int P = 4;
  const Off blk = 96;  // crosses the 64-byte psrv stripe every time
  auto fs = iotest::make_backend(GetParam());
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    ByteVec mine(to_size(blk),
                 Byte{static_cast<unsigned char>(0x10 + comm.rank())});
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(f.write_shared(mine.data(), blk, dt::byte()), blk);
  });
  ASSERT_EQ(fs->size(), P * 3 * blk);
  const ByteVec img = iotest::backend_image(fs);
  std::map<Byte, int> counts;
  for (Off b = 0; b < P * 3; ++b) {
    const Byte v = img[to_size(b * blk)];
    for (Off j = 1; j < blk; ++j)
      ASSERT_EQ(img[to_size(b * blk + j)], v) << "torn block " << b;
    counts[v]++;
  }
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(P));
  for (const auto& [v, c] : counts) EXPECT_EQ(c, 3);
}

TEST_P(SharedFpBackend, OrderedWriteThenReadRoundTrips) {
  const int P = 3;
  auto fs = iotest::make_backend(GetParam());
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    const ByteVec mine = iotest::payload_stream(comm.rank(), 80);
    EXPECT_EQ(f.write_ordered(mine.data(), 80, dt::byte()), 80);
    f.seek_shared(0);
    ByteVec back(80, Byte{0});
    EXPECT_EQ(f.read_ordered(back.data(), 80, dt::byte()), 80);
    EXPECT_EQ(back, mine);
    EXPECT_EQ(f.tell_shared(), P * 80);
  });
  // Rank order in the file: rank 0's stream, then 1's, then 2's.
  const ByteVec img = iotest::backend_image(fs);
  ASSERT_EQ(img.size(), to_size(Off{P} * 80));
  for (int r = 0; r < P; ++r) {
    const ByteVec want = iotest::payload_stream(r, 80);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           img.begin() + r * 80))
        << "rank " << r << " segment";
  }
}

TEST_P(SharedFpBackend, OrderedWriteThroughNoncontigView) {
  auto fs = iotest::make_backend(GetParam());
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    File f = File::open(comm, fs);
    f.set_view(0, dt::byte(),
               iotest::noncontig_filetype(4, 8, 2, comm.rank()));
    const ByteVec mine = iotest::payload_stream(comm.rank(), 32);
    f.write_ordered(mine.data(), 32, dt::byte());
    ByteVec back(32, Byte{0});
    f.read_at(comm.rank() == 0 ? 0 : 32, back.data(), 32, dt::byte());
    EXPECT_EQ(back, mine);
  });
}

TEST_P(SharedFpBackend, AtomicOverlappingWritersAreNotTorn) {
  // As in test_strategies: two writers hammer the same viewed region
  // with uniform values while a reader polls; atomic mode must keep
  // every observed snapshot single-valued even when the backend splits
  // the access across shards and request batches.
  auto fs = iotest::make_backend(GetParam());
  const Off nblock = 8, sblock = 8;
  const Off nbytes = nblock * sblock;
  std::atomic<bool> torn{false};
  sim::Runtime::run(3, [&](sim::Comm& comm) {
    Options o;
    o.file_buffer_size = 16;  // many windows -> torn without atomicity
    File f = File::open(comm, fs, o);
    f.set_atomicity(true);
    f.set_view(0, dt::byte(), iotest::noncontig_filetype(nblock, sblock, 2, 0));
    if (comm.rank() < 2) {
      ByteVec mine(to_size(nbytes),
                   Byte{static_cast<unsigned char>(0xA0 + comm.rank())});
      for (int i = 0; i < 15; ++i)
        f.write_at(0, mine.data(), nbytes, dt::byte());
    } else {
      ByteVec seen(to_size(nbytes));
      for (int i = 0; i < 30; ++i) {
        f.read_at(0, seen.data(), nbytes, dt::byte());
        const Byte first = seen[0];
        if (first != Byte{0})  // skip until someone wrote
          for (Byte b : seen)
            if (b != first) torn = true;
      }
    }
  });
  EXPECT_FALSE(torn.load());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SharedFpBackend, ::testing::ValuesIn(iotest::backend_specs()),
    [](const ::testing::TestParamInfo<std::string>& pinfo) {
      return iotest::spec_label(pinfo.param);
    });

}  // namespace
}  // namespace llio::mpiio
