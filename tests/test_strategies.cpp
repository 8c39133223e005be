// Access-strategy features: direct (non-sieving) independent access — the
// paper §5 sieving trade-off — plus split collectives and atomic mode.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "io_test_util.hpp"

namespace llio::mpiio {
namespace {

using iotest::noncontig_filetype;
using iotest::payload_stream;

class Strategies : public ::testing::TestWithParam<Method> {};

TEST_P(Strategies, DirectWriteMatchesSieving) {
  const Off nblock = 9, sblock = 8;
  const Off nbytes = 3 * nblock * sblock;
  auto run = [&](Sieving mode) {
    auto fs = pfs::MemFile::create();
    sim::Runtime::run(2, [&](sim::Comm& comm) {
      Options o;
      o.method = GetParam();
      o.file_buffer_size = 128;
      o.ds_write = mode;
      o.ds_read = mode;
      File f = File::open(comm, fs, o);
      f.set_view(0, dt::byte(),
                 noncontig_filetype(nblock, sblock, 2, comm.rank()));
      const ByteVec stream = payload_stream(comm.rank(), nbytes);
      EXPECT_EQ(f.write_at(0, stream.data(), nbytes, dt::byte()), nbytes);
      comm.barrier();
      ByteVec back(to_size(nbytes), Byte{0});
      EXPECT_EQ(f.read_at(0, back.data(), nbytes, dt::byte()), nbytes);
      EXPECT_EQ(back, stream);
    });
    return fs->contents();
  };
  ByteVec sieved = run(Sieving::Always);
  ByteVec direct = run(Sieving::Never);
  sieved.resize(std::max(sieved.size(), direct.size()), Byte{0});
  direct.resize(sieved.size(), Byte{0});
  EXPECT_EQ(sieved, direct);
}

TEST_P(Strategies, DirectWriteTouchesOnlyOwnBytes) {
  // Direct mode must not disturb gap bytes at all (no RMW).
  const Off nblock = 6, sblock = 8;
  auto fs = pfs::MemFile::create();
  ByteVec old(to_size(2 * nblock * sblock), Byte{0xAB});
  fs->pwrite(0, old);
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    o.ds_write = Sieving::Never;
    o.iov_batch_max = 4;
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(), noncontig_filetype(nblock, sblock, 2, 0));
    const ByteVec stream = payload_stream(7, nblock * sblock);
    f.write_at(0, stream.data(), nblock * sblock, dt::byte());
    // The nblock contiguous runs are coalesced into vectored writes of at
    // most iov_batch_max segments each: ceil(6 / 4) = 2 file ops.
    EXPECT_EQ(f.last_stats().file_write_ops, 2u);
    EXPECT_EQ(f.last_stats().file_write_bytes, nblock * sblock);
    EXPECT_EQ(f.last_stats().file_read_bytes, 0);
  });
  const ByteVec img = fs->contents();
  for (Off i = 0; i < to_off(old.size()); ++i) {
    const Off inst = i / (2 * sblock);
    const Off within = i % (2 * sblock);
    if (inst < nblock && within < sblock) {
      EXPECT_EQ(img[to_size(i)],
                iotest::payload_byte(7, inst * sblock + within));
    } else {
      EXPECT_EQ(img[to_size(i)], Byte{0xAB}) << i;
    }
  }
}

TEST_P(Strategies, AutomaticPicksDirectForSparseAccess) {
  // Very sparse view (8 bytes every 4 KiB): Automatic must not pre-read
  // entire windows.
  auto fs = pfs::MemFile::create();
  fs->resize(1 << 20);
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    o.ds_write = Sieving::Automatic;
    o.sieve_min_fill = 0.2;
    File f = File::open(comm, fs, o);
    const dt::Type sparse =
        dt::resized(dt::hvector(8, 8, 4096, dt::byte()), 0, 8 * 4096);
    f.set_view(0, dt::byte(), sparse);
    const ByteVec stream = payload_stream(1, 64);
    f.write_at(0, stream.data(), 64, dt::byte());
    EXPECT_EQ(f.last_stats().file_read_bytes, 0);   // no sieving pre-read
    EXPECT_EQ(f.last_stats().file_write_bytes, 64); // only payload written
    // A dense access through the same handle still sieves.
    f.set_view(0, dt::byte(),
               noncontig_filetype(8, 8, 2, 0));  // 50% fill >= 0.2
    f.write_at(0, stream.data(), 64, dt::byte());
    EXPECT_GT(f.last_stats().file_write_bytes, 64);  // whole windows
  });
}

TEST_P(Strategies, SplitCollectiveRoundTrip) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(3, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(), noncontig_filetype(5, 8, 3, comm.rank()));
    const ByteVec stream = payload_stream(comm.rank(), 40);
    f.write_at_all_begin(0, stream.data(), 40, dt::byte());
    EXPECT_EQ(f.write_at_all_end(stream.data()), 40);

    ByteVec back(40, Byte{0});
    f.read_at_all_begin(0, back.data(), 40, dt::byte());
    EXPECT_EQ(f.read_at_all_end(back.data()), 40);
    EXPECT_EQ(back, stream);
  });
}

TEST_P(Strategies, SplitCollectiveMisuseThrows) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    File f = File::open(comm, fs, o);
    ByteVec buf(8, Byte{1});
    // end without begin
    EXPECT_THROW(f.write_at_all_end(buf.data()), Error);
    f.write_at_all_begin(0, buf.data(), 8, dt::byte());
    // nested begin
    EXPECT_THROW(f.write_at_all_begin(0, buf.data(), 8, dt::byte()), Error);
    // mismatched buffer
    ByteVec other(8);
    EXPECT_THROW(f.write_at_all_end(other.data()), Error);
    EXPECT_EQ(f.write_at_all_end(buf.data()), 8);
    // read end after write begin
    f.read_at_all_begin(0, buf.data(), 8, dt::byte());
    EXPECT_THROW(f.write_at_all_end(buf.data()), Error);
    EXPECT_EQ(f.read_at_all_end(buf.data()), 8);
  });
}

TEST_P(Strategies, AtomicModeToggles) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    File f = File::open(comm, fs, o);
    EXPECT_FALSE(f.atomicity());
    f.set_atomicity(true);
    EXPECT_TRUE(f.atomicity());
    // Accesses still work with whole-range locking (sieving + direct).
    f.set_view(0, dt::byte(), noncontig_filetype(4, 8, 2, comm.rank()));
    const ByteVec stream = payload_stream(comm.rank(), 32);
    EXPECT_EQ(f.write_at(0, stream.data(), 32, dt::byte()), 32);
    comm.barrier();
    ByteVec back(32, Byte{0});
    EXPECT_EQ(f.read_at(0, back.data(), 32, dt::byte()), 32);
    EXPECT_EQ(back, stream);
    f.set_atomicity(false);
    EXPECT_FALSE(f.atomicity());
  });
}

TEST_P(Strategies, AtomicOverlappingWritersAreNotTorn) {
  // Two ranks repeatedly write the SAME region with different uniform
  // values through a view with gaps; in atomic mode every read of the
  // region must observe exactly one writer's value.
  auto fs = pfs::MemFile::create();
  const Off nblock = 8, sblock = 8;
  const Off nbytes = nblock * sblock;
  std::atomic<bool> torn{false};
  sim::Runtime::run(3, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    o.file_buffer_size = 16;  // many windows -> torn without atomicity
    File f = File::open(comm, fs, o);
    f.set_atomicity(true);
    // All ranks share the SAME fileview (rank 0's pattern).
    f.set_view(0, dt::byte(), noncontig_filetype(nblock, sblock, 2, 0));
    if (comm.rank() < 2) {
      ByteVec mine(to_size(nbytes),
                   Byte{static_cast<unsigned char>(0xA0 + comm.rank())});
      for (int i = 0; i < 25; ++i)
        f.write_at(0, mine.data(), nbytes, dt::byte());
    } else {
      ByteVec seen(to_size(nbytes));
      for (int i = 0; i < 50; ++i) {
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

INSTANTIATE_TEST_SUITE_P(BothMethods, Strategies,
                         ::testing::Values(Method::ListBased,
                                           Method::Listless),
                         [](const ::testing::TestParamInfo<Method>& pinfo) {
                           return pinfo.param == Method::ListBased
                                      ? "list_based"
                                      : "listless";
                         });

// Atomic mode sits above the storage backend, but a backend that splits
// one access across shards and request batches (psrv) or queue-depth
// submissions is where a torn write would surface, so the torn-writer
// scenario also runs over the whole backend matrix, checked through the
// public read path.
class AtomicMode : public ::testing::TestWithParam<std::string> {};

TEST_P(AtomicMode, OverlappingWritersAreNotTorn) {
  auto fs = iotest::make_backend(GetParam());
  const Off nblock = 8, sblock = 8;
  const Off nbytes = nblock * sblock;
  std::atomic<bool> torn{false};
  sim::Runtime::run(3, [&](sim::Comm& comm) {
    Options o;
    o.file_buffer_size = 16;  // many windows -> torn without atomicity
    File f = File::open(comm, fs, o);
    f.set_atomicity(true);
    f.set_view(0, dt::byte(), noncontig_filetype(nblock, sblock, 2, 0));
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
    AllBackends, AtomicMode, ::testing::ValuesIn(iotest::backend_specs()),
    [](const ::testing::TestParamInfo<std::string>& pinfo) {
      return iotest::spec_label(pinfo.param);
    });

}  // namespace
}  // namespace llio::mpiio
