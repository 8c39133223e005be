// Independent read/write through both engines, all four layout combos of
// the paper's Figure 1 (c-c, nc-c, c-nc, nc-nc), with small buffers so
// the sieving loop runs many windows.
#include <gtest/gtest.h>

#include "io_test_util.hpp"
#include "listio/list_engine.hpp"

namespace llio::mpiio {
namespace {

using iotest::make_nc_buffer;
using iotest::noncontig_filetype;
using iotest::payload_stream;

Options small_buffers(Method m) {
  Options o;
  o.method = m;
  o.file_buffer_size = 256;  // force many sieving windows
  o.pack_buffer_size = 96;   // force pack chunking
  return o;
}

struct Combo {
  Method method;
  bool nc_mem;
  bool nc_file;

  friend std::ostream& operator<<(std::ostream& os, const Combo& c) {
    return os << method_name(c.method) << (c.nc_mem ? "_ncmem" : "_cmem")
              << (c.nc_file ? "_ncfile" : "_cfile");
  }
};

class IndepIo : public ::testing::TestWithParam<Combo> {};

TEST_P(IndepIo, WriteThenReadBack) {
  const Combo combo = GetParam();
  const int P = 2;
  const Off nblock = 13, sblock = 8;
  const Off nbytes = 4 * nblock * sblock;  // four filetype instances
  auto fs = pfs::MemFile::create();

  sim::Runtime::run(P, [&](sim::Comm& comm) {
    File f = File::open(comm, fs, small_buffers(combo.method));
    if (combo.nc_file) {
      f.set_view(0, dt::byte(),
                 noncontig_filetype(nblock, sblock, P, comm.rank()));
    } else {
      // Contiguous partition: rank r owns [r*nbytes, (r+1)*nbytes).
      f.set_view(comm.rank() * nbytes, dt::byte(), dt::byte());
    }
    const ByteVec stream = payload_stream(comm.rank(), nbytes);
    if (combo.nc_mem) {
      auto buf = make_nc_buffer(stream);
      EXPECT_EQ(f.write_at(0, buf.storage.data(), buf.count, buf.memtype),
                nbytes);
    } else {
      EXPECT_EQ(f.write_at(0, stream.data(), nbytes, dt::byte()), nbytes);
    }
    comm.barrier();

    // Read back with the opposite memory layout to cross the combos.
    if (combo.nc_mem) {
      ByteVec back(to_size(nbytes), Byte{0});
      EXPECT_EQ(f.read_at(0, back.data(), nbytes, dt::byte()), nbytes);
      EXPECT_EQ(back, stream);
    } else {
      auto buf = make_nc_buffer(ByteVec(to_size(nbytes), Byte{0}));
      EXPECT_EQ(f.read_at(0, buf.storage.data(), buf.count, buf.memtype),
                nbytes);
      EXPECT_EQ(nc_buffer_stream(buf), stream);
    }
  });

  // Verify the final file image byte for byte.
  if (combo.nc_file) {
    const ByteVec want = iotest::expected_image(
        P, [&](int r) { return noncontig_filetype(nblock, sblock, P, r); }, 0,
        0, nbytes);
    ByteVec got = fs->contents();
    got.resize(want.size(), Byte{0});
    EXPECT_EQ(got, want);
  } else {
    const ByteVec got = fs->contents();
    ASSERT_EQ(to_off(got.size()), P * nbytes);
    for (int r = 0; r < P; ++r) {
      const ByteVec want = payload_stream(r, nbytes);
      EXPECT_TRUE(std::equal(want.begin(), want.end(),
                             got.begin() +
                                 static_cast<std::ptrdiff_t>(Off{r} * nbytes)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, IndepIo,
    ::testing::Values(Combo{Method::ListBased, false, false},
                      Combo{Method::ListBased, true, false},
                      Combo{Method::ListBased, false, true},
                      Combo{Method::ListBased, true, true},
                      Combo{Method::Listless, false, false},
                      Combo{Method::Listless, true, false},
                      Combo{Method::Listless, false, true},
                      Combo{Method::Listless, true, true}),
    [](const ::testing::TestParamInfo<Combo>& pinfo) {
      std::ostringstream os;
      os << pinfo.param;
      std::string s = os.str();
      for (char& c : s)
        if (c == '-') c = '_';
      return s;
    });

class IndepOffsets : public ::testing::TestWithParam<Method> {};

TEST_P(IndepOffsets, EtypeGranularOffsetsInsideFiletype) {
  // Accesses may start anywhere at etype granularity, including inside a
  // filetype instance (paper §2.2 / §3.2.1).
  const Off nblock = 5, sblock = 8;
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    Options o = small_buffers(GetParam());
    File f = File::open(comm, fs, o);
    // A 2-process-shaped fileview used by one rank: gaps stay in the file.
    f.set_view(16, dt::double_(), noncontig_filetype(nblock, sblock, 2, 0));

    // Write doubles 3..12 of the view (starts mid-instance).
    std::vector<double> vals;
    for (int i = 0; i < 10; ++i) vals.push_back(100.0 + i);
    EXPECT_EQ(f.write_at(3, vals.data(), 10, dt::double_()), 80);

    std::vector<double> back(10, 0.0);
    EXPECT_EQ(f.read_at(3, back.data(), 10, dt::double_()), 80);
    EXPECT_EQ(back, vals);

    // Reading a shifted range sees the overlap.
    std::vector<double> shifted(10, 0.0);
    EXPECT_EQ(f.read_at(5, shifted.data(), 10, dt::double_()), 80);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(shifted[to_size(Off{i})], vals[to_size(Off{i + 2})]);
    for (int i = 8; i < 10; ++i) EXPECT_EQ(shifted[to_size(Off{i})], 0.0);
  });
}

TEST_P(IndepOffsets, FilePointerReadWriteSeek) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    Options o = small_buffers(GetParam());
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::int_(), noncontig_filetype(4, 8, 1, 0));
    EXPECT_EQ(f.tell(), 0);
    const int a[4] = {1, 2, 3, 4};
    EXPECT_EQ(f.write(a, 4, dt::int_()), 16);
    EXPECT_EQ(f.tell(), 4);
    f.seek(-2, File::Whence::Cur);
    EXPECT_EQ(f.tell(), 2);
    int b[2] = {0, 0};
    EXPECT_EQ(f.read(b, 2, dt::int_()), 8);
    EXPECT_EQ(b[0], 3);
    EXPECT_EQ(b[1], 4);
    f.seek(0, File::Whence::Set);
    EXPECT_EQ(f.tell(), 0);
    EXPECT_THROW(f.seek(-1, File::Whence::Set), Error);
    // The pointer moves in whole etypes only.
    EXPECT_THROW(f.write(a, 6, dt::byte()), Error);
    EXPECT_EQ(f.tell(), 0);
  });
}

TEST_P(IndepOffsets, ReadBeyondWrittenDataIsZero) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs, small_buffers(GetParam()));
    f.set_view(0, dt::byte(), noncontig_filetype(4, 8, 1, 0));
    ByteVec out(64, Byte{0x55});
    EXPECT_EQ(f.read_at(0, out.data(), 64, dt::byte()), 64);
    for (Byte b : out) EXPECT_EQ(b, Byte{0});
  });
}

TEST_P(IndepOffsets, RejectsBadArguments) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs, small_buffers(GetParam()));
    ByteVec buf(8);
    EXPECT_THROW(f.write_at(-1, buf.data(), 8, dt::byte()), Error);
    EXPECT_THROW(f.write_at(0, buf.data(), -1, dt::byte()), Error);
    EXPECT_THROW(f.write_at(0, nullptr, 8, dt::byte()), Error);
    EXPECT_EQ(f.write_at(0, nullptr, 0, dt::byte()), 0);  // empty is legal
    // Non-navigable filetype rejected at set_view.
    const Off bls[] = {1, 1};
    const Off ds[] = {8, 0};
    EXPECT_THROW(f.set_view(0, dt::byte(), dt::hindexed(bls, ds, dt::byte())),
                 Error);
    // etype that does not divide the filetype.
    EXPECT_THROW(
        f.set_view(0, dt::double_(), dt::contiguous(12, dt::byte())),
        Error);
  });
}

INSTANTIATE_TEST_SUITE_P(BothMethods, IndepOffsets,
                         ::testing::Values(Method::ListBased,
                                           Method::Listless),
                         [](const ::testing::TestParamInfo<Method>& pinfo) {
                           return pinfo.param == Method::ListBased
                                      ? "list_based"
                                      : "listless";
                         });

TEST(IndepIoStats, SieveCountsFileTraffic) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    Options o = small_buffers(Method::Listless);
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(), noncontig_filetype(8, 8, 2, 0));
    const ByteVec stream = payload_stream(0, 128);
    f.write_at(0, stream.data(), 128, dt::byte());
    const IoOpStats& st = f.last_stats();
    EXPECT_EQ(st.bytes_moved, 128);
    // Sieving writes whole windows: more file bytes than payload.
    EXPECT_GT(st.file_write_bytes, 128);
    EXPECT_GT(st.total_s, 0.0);
  });
}

TEST(IndepIoStats, ListEngineChargesFlattenCosts) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    Options o = small_buffers(Method::ListBased);
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(), noncontig_filetype(1000, 8, 2, 0));
    auto& eng = dynamic_cast<listio::ListEngine&>(f.engine());
    EXPECT_EQ(eng.view_list_bytes(), 16000);  // 16 B per tuple (paper §2.4)
    // A write with an nc memtype flattens the memtype per access.
    const ByteVec stream = payload_stream(0, 512);
    auto buf = iotest::make_nc_buffer(stream);
    f.write_at(0, buf.storage.data(), buf.count, buf.memtype);
    EXPECT_GT(f.last_stats().list_mem_bytes, 0);
  });
}

}  // namespace
}  // namespace llio::mpiio
