#include <gtest/gtest.h>

#include "io_test_util.hpp"
#include "mpiio/info.hpp"

namespace llio::mpiio {
namespace {

TEST(Info, SetGetErase) {
  Info info;
  EXPECT_FALSE(info.get("k").has_value());
  info.set("k", "v");
  EXPECT_EQ(info.get("k").value(), "v");
  info.set("k", "w");
  EXPECT_EQ(info.get("k").value(), "w");
  EXPECT_TRUE(info.erase("k"));
  EXPECT_FALSE(info.erase("k"));
}

TEST(ApplyInfo, MethodSelection) {
  EXPECT_EQ(apply_info(Info{{"llio_method", "list-based"}}, {}).method,
            Method::ListBased);
  EXPECT_EQ(apply_info(Info{{"llio_method", "listless"}}, {}).method,
            Method::Listless);
  EXPECT_THROW(apply_info(Info{{"llio_method", "romio"}}, {}), Error);
}

TEST(ApplyInfo, BufferSizes) {
  const Options o = apply_info(
      Info{{"cb_buffer_size", "65536"}, {"pack_buffer_size", "4096"}}, {});
  EXPECT_EQ(o.file_buffer_size, 65536);
  EXPECT_EQ(o.pack_buffer_size, 4096);
  EXPECT_EQ(apply_info(Info{{"ind_rd_buffer_size", "1234"}}, {})
                .file_buffer_size,
            1234);
  EXPECT_THROW(apply_info(Info{{"cb_buffer_size", "0"}}, {}), Error);
  EXPECT_THROW(apply_info(Info{{"cb_buffer_size", "lots"}}, {}), Error);
}

TEST(ApplyInfo, CollectiveBufferingToggles) {
  Options o = apply_info(Info{{"romio_cb_write", "disable"}}, {});
  EXPECT_FALSE(o.cb_write);
  EXPECT_TRUE(o.cb_read);
  o = apply_info(Info{{"romio_cb_read", "disable"}}, {});
  EXPECT_FALSE(o.cb_read);
  o = apply_info(Info{{"romio_cb_write", "automatic"}}, {});
  EXPECT_TRUE(o.cb_write);
  EXPECT_THROW(apply_info(Info{{"romio_cb_write", "maybe"}}, {}), Error);
}

TEST(ApplyInfo, DataSievingStrategies) {
  Options o = apply_info(Info{{"romio_ds_write", "disable"},
                              {"romio_ds_read", "automatic"},
                              {"llio_sieve_min_fill", "0.5"}},
                         {});
  EXPECT_EQ(o.ds_write, Sieving::Never);
  EXPECT_EQ(o.ds_read, Sieving::Automatic);
  EXPECT_DOUBLE_EQ(o.sieve_min_fill, 0.5);
  EXPECT_THROW(apply_info(Info{{"llio_sieve_min_fill", "1.5"}}, {}), Error);
  EXPECT_THROW(apply_info(Info{{"romio_ds_write", "x"}}, {}), Error);
}

TEST(ApplyInfo, CbNodesAndMergeOpt) {
  // llio_merge_opt, once an alias of llio_merge_contig, is an unknown key
  // now: ignored like any other.
  Options o = apply_info(
      Info{{"cb_nodes", "2"}, {"llio_merge_opt", "disable"}}, {});
  EXPECT_EQ(o.io_procs, 2);
  EXPECT_EQ(o.merge_contig, Options{}.merge_contig);
}

TEST(ApplyInfo, MergeContigModes) {
  EXPECT_EQ(apply_info(Info{{"llio_merge_contig", "off"}}, {}).merge_contig,
            MergeContig::Off);
  EXPECT_EQ(apply_info(Info{{"llio_merge_contig", "auto"}}, {}).merge_contig,
            MergeContig::Auto);
  EXPECT_EQ(apply_info(Info{{"llio_merge_contig", "force"}}, {}).merge_contig,
            MergeContig::Force);
  EXPECT_THROW(apply_info(Info{{"llio_merge_contig", "on"}}, {}), Error);
}

TEST(ApplyInfo, UnknownKeysIgnored) {
  EXPECT_NO_THROW(apply_info(Info{{"some_vendor_hint", "whatever"}}, {}));
}

TEST(ApplyInfo, RoundTripThroughOptionsToInfo) {
  Options o;
  o.method = Method::ListBased;
  o.file_buffer_size = 12345;
  o.io_procs = 3;
  o.cb_write = false;
  o.ds_read = Sieving::Automatic;
  o.merge_contig = MergeContig::Force;
  const Options back = apply_info(options_to_info(o), Options{});
  EXPECT_EQ(back.method, o.method);
  EXPECT_EQ(back.file_buffer_size, o.file_buffer_size);
  EXPECT_EQ(back.io_procs, o.io_procs);
  EXPECT_EQ(back.cb_write, o.cb_write);
  EXPECT_EQ(back.ds_read, o.ds_read);
  EXPECT_EQ(back.merge_contig, o.merge_contig);
}

TEST(FileWithInfo, OpensAndReports) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(2, [&](sim::Comm& comm) {
    File f = File::open(comm, fs,
                        Info{{"llio_method", "list-based"},
                             {"cb_buffer_size", "8192"}});
    EXPECT_EQ(f.options().method, Method::ListBased);
    EXPECT_EQ(f.options().file_buffer_size, 8192);
    EXPECT_EQ(f.info().get("llio_method").value(), "list-based");
    // It still works end to end.
    f.set_view(0, dt::byte(),
               iotest::noncontig_filetype(4, 8, 2, comm.rank()));
    const ByteVec stream = iotest::payload_stream(comm.rank(), 64);
    EXPECT_EQ(f.write_at_all(0, stream.data(), 64, dt::byte()), 64);
  });
}

TEST(FileWithInfo, CbWriteDisableStillCorrect) {
  // With collective buffering disabled the collective degrades to
  // independent sieving accesses — the image must be identical.
  const Off nblock = 6, sblock = 8;
  const Off nbytes = 2 * nblock * sblock;
  auto run = [&](const char* cb) {
    auto fs = pfs::MemFile::create();
    sim::Runtime::run(3, [&](sim::Comm& comm) {
      File f = File::open(comm, fs, Info{{"romio_cb_write", cb},
                                         {"romio_cb_read", cb},
                                         {"cb_buffer_size", "128"}});
      f.set_view(0, dt::byte(),
                 iotest::noncontig_filetype(nblock, sblock, 3, comm.rank()));
      const ByteVec stream = iotest::payload_stream(comm.rank(), nbytes);
      EXPECT_EQ(f.write_at_all(0, stream.data(), nbytes, dt::byte()), nbytes);
      ByteVec back(to_size(nbytes), Byte{0});
      EXPECT_EQ(f.read_at_all(0, back.data(), nbytes, dt::byte()), nbytes);
      EXPECT_EQ(back, stream);
    });
    return fs->contents();
  };
  ByteVec with = run("enable");
  ByteVec without = run("disable");
  with.resize(std::max(with.size(), without.size()), Byte{0});
  without.resize(with.size(), Byte{0});
  EXPECT_EQ(with, without);
}

}  // namespace
}  // namespace llio::mpiio
