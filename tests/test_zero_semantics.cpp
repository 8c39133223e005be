// Zero semantics of every read and write path that stages through a
// ByteVec.  A ByteVec's new bytes are unspecified, so zeros must come from
// the file: a byte past EOF or in a never-written hole reads as 0, and a
// holey write to a fresh file leaves 0 in its gaps.  User buffers start as
// 0xEE, so a path that leaves a byte unwritten cannot pass by luck.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "io_test_util.hpp"

namespace llio::mpiio {
namespace {

using iotest::make_nc_buffer;
using iotest::nc_buffer_stream;
using iotest::noncontig_filetype;

constexpr Byte kUnread{0xEE};

/// Seed a file spanning `span` bytes of view: payload in [0, span/4) and
/// [span/2, 5*span/8), a never-written hole between, EOF at 5*span/8.
/// Returns the image a read of [0, span) must see.
ByteVec seed_holey_file(pfs::FileBackend& f, Off span) {
  ByteVec img(to_size(span), Byte{0});
  const auto put = [&](Off lo, Off hi, int tag) {
    const ByteVec d = iotest::payload_stream(tag, hi - lo);
    f.pwrite(lo, d);
    std::copy(d.begin(), d.end(), img.begin() + lo);
  };
  put(span / 2, span * 5 / 8, 2);  // grows the file over the hole first
  put(0, span / 4, 1);
  return img;
}

/// The first `nbytes` stream bytes that `ft` (at displacement 0) maps
/// out of `img`.
ByteVec view_stream(const ByteVec& img, const dt::Type& ft, Off nbytes) {
  ByteVec out;
  const auto list = dt::flatten(ft, false);
  for (Off inst = 0; to_off(out.size()) < nbytes; ++inst)
    for (const auto& tp : list.tuples())
      for (Off j = 0; j < tp.len && to_off(out.size()) < nbytes; ++j)
        out.push_back(img.at(to_size(inst * ft->extent() + tp.off + j)));
  return out;
}

/// Read `nbytes` stream bytes at offset 0 into a 0xEE-filled buffer,
/// contiguous or strided (8-byte blocks, `per_instance` per memtype
/// instance, which is too fine for zerocopy), and return the stream it
/// holds.
ByteVec read_stream(File& f, bool collective, bool nc_mem, Off nbytes,
                    Off per_instance = 2) {
  const auto read = [&](void* buf, Off count, const dt::Type& mt) {
    return collective ? f.read_at_all(0, buf, count, mt)
                      : f.read_at(0, buf, count, mt);
  };
  if (!nc_mem) {
    ByteVec buf(to_size(nbytes), kUnread);
    EXPECT_EQ(read(buf.data(), nbytes, dt::byte()), nbytes);
    return buf;
  }
  iotest::NcBuffer buf =
      make_nc_buffer(ByteVec(to_size(nbytes), kUnread), per_instance);
  EXPECT_EQ(read(buf.storage.data(), buf.count, buf.memtype), nbytes);
  return nc_buffer_stream(buf);
}

TEST(ZeroSemantics, CollectiveReadsZeroHolesAndPastEof) {
  // 8 B runs stage every IOP window; 512 B runs take direct windows (one
  // preadv into the peers' replies).  A strided user buffer keeps the
  // AP side staged, so every zerocopy window counted is an IOP one.
  const int P = 3;
  for (Method m : {Method::ListBased, Method::Listless})
    for (int depth : {0, 2})
      for (Off sblock : {Off{8}, Off{512}})
        for (bool nc_mem : {false, true}) {
          SCOPED_TRACE(std::string(method_name(m)) + " depth " +
                       std::to_string(depth) + " sblock " +
                       std::to_string(sblock) + (nc_mem ? " ncmem" : " cmem"));
          const Off nblock = sblock == 8 ? 64 : 4;
          const Off nbytes = 2 * nblock * sblock;  // two filetype instances
          auto fs = pfs::MemFile::create();
          const ByteVec img = seed_holey_file(*fs, Off{P} * nbytes);
          std::atomic<std::uint64_t> direct{0};
          sim::Runtime::run(P, [&](sim::Comm& comm) {
            Options o;
            o.method = m;
            o.pipeline_depth = depth;
            o.file_buffer_size = 1024;
            o.pack_buffer_size = 96;
            File f = File::open(comm, fs, o);
            const dt::Type ft =
                noncontig_filetype(nblock, sblock, P, comm.rank());
            f.set_view(0, dt::byte(), ft);
            EXPECT_EQ(read_stream(f, true, nc_mem, nbytes),
                      view_stream(img, ft, nbytes))
                << "rank " << comm.rank();
            direct += f.last_stats().zerocopy_windows;
          });
          if (nc_mem) {
            EXPECT_EQ(direct.load() > 0, sblock == 512);
          }
        }
}

TEST(ZeroSemantics, CollectiveReadOfOneRunInstancesStages) {
  // A strided buffer of one 8-byte block per memtype instance
  // (resized(hvector(1, 8, 24))): its one run does not fill the 24-byte
  // extent, so its average run is 8 B, below llio_zerocopy_min_run, and
  // the listless AP side stages it just like two blocks per instance —
  // no zerocopy window anywhere, the same bytes read.
  const int P = 3;
  const Off nblock = 64, sblock = 8;
  const Off nbytes = 2 * nblock * sblock;
  auto fs = pfs::MemFile::create();
  const ByteVec img = seed_holey_file(*fs, Off{P} * nbytes);
  std::atomic<std::uint64_t> zerocopy{0}, staged{0};
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.method = Method::Listless;
    o.file_buffer_size = 1024;
    o.pack_buffer_size = 96;
    File f = File::open(comm, fs, o);
    const dt::Type ft = noncontig_filetype(nblock, sblock, P, comm.rank());
    f.set_view(0, dt::byte(), ft);
    EXPECT_EQ(read_stream(f, true, true, nbytes, /*per_instance=*/1),
              view_stream(img, ft, nbytes))
        << "rank " << comm.rank();
    zerocopy += f.last_stats().zerocopy_windows;
    staged += f.last_stats().staged_fallback_windows;
  });
  EXPECT_EQ(zerocopy.load(), 0u);
  EXPECT_GT(staged.load(), 0u);
}

TEST(ZeroSemantics, IndependentReadsZeroHolesAndPastEof) {
  // sieve_read (romio_ds_read=enable), direct_read (disable) and
  // dense_read (the default byte view), each with a contiguous user
  // buffer (read in place) and a strided one (staged), over MemFile and
  // the psrv pool's contig, list and view requests.
  const int P = 2;
  const Off nblock = 16, sblock = 8;
  const Off nbytes = 2 * nblock * sblock;
  const Off span = Off{P} * nbytes;
  for (const char* spec :
       {"mem", "psrv:servers=3,request=contig", "psrv:servers=3,request=list",
        "psrv:servers=3,request=view"})
    for (Method m : {Method::ListBased, Method::Listless})
      for (const char* path : {"sieve", "direct", "dense"})
        for (bool nc_mem : {false, true}) {
          SCOPED_TRACE(std::string(spec) + " " + method_name(m) + " " + path +
                       (nc_mem ? " ncmem" : " cmem"));
          auto fs = iotest::make_backend(spec);
          const ByteVec img = seed_holey_file(*fs, span);
          const bool dense = std::string(path) == "dense";
          sim::Runtime::run(P, [&](sim::Comm& comm) {
            Options o;
            o.method = m;
            o.file_buffer_size = 96;
            o.pack_buffer_size = 40;
            o.iov_batch_max = 4;
            o.ds_read = std::string(path) == "direct" ? Sieving::Never
                                                      : Sieving::Always;
            File f = File::open(comm, fs, o);
            const dt::Type ft =
                dense ? dt::byte()
                      : noncontig_filetype(nblock, sblock, P, comm.rank());
            f.set_view(0, dt::byte(), ft);
            const Off n = dense ? span : nbytes;
            const ByteVec want = dense ? img : view_stream(img, ft, n);
            EXPECT_EQ(read_stream(f, false, nc_mem, n), want)
                << "rank " << comm.rank();
          });
        }
}

TEST(ZeroSemantics, HoleyWritesLeaveZeroGaps) {
  // Rank 2 writes nothing, so its blocks of the view are gaps a fresh
  // file never had written: collective (staged and direct windows) and
  // independent sieving writes must leave them 0.
  const int P = 3;
  const auto run = [&](Method m, bool collective, int depth, Off sblock) {
    SCOPED_TRACE(std::string(method_name(m)) +
                 (collective ? " collective" : " independent") + " depth " +
                 std::to_string(depth) + " sblock " + std::to_string(sblock));
    const Off nblock = sblock == 8 ? 64 : 4;
    const Off nbytes = 2 * nblock * sblock;
    const auto ft_of = [&](int r) {
      return noncontig_filetype(nblock, sblock, P, r);
    };
    auto fs = pfs::MemFile::create();
    sim::Runtime::run(P, [&](sim::Comm& comm) {
      Options o;
      o.method = m;
      o.pipeline_depth = depth;
      o.file_buffer_size = 1024;
      o.pack_buffer_size = 96;
      File f = File::open(comm, fs, o);
      f.set_view(0, dt::byte(), ft_of(comm.rank()));
      const Off n = comm.rank() == P - 1 ? 0 : nbytes;
      const ByteVec stream = iotest::payload_stream(comm.rank(), n);
      if (collective)
        f.write_at_all(0, stream.data(), n, dt::byte());
      else
        f.write_at(0, stream.data(), n, dt::byte());
    });
    ByteVec want = iotest::expected_image(P - 1, ft_of, 0, 0, nbytes);
    ByteVec got = fs->contents();
    iotest::pad_to_common(got, want);
    EXPECT_EQ(got, want);
  };
  for (Method m : {Method::ListBased, Method::Listless}) {
    for (int depth : {0, 2})
      for (Off sblock : {Off{8}, Off{512}}) run(m, true, depth, sblock);
    run(m, false, 0, 8);
  }
}

}  // namespace
}  // namespace llio::mpiio
