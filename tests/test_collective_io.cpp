// Collective two-phase read/write through both engines: partitioned
// fileviews, coverage optimization, IOP subsets, uneven participation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "io_test_util.hpp"
#include "mpiio/twophase.hpp"

namespace llio::mpiio {
namespace {

using iotest::make_nc_buffer;
using iotest::noncontig_filetype;
using iotest::payload_stream;

struct CollParams {
  Method method;
  int nprocs;
  int io_procs;  // 0 = all
  bool nc_mem;
  int depth = 0;  // pipeline_depth (0 = serial window loop)
};

class CollectiveIo : public ::testing::TestWithParam<CollParams> {};

TEST_P(CollectiveIo, PartitionedWriteProducesExactImage) {
  const CollParams p = GetParam();
  const Off nblock = 7, sblock = 8;
  const Off nbytes = 3 * nblock * sblock;
  auto fs = pfs::MemFile::create();

  sim::Runtime::run(p.nprocs, [&](sim::Comm& comm) {
    Options o;
    o.method = p.method;
    o.file_buffer_size = 512;
    o.pack_buffer_size = 128;
    o.io_procs = p.io_procs;
    o.pipeline_depth = p.depth;
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, sblock, p.nprocs, comm.rank()));
    const ByteVec stream = payload_stream(comm.rank(), nbytes);
    if (p.nc_mem) {
      auto buf = make_nc_buffer(stream);
      EXPECT_EQ(f.write_at_all(0, buf.storage.data(), buf.count, buf.memtype),
                nbytes);
    } else {
      EXPECT_EQ(f.write_at_all(0, stream.data(), nbytes, dt::byte()), nbytes);
    }

    // Collective read-back into the opposite layout.
    ByteVec back(to_size(nbytes), Byte{0});
    EXPECT_EQ(f.read_at_all(0, back.data(), nbytes, dt::byte()), nbytes);
    EXPECT_EQ(back, stream);
  });

  const ByteVec want = iotest::expected_image(
      p.nprocs,
      [&](int r) { return noncontig_filetype(nblock, sblock, p.nprocs, r); },
      0, 0, nbytes);
  ByteVec got = fs->contents();
  got.resize(want.size(), Byte{0});
  EXPECT_EQ(got, want);
}

std::string coll_name(const ::testing::TestParamInfo<CollParams>& info) {
  const CollParams& p = info.param;
  std::string s = p.method == Method::ListBased ? "list" : "listless";
  s += "_p" + std::to_string(p.nprocs);
  s += "_iop" + std::to_string(p.io_procs);
  s += p.nc_mem ? "_ncmem" : "_cmem";
  s += "_d" + std::to_string(p.depth);
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CollectiveIo,
    ::testing::Values(CollParams{Method::ListBased, 1, 0, false},
                      CollParams{Method::ListBased, 2, 0, false},
                      CollParams{Method::ListBased, 4, 0, false},
                      CollParams{Method::ListBased, 4, 0, true},
                      CollParams{Method::ListBased, 4, 1, false},
                      CollParams{Method::ListBased, 3, 2, true},
                      CollParams{Method::Listless, 1, 0, false},
                      CollParams{Method::Listless, 2, 0, false},
                      CollParams{Method::Listless, 4, 0, false},
                      CollParams{Method::Listless, 4, 0, true},
                      CollParams{Method::Listless, 4, 1, false},
                      CollParams{Method::Listless, 3, 2, true},
                      // Same matrix again with the pipelined window loop.
                      CollParams{Method::ListBased, 1, 0, false, 2},
                      CollParams{Method::ListBased, 2, 0, false, 2},
                      CollParams{Method::ListBased, 4, 0, false, 2},
                      CollParams{Method::ListBased, 4, 0, true, 2},
                      CollParams{Method::ListBased, 4, 1, false, 2},
                      CollParams{Method::ListBased, 3, 2, true, 2},
                      CollParams{Method::Listless, 1, 0, false, 2},
                      CollParams{Method::Listless, 2, 0, false, 2},
                      CollParams{Method::Listless, 4, 0, false, 2},
                      CollParams{Method::Listless, 4, 0, true, 2},
                      CollParams{Method::Listless, 4, 1, false, 2},
                      CollParams{Method::Listless, 3, 2, true, 2}),
    coll_name);

class CollectiveBehaviors : public ::testing::TestWithParam<Method> {};

TEST_P(CollectiveBehaviors, FullCoverageSkipsPreRead) {
  // When the ranks' writes tile the file range completely, the merge
  // optimization must avoid reading the file (paper §2.3 / §3.2.3).
  const int P = 4;
  const Off nblock = 16, sblock = 8;
  const Off nbytes = 2 * nblock * sblock;
  auto fs = pfs::MemFile::create();
  fs->resize(P * nbytes);  // pre-size so a pre-read would find data
  std::atomic<std::uint64_t> reads{0};
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    o.file_buffer_size = 512;
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, sblock, P, comm.rank()));
    const ByteVec stream = payload_stream(comm.rank(), nbytes);
    fs->reset_stats();
    comm.barrier();
    f.write_at_all(0, stream.data(), nbytes, dt::byte());
    comm.barrier();
    if (comm.rank() == 0) reads = fs->stats().read_bytes;
  });
  EXPECT_EQ(reads.load(), 0u);
}

TEST_P(CollectiveBehaviors, PartialCoveragePreservesOldData) {
  // Only half the ranks' blocks are written: old file contents in the
  // gaps must survive the read-modify-write.
  const int P = 2;
  const Off nblock = 8, sblock = 8;
  const Off nbytes = nblock * sblock;
  auto fs = pfs::MemFile::create();
  const Off file_size = 2 * nblock * sblock;
  {
    ByteVec old(to_size(file_size));
    for (std::size_t i = 0; i < old.size(); ++i)
      old[i] = Byte{static_cast<unsigned char>(0xB0 + (i & 0xF))};
    fs->pwrite(0, old);
  }
  const ByteVec before = fs->contents();
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    o.file_buffer_size = 64;
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, sblock, P, comm.rank()));
    // Only rank 0 writes; rank 1 participates with zero data.
    const ByteVec stream = payload_stream(comm.rank(), nbytes);
    const Off mine = comm.rank() == 0 ? nbytes : 0;
    f.write_at_all(0, stream.data(), mine, dt::byte());
  });
  const ByteVec after = fs->contents();
  ASSERT_EQ(after.size(), before.size());
  for (Off i = 0; i < file_size; ++i) {
    const Off round = i / (2 * sblock);
    const Off within = i % (2 * sblock);
    if (within < sblock) {
      // Rank 0's block: overwritten.
      EXPECT_EQ(after[to_size(i)],
                iotest::payload_byte(0, round * sblock + within))
          << i;
    } else {
      // Rank 1's block: untouched.
      EXPECT_EQ(after[to_size(i)], before[to_size(i)]) << i;
    }
  }
}

TEST_P(CollectiveBehaviors, DisjointOffsetsAcrossRanks) {
  // Ranks write different step offsets of the same view (BTIO-like).
  const int P = 3;
  const Off nblock = 4, sblock = 16;
  const Off step = nblock * sblock;
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    o.file_buffer_size = 128;
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, sblock, P, comm.rank()));
    for (int s = 0; s < 3; ++s) {
      const ByteVec stream = payload_stream(comm.rank() + 10 * s, step);
      EXPECT_EQ(f.write_at_all(s * step, stream.data(), step, dt::byte()),
                step);
    }
    for (int s = 0; s < 3; ++s) {
      ByteVec back(to_size(step));
      EXPECT_EQ(f.read_at_all(s * step, back.data(), step, dt::byte()), step);
      EXPECT_EQ(back, payload_stream(comm.rank() + 10 * s, step));
    }
    // set_view is not an operation: the last op's record survives it.
    const IoOpStats before = f.last_stats();
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, sblock, P, comm.rank()));
    const IoOpStats& after = f.last_stats();
    EXPECT_EQ(after.total_s, before.total_s);
    EXPECT_EQ(after.bytes_moved, before.bytes_moved);
    EXPECT_EQ(after.data_bytes_sent, before.data_bytes_sent);
    EXPECT_EQ(after.list_build_s, before.list_build_s);
    EXPECT_EQ(after.list_mem_bytes, before.list_mem_bytes);
  });
}

TEST_P(CollectiveBehaviors, AllRanksEmptyIsANoop) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(3, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(), noncontig_filetype(4, 8, 3, comm.rank()));
    EXPECT_EQ(f.write_at_all(0, nullptr, 0, dt::byte()), 0);
    EXPECT_EQ(f.read_at_all(0, nullptr, 0, dt::byte()), 0);
  });
  EXPECT_EQ(fs->size(), 0);
}

TEST_P(CollectiveBehaviors, DifferentDisplacementsPerRank) {
  // Ranks use distinct displacements (no mergeview possible); the write
  // must still land each rank's data at disp + its view.
  const int P = 2;
  const Off region = 256;
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    o.file_buffer_size = 64;
    File f = File::open(comm, fs, o);
    const Off disp = comm.rank() * region;
    f.set_view(disp, dt::byte(), noncontig_filetype(4, 8, 2, 0));
    const ByteVec stream = payload_stream(comm.rank(), 64);
    EXPECT_EQ(f.write_at_all(0, stream.data(), 64, dt::byte()), 64);
    ByteVec back(64);
    EXPECT_EQ(f.read_at_all(0, back.data(), 64, dt::byte()), 64);
    EXPECT_EQ(back, stream);
  });
  // Rank r's blocks are at r*region + k*16.
  const ByteVec img = fs->contents();
  for (int r = 0; r < P; ++r) {
    for (Off s = 0; s < 64; ++s) {
      const Off inst = s / 32;
      const Off within = s % 32;
      const Off block = within / 8;
      const Off j = within % 8;
      const Off abs = Off{r} * region + inst * 64 + block * 16 + j;
      EXPECT_EQ(img[to_size(abs)], iotest::payload_byte(r, s))
          << "r=" << r << " s=" << s;
    }
  }
}

TEST_P(CollectiveBehaviors, PipelinedWriteIsBitIdenticalToSerial) {
  // pipeline_depth only changes scheduling, never the bytes: the same
  // partitioned write at depth 0 and depth 2 must produce identical
  // images, including RMW-preserved gap bytes.
  const int P = 3;
  const Off nblock = 11, sblock = 8;
  const Off nbytes = 2 * nblock * sblock;
  auto run = [&](int depth) {
    auto fs = pfs::MemFile::create();
    // Pre-fill so partially covered windows exercise the pre-read path.
    ByteVec old(to_size(P * nbytes), Byte{0xCD});
    fs->pwrite(0, old);
    sim::Runtime::run(P, [&](sim::Comm& comm) {
      Options o;
      o.method = GetParam();
      o.file_buffer_size = 96;  // many windows per IOP
      o.pipeline_depth = depth;
      File f = File::open(comm, fs, o);
      f.set_view(0, dt::byte(),
                 noncontig_filetype(nblock, sblock, P, comm.rank()));
      const ByteVec stream = payload_stream(comm.rank(), nbytes);
      // Ranks 0 and 1 write; rank 2 leaves its blocks as 0xCD gaps.
      const Off mine = comm.rank() < 2 ? nbytes : 0;
      EXPECT_EQ(f.write_at_all(0, stream.data(), mine, dt::byte()), mine);
      ByteVec back(to_size(nbytes), Byte{0});
      EXPECT_EQ(f.read_at_all(0, back.data(), nbytes, dt::byte()), nbytes);
      if (comm.rank() < 2) {
        EXPECT_EQ(back, stream);
      }
    });
    return fs->contents();
  };
  EXPECT_EQ(run(0), run(2));
}

TEST_P(CollectiveBehaviors, MergeviewSkipCounterTracksDensity) {
  // Dense tiling: every IOP window is provably hole-free, so the engines
  // must report elided pre-reads.  Holey tiling (the last rank abstains,
  // leaving its blocks as gaps): exactly none.  Off: never, by contract.
  const int P = 3;
  const Off nblock = 8, sblock = 8;
  const Off nbytes = nblock * sblock;
  auto run = [&](bool holey, MergeContig mode) {
    auto fs = pfs::MemFile::create();
    std::atomic<std::uint64_t> skipped{0};
    sim::Runtime::run(P, [&](sim::Comm& comm) {
      Options o;
      o.method = GetParam();
      o.file_buffer_size = 64;
      o.merge_contig = mode;
      File f = File::open(comm, fs, o);
      f.set_view(0, dt::byte(),
                 noncontig_filetype(nblock, sblock, P, comm.rank()));
      const ByteVec stream = payload_stream(comm.rank(), nbytes);
      const Off mine = holey && comm.rank() == P - 1 ? 0 : nbytes;
      EXPECT_EQ(f.write_at_all(0, stream.data(), mine, dt::byte()), mine);
      skipped.fetch_add(f.last_stats().preread_skipped_windows);
    });
    return skipped.load();
  };
  EXPECT_GT(run(false, MergeContig::Auto), 0u);
  EXPECT_EQ(run(true, MergeContig::Auto), 0u);
  EXPECT_EQ(run(false, MergeContig::Off), 0u);
}

TEST_P(CollectiveBehaviors, DenseDisjointBypassSkipsExchange) {
  // Every rank's restriction is one contiguous extent (dense filetype,
  // per-rank displacement): the collective must bypass pack+alltoall and
  // write directly, flagging merge_contig in the stats.
  const int P = 3;
  const Off n = 64;
  auto fs = pfs::MemFile::create();
  std::atomic<int> bypassed{0};
  std::atomic<Off> data_sent{0};
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.method = GetParam();
    o.file_buffer_size = 32;
    File f = File::open(comm, fs, o);
    f.set_view(comm.rank() * n, dt::byte(), dt::byte());
    const ByteVec stream = payload_stream(comm.rank(), n);
    EXPECT_EQ(f.write_at_all(0, stream.data(), n, dt::byte()), n);
    bypassed.fetch_add(f.last_stats().merge_contig_ops > 0 ? 1 : 0);
    data_sent.fetch_add(f.last_stats().data_bytes_sent);
    ByteVec back(to_size(n));
    EXPECT_EQ(f.read_at_all(0, back.data(), n, dt::byte()), n);
    EXPECT_EQ(back, stream);
  });
  EXPECT_EQ(bypassed.load(), P);
  EXPECT_EQ(data_sent.load(), 0);
  // The file image is the concatenation of the per-rank payloads.
  const ByteVec img = fs->contents();
  ASSERT_EQ(img.size(), to_size(P * n));
  for (int r = 0; r < P; ++r)
    for (Off s = 0; s < n; ++s)
      EXPECT_EQ(img[to_size(r * n + s)], iotest::payload_byte(r, s));
}

INSTANTIATE_TEST_SUITE_P(BothMethods, CollectiveBehaviors,
                         ::testing::Values(Method::ListBased,
                                           Method::Listless),
                         [](const ::testing::TestParamInfo<Method>& pinfo) {
                           return pinfo.param == Method::ListBased
                                      ? "list_based"
                                      : "listless";
                         });

// Every IOP serves an equal share of a collective: a 3-rank x 1 MiB Fig 4
// access with default Options (4 MiB file buffer) splits its 3 MiB over
// all three IOPs instead of rounding one 4 MiB domain onto IOP 0.
TEST(CollectiveStats, EveryIopMovesAnEqualShare) {
  const int P = 3;
  const Off nblock = 4096, sblock = 8;
  const Off nbytes = Off{1} << 20;
  for (const Method method : {Method::ListBased, Method::Listless}) {
    SCOPED_TRACE(method == Method::ListBased ? "list" : "listless");
    auto fs = pfs::MemFile::create();
    std::vector<Off> wrote(P), read(P);
    sim::Runtime::run(P, [&](sim::Comm& comm) {
      Options o;
      o.method = method;
      File f = File::open(comm, fs, o);
      f.set_view(0, dt::byte(),
                 noncontig_filetype(nblock, sblock, P, comm.rank()));
      ByteVec stream = payload_stream(comm.rank(), nbytes);
      EXPECT_EQ(f.write_at_all(0, stream.data(), nbytes, dt::byte()), nbytes);
      wrote[to_size(Off{comm.rank()})] = f.last_stats().file_write_bytes;
      ByteVec back(to_size(nbytes));
      EXPECT_EQ(f.read_at_all(0, back.data(), nbytes, dt::byte()), nbytes);
      read[to_size(Off{comm.rank()})] = f.last_stats().file_read_bytes;
      EXPECT_EQ(back, stream);
    });
    for (const std::vector<Off>* per_rank : {&wrote, &read}) {
      const auto [lo, hi] =
          std::minmax_element(per_rank->begin(), per_rank->end());
      EXPECT_LE(*hi - *lo, 4096) << (per_rank == &wrote ? "write" : "read");
    }
  }
}

/// MemFile that logs the offset and size of every pwrite it serves (a
/// pwritev arrives here segment by segment, in batch order).
class WriteLog final : public pfs::FileBackend {
 public:
  struct Write {
    Off offset;
    Off size;
  };
  Off size() const override { return mem_->size(); }
  void resize(Off new_size) override { mem_->resize(new_size); }
  ByteVec contents() const { return mem_->contents(); }
  std::vector<Write> writes() const {
    std::lock_guard<std::mutex> g(mu_);
    return writes_;
  }
  std::vector<Off> sizes() const {
    std::vector<Off> out;
    for (const Write& w : writes()) out.push_back(w.size);
    return out;
  }

 protected:
  Off do_pread(Off offset, ByteSpan out) override {
    return mem_->pread(offset, out);
  }
  void do_pwrite(Off offset, ConstByteSpan data) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      writes_.push_back({offset, to_off(data.size())});
    }
    mem_->pwrite(offset, data);
  }

 private:
  std::shared_ptr<pfs::MemFile> mem_ = pfs::MemFile::create();
  mutable std::mutex mu_;
  std::vector<Write> writes_;
};

/// Summed stats of a collective write, per rank folded.
struct WriteTotals {
  std::atomic<std::uint64_t> skipped{0};
  std::atomic<std::uint64_t> zerocopy{0};
  std::atomic<std::uint64_t> read_ops{0};
};

/// The two-rank, one-IOP write of `nblock` interleaved `sblock`-byte
/// blocks per rank (one filetype instance), with zero-copy set to `zc`.
void interleaved_write(Method method, Zerocopy zc, Off nblock, Off sblock,
                       const std::shared_ptr<WriteLog>& fs, WriteTotals& t) {
  const int P = 2;
  const Off nbytes = nblock * sblock;
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.method = method;
    o.zerocopy = zc;
    o.io_procs = 1;  // one IOP: one domain covering the whole access
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, sblock, P, comm.rank()));
    const ByteVec stream = payload_stream(comm.rank(), nbytes);
    EXPECT_EQ(f.write_at_all(0, stream.data(), nbytes, dt::byte()), nbytes);
    t.skipped.fetch_add(f.last_stats().preread_skipped_windows);
    t.read_ops.fetch_add(f.last_stats().file_read_ops);
    t.zerocopy.fetch_add(f.last_stats().zerocopy_windows);
  });
}

// A 4.4 MiB domain with the default 4 MiB file buffer is served in two
// equal windows, not a 4 MiB window plus a short tail, and the mergeview
// verdict computed on those windows still elides every pre-read.  The
// staged window split is what is under test, so zero-copy is off: with
// 1 KiB blocks both windows would otherwise go direct.
TEST(CollectiveStats, DomainSplitsIntoEqualWindows) {
  const int P = 2;
  const Off nblock = 2253, sblock = 1024;  // one 4.4 MiB instance
  const Off nbytes = nblock * sblock;
  const Off domain = P * nbytes;
  for (const Method method : {Method::ListBased, Method::Listless}) {
    SCOPED_TRACE(method == Method::ListBased ? "list" : "listless");
    auto fs = std::make_shared<WriteLog>();
    WriteTotals t;
    interleaved_write(method, Zerocopy::Off, nblock, sblock, fs, t);
    ASSERT_GT(domain, Options{}.file_buffer_size);
    EXPECT_EQ(fs->sizes(), (std::vector<Off>{domain / 2, domain / 2}));
    EXPECT_EQ(t.skipped.load(), 2u);
    EXPECT_EQ(t.zerocopy.load(), 0u);
    const ByteVec img = fs->contents();
    ASSERT_EQ(img.size(), to_size(domain));
    for (int r = 0; r < P; ++r)
      for (Off s = 0; s < nbytes; s += 4099)
        EXPECT_EQ(img[to_size((s / sblock * P + r) * sblock + s % sblock)],
                  iotest::payload_byte(r, s));
  }
}

// The same geometry with default options: both windows go direct.  The
// IOP hands the peers' 1 KiB blocks to storage as runs in file order,
// with no pre-read, and the image is the staged one.
TEST(CollectiveStats, DirectWindowsWriteRunsInFileOrder) {
  const Off nblock = 2253, sblock = 1024;
  const Off domain = 2 * nblock * sblock;
  for (const Method method : {Method::ListBased, Method::Listless}) {
    SCOPED_TRACE(method == Method::ListBased ? "list" : "listless");
    auto direct = std::make_shared<WriteLog>();
    auto staged = std::make_shared<WriteLog>();
    WriteTotals t, t_off;
    interleaved_write(method, Zerocopy::Auto, nblock, sblock, direct, t);
    interleaved_write(method, Zerocopy::Off, nblock, sblock, staged, t_off);
    // Each AP gathers its one slice onto the wire; the IOP adds 2 windows.
    EXPECT_EQ(t.zerocopy.load(), 2u + 2u);
    EXPECT_EQ(t.skipped.load(), 2u);
    EXPECT_EQ(t.read_ops.load(), 0u);
    const std::vector<WriteLog::Write> writes = direct->writes();
    ASSERT_FALSE(writes.empty());
    Off at = 0;
    for (const WriteLog::Write& w : writes) {
      EXPECT_EQ(w.offset, at);
      EXPECT_LE(w.size, sblock);  // one peer's block, never a window
      at = w.offset + w.size;
    }
    EXPECT_EQ(at, domain);
    EXPECT_EQ(direct->contents(), staged->contents());
  }
}

// Overlapping writers: the window declines to the staged path, where
// the later peer's bytes win, and the image matches zerocopy=off.
TEST(CollectiveStats, OverlappingWritersStayStaged) {
  const int P = 2;
  const Off nbytes = 8192, shift = 4096;  // rank r writes [r*shift, +nbytes)
  for (const Method method : {Method::ListBased, Method::Listless}) {
    SCOPED_TRACE(method == Method::ListBased ? "list" : "listless");
    auto image = [&](Zerocopy zc, std::vector<Off>& sizes) {
      auto fs = std::make_shared<WriteLog>();
      sim::Runtime::run(P, [&](sim::Comm& comm) {
        Options o;
        o.method = method;
        o.zerocopy = zc;
        o.io_procs = 1;
        File f = File::open(comm, fs, o);
        f.set_view(0, dt::byte(), dt::byte());
        const ByteVec stream = payload_stream(comm.rank(), nbytes);
        f.write_at_all(comm.rank() * shift, stream.data(), nbytes,
                       dt::byte());
        EXPECT_EQ(f.last_stats().merge_contig_ops, 0u);
      });
      sizes = fs->sizes();
      return fs->contents();
    };
    std::vector<Off> auto_sizes, off_sizes;
    const ByteVec img = image(Zerocopy::Auto, auto_sizes);
    EXPECT_EQ(img, image(Zerocopy::Off, off_sizes));
    // One staged window: one pwrite of the whole domain.
    EXPECT_EQ(auto_sizes, (std::vector<Off>{shift + nbytes}));
    EXPECT_EQ(auto_sizes, off_sizes);
    ASSERT_EQ(img.size(), to_size(shift + nbytes));
    for (Off i = 0; i < nbytes; i += 97)
      EXPECT_EQ(img[to_size(shift + i)], iotest::payload_byte(1, i));
  }
}

TEST(CollectiveStats, ListEngineShipsLists) {
  const int P = 4;
  const Off nblock = 64, sblock = 8;
  const Off nbytes = 2 * nblock * sblock;
  auto fs = pfs::MemFile::create();
  std::atomic<Off> list_bytes{0}, data_bytes{0};
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.method = Method::ListBased;
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, sblock, P, comm.rank()));
    const ByteVec stream = payload_stream(comm.rank(), nbytes);
    f.write_at_all(0, stream.data(), nbytes, dt::byte());
    list_bytes.fetch_add(f.last_stats().list_bytes_sent);
    data_bytes.fetch_add(f.last_stats().data_bytes_sent);
  });
  // Every 8-byte block costs a 16-byte tuple: the paper's 2x metadata
  // blow-up for double-sized blocks (§2.3).
  EXPECT_EQ(data_bytes.load(), P * nbytes);
  EXPECT_EQ(list_bytes.load(), 2 * P * nbytes);
}

TEST(CollectiveStats, ListlessShipsNoLists) {
  const int P = 4;
  const Off nblock = 64, sblock = 8;
  const Off nbytes = 2 * nblock * sblock;
  auto fs = pfs::MemFile::create();
  std::atomic<Off> list_bytes{0};
  std::atomic<std::uint64_t> meta_after_setview{0};
  sim::Runtime::run(P, [&](sim::Comm& comm) {
    Options o;
    o.method = Method::Listless;
    File f = File::open(comm, fs, o);
    f.set_view(0, dt::byte(),
               noncontig_filetype(nblock, sblock, P, comm.rank()));
    const ByteVec stream = payload_stream(comm.rank(), nbytes);
    comm.barrier();
    comm.reset_stats();
    f.write_at_all(0, stream.data(), nbytes, dt::byte());
    list_bytes.fetch_add(f.last_stats().list_bytes_sent);
    // Meta traffic during the op is only the tiny range exchange.
    meta_after_setview.fetch_add(comm.stats().meta_bytes_sent);
  });
  EXPECT_EQ(list_bytes.load(), 0);
  EXPECT_LE(meta_after_setview.load(),
            static_cast<std::uint64_t>(P) * P * sizeof(AccessRange));
}

TEST(CollectiveStats, PerOpTrafficIsPinned) {
  // Exact per-op message traffic of both engines, summed over ranks, on a
  // holey interleaved view split over 4 IOPs with 2 windows each.  Any
  // change to what the two-phase exchange ships shows up here.
  const int P = 4;
  const Off nblock = 64, sblock = 8;
  const Off nbytes = 2 * nblock * sblock;
  struct Traffic {
    std::uint64_t msgs, meta, data;
    Off list;
  };
  struct Case {
    Method method;
    bool write;
    Traffic want;
  };
  const Case cases[] = {
      // Ranges (allgather), ol-lists (Meta alltoall), data (alltoall).
      {Method::ListBased, true, {36, 6816, 3072, 8192}},
      {Method::ListBased, false, {36, 6816, 3072, 8192}},
      // Ranges, then data behind a 16-byte [s1][s2] header.
      {Method::Listless, true, {24, 384, 3264, 0}},
      // Ranges, [s1][s2] requests (Meta), pure-data replies.
      {Method::Listless, false, {36, 576, 3072, 0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.method == Method::ListBased ? "list"
                                                           : "listless") +
                 (c.write ? " write_at_all" : " read_at_all"));
    auto fs = pfs::MemFile::create();
    std::atomic<std::uint64_t> msgs{0}, meta{0}, data{0};
    std::atomic<Off> list{0};
    sim::Runtime::run(P, [&](sim::Comm& comm) {
      Options o;
      o.method = c.method;
      o.file_buffer_size = 512;
      File f = File::open(comm, fs, o);
      f.set_view(0, dt::byte(),
                 noncontig_filetype(nblock, sblock, P, comm.rank()));
      ByteVec stream = payload_stream(comm.rank(), nbytes);
      if (!c.write) f.write_at_all(0, stream.data(), nbytes, dt::byte());
      comm.barrier();
      comm.reset_stats();
      if (c.write)
        f.write_at_all(0, stream.data(), nbytes, dt::byte());
      else
        f.read_at_all(0, stream.data(), nbytes, dt::byte());
      msgs.fetch_add(comm.stats().msgs_sent);
      meta.fetch_add(comm.stats().meta_bytes_sent);
      data.fetch_add(comm.stats().data_bytes_sent);
      list.fetch_add(f.last_stats().list_bytes_sent);
    });
    EXPECT_EQ(msgs.load(), c.want.msgs);
    EXPECT_EQ(meta.load(), c.want.meta);
    EXPECT_EQ(data.load(), c.want.data);
    EXPECT_EQ(list.load(), c.want.list);
  }
}

}  // namespace
}  // namespace llio::mpiio
