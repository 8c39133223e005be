// BTIO pattern correctness: Table 2 characterization and end-to-end
// collective writes checked against an independently computed reference
// image of the whole field.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "btio/pattern.hpp"
#include "fotf/navigate.hpp"
#include "io_test_util.hpp"

namespace llio::btio {
namespace {

TEST(BtioPattern, ClassGridSizes) {
  EXPECT_EQ(class_grid_size('S'), 12);
  EXPECT_EQ(class_grid_size('W'), 24);
  EXPECT_EQ(class_grid_size('A'), 64);
  EXPECT_EQ(class_grid_size('B'), 102);
  EXPECT_EQ(class_grid_size('C'), 162);
  EXPECT_THROW(class_grid_size('X'), Error);
}

TEST(BtioPattern, RejectsNonSquareProcessCounts) {
  EXPECT_THROW(Pattern(12, 3, 0), Error);
  EXPECT_THROW(Pattern(12, 8, 0), Error);
  EXPECT_NO_THROW(Pattern(12, 9, 0));
}

TEST(BtioPattern, CellsTileTheGrid) {
  // Across all ranks, each k-plane's cells partition the grid exactly.
  const Off n = 13;  // deliberately not divisible by q
  const int P = 9;
  for (Off k = 0; k < 3; ++k) {
    std::set<std::pair<Off, Off>> seen;
    Off volume = 0;
    for (int r = 0; r < P; ++r) {
      const Pattern pat(n, P, r);
      const CellGeom& c = pat.cells()[to_size(k)];
      EXPECT_EQ(c.ck, k);
      EXPECT_TRUE(seen.insert({c.ci, c.cj}).second)
          << "duplicate cell owner in plane " << k;
      volume += c.nx * c.ny;
    }
    EXPECT_EQ(volume, n * n) << "plane " << k;
  }
}

TEST(BtioPattern, PaperTable1DataVolumes) {
  // D_step: class B = 42 MByte, class C = 170 MByte (paper Table 1).
  const Pattern b(class_grid_size('B'), 4, 0);
  const Pattern c(class_grid_size('C'), 4, 0);
  EXPECT_NEAR(static_cast<double>(b.global_step_bytes()) / 1e6, 42.4, 0.5);
  EXPECT_NEAR(static_cast<double>(c.global_step_bytes()) / 1e6, 170.1, 0.5);
}

// The class letter is held in an int so the struct has no padding:
// gtest prints a parameter without a PrintTo overload as a dump of its
// bytes, and ctest puts that dump in the test name, so padding bytes would
// make the names differ from run to run.
struct Table2Row {
  int cls;
  int procs;
  Off nblock;
  Off sblock;
};

class Table2 : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2, MatchesPaper) {
  const Table2Row row = GetParam();
  // N_block and S_block vary slightly per rank when q does not divide N
  // (the paper: "a (nearly) constant value of S_block"); the paper rows
  // are the per-rank averages, so check the mean across ranks tightly and
  // every rank loosely.
  double nblock_sum = 0, sblock_sum = 0;
  for (int r = 0; r < row.procs; ++r) {
    const Pattern pat(class_grid_size(static_cast<char>(row.cls)), row.procs,
                      r);
    nblock_sum += static_cast<double>(pat.nblock());
    sblock_sum += pat.avg_sblock_bytes();
    EXPECT_NEAR(static_cast<double>(pat.nblock()),
                static_cast<double>(row.nblock),
                static_cast<double>(row.nblock) * 0.05);
  }
  EXPECT_NEAR(nblock_sum / row.procs, static_cast<double>(row.nblock),
              static_cast<double>(row.nblock) * 0.002);
  EXPECT_NEAR(sblock_sum / row.procs, static_cast<double>(row.sblock),
              static_cast<double>(row.sblock) * 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table2,
    ::testing::Values(Table2Row{'B', 4, 5202, 2040},
                      Table2Row{'B', 9, 3468, 1360},
                      Table2Row{'B', 16, 2601, 1020},
                      Table2Row{'B', 25, 2080, 816},
                      Table2Row{'C', 4, 13122, 3240},
                      Table2Row{'C', 9, 8748, 2160},
                      Table2Row{'C', 16, 6561, 1620},
                      Table2Row{'C', 25, 5248, 1296}),
    [](const ::testing::TestParamInfo<Table2Row>& pinfo) {
      return std::string(1, static_cast<char>(pinfo.param.cls)) + "_p" +
             std::to_string(pinfo.param.procs);
    });

TEST(BtioPattern, FiletypeIsNavigableAndSized) {
  for (int P : {4, 9, 16}) {
    for (int r = 0; r < P; ++r) {
      const Pattern pat(17, P, r);
      const dt::Type ft = pat.filetype();
      EXPECT_TRUE(fotf::file_navigable(ft)) << "P=" << P << " r=" << r;
      EXPECT_EQ(ft->size(), pat.local_doubles() * 8);
      EXPECT_EQ(ft->extent(), pat.global_step_bytes());
      // The corner cell (q-1, q-1, k) is byte-adjacent to (0, 0, k+1), so
      // ranks on the diagonal see one merged pair of lines.
      EXPECT_GE(dt::block_count(ft), pat.nblock() - 1);
      EXPECT_LE(dt::block_count(ft), pat.nblock());
    }
  }
  // Degenerate single-process case: the whole grid, one dense block.
  const Pattern solo(17, 1, 0);
  EXPECT_TRUE(solo.filetype()->is_contiguous());
  EXPECT_EQ(dt::block_count(solo.filetype()), 1);
}

TEST(BtioPattern, FiletypesPartitionTheFile) {
  const Off n = 11;
  const int P = 4;
  Off total = 0;
  for (int r = 0; r < P; ++r) total += Pattern(n, P, r).local_doubles();
  EXPECT_EQ(total, 5 * n * n * n);
}

TEST(BtioPattern, MemtypeGhostHandling) {
  const Pattern pat(10, 4, 1, /*ghost=*/2);
  const dt::Type mt = pat.memtype();
  EXPECT_EQ(mt->size(), pat.local_doubles() * 8);
  EXPECT_EQ(mt->extent(), pat.padded_doubles() * 8);
  EXPECT_FALSE(mt->is_contiguous());
  // ghost = 0 makes the memtype dense.
  const Pattern dense(10, 4, 1, /*ghost=*/0);
  EXPECT_TRUE(dense.memtype()->is_contiguous());
  EXPECT_EQ(dense.padded_doubles(), dense.local_doubles());
}

TEST(BtioPattern, FillMarksGhostsAndInterior) {
  const Pattern pat(8, 4, 2, /*ghost=*/1);
  std::vector<double> buf(to_size(pat.padded_doubles()), 0.0);
  pat.fill(buf, /*step=*/3);
  // Pack through the memtype: every packed value must be an interior
  // value (no sentinel), matching expected_value.
  const dt::Type mt = pat.memtype();
  ByteVec packed = testutil::reference_pack(as_bytes(buf.data()), 1, mt);
  ASSERT_EQ(to_off(packed.size()), pat.local_doubles() * 8);
  const double* vals = reinterpret_cast<const double*>(packed.data());
  std::size_t at = 0;
  for (const CellGeom& c : pat.cells()) {
    for (Off z = 0; z < c.nz; ++z)
      for (Off y = 0; y < c.ny; ++y)
        for (Off x = 0; x < c.nx; ++x)
          for (Off comp = 0; comp < 5; ++comp) {
            EXPECT_EQ(vals[at++],
                      Pattern::expected_value(comp, c.xs + x, c.ys + y,
                                              c.zs + z, pat.n(), 3));
          }
  }
}

struct BtioRunParams {
  mpiio::Method method;
  int nprocs;
  Off n;
  Off ghost;
};

class BtioEndToEnd : public ::testing::TestWithParam<BtioRunParams> {};

TEST_P(BtioEndToEnd, CollectiveWriteMatchesReference) {
  const BtioRunParams p = GetParam();
  const int nsteps = 2;
  auto fs = pfs::MemFile::create();

  sim::Runtime::run(p.nprocs, [&](sim::Comm& comm) {
    const Pattern pat(p.n, p.nprocs, comm.rank(), p.ghost);
    mpiio::Options o;
    o.method = p.method;
    o.file_buffer_size = 1 << 16;
    mpiio::File f = mpiio::File::open(comm, fs, o);
    f.set_view(0, dt::double_(), pat.filetype());
    std::vector<double> buf(to_size(pat.padded_doubles()));
    const Off etypes_per_step = pat.local_doubles();
    for (int s = 0; s < nsteps; ++s) {
      pat.fill(buf, s);
      EXPECT_EQ(f.write_at_all(s * etypes_per_step, buf.data(), 1,
                               pat.memtype()),
                pat.local_doubles() * 8);
    }
    // Collective read-back of step 0 into a fresh buffer.
    std::vector<double> back(to_size(pat.padded_doubles()), -1.0);
    EXPECT_EQ(f.read_at_all(0, back.data(), 1, pat.memtype()),
              pat.local_doubles() * 8);
    std::vector<double> want(to_size(pat.padded_doubles()));
    pat.fill(want, 0);
    // Interior values equal; ghosts in `back` keep the -1 fill.
    const ByteVec got_stream =
        testutil::reference_pack(as_bytes(back.data()), 1, pat.memtype());
    const ByteVec want_stream =
        testutil::reference_pack(as_bytes(want.data()), 1, pat.memtype());
    EXPECT_EQ(got_stream, want_stream);
  });

  // The file must equal the reference field for every step.
  const Off step_doubles = 5 * p.n * p.n * p.n;
  ASSERT_EQ(fs->size(), nsteps * step_doubles * 8);
  const ByteVec img = fs->contents();
  std::vector<double> ref(to_size(step_doubles));
  for (int s = 0; s < nsteps; ++s) {
    Pattern::reference_step(ref, p.n, s);
    const double* got = reinterpret_cast<const double*>(img.data()) +
                        Off{s} * step_doubles;
    for (Off i = 0; i < step_doubles; ++i)
      ASSERT_EQ(got[to_size(i)], ref[to_size(i)]) << "step " << s << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallGrids, BtioEndToEnd,
    ::testing::Values(BtioRunParams{mpiio::Method::Listless, 4, 12, 2},
                      BtioRunParams{mpiio::Method::ListBased, 4, 12, 2},
                      BtioRunParams{mpiio::Method::Listless, 9, 13, 1},
                      BtioRunParams{mpiio::Method::ListBased, 9, 13, 1},
                      BtioRunParams{mpiio::Method::Listless, 1, 8, 0},
                      BtioRunParams{mpiio::Method::Listless, 16, 16, 2}),
    [](const ::testing::TestParamInfo<BtioRunParams>& pinfo) {
      const BtioRunParams& p = pinfo.param;
      return std::string(p.method == mpiio::Method::ListBased ? "list"
                                                              : "listless") +
             "_p" + std::to_string(p.nprocs) + "_n" + std::to_string(p.n) +
             "_g" + std::to_string(p.ghost);
    });

}  // namespace
}  // namespace llio::btio
