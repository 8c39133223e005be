// darray (MPI_Type_create_darray) correctness: ownership of every global
// element is checked against a brute-force HPF distribution predicate,
// and the per-rank types must partition the array exactly.
#include <gtest/gtest.h>

#include <numeric>

#include "dtype/flatten.hpp"
#include "test_util.hpp"

namespace llio::dt {
namespace {

/// Brute force: does `rank-coordinate c` own global index g in one
/// distributed dimension?
bool owns_dim(Off g, Distrib dist, Off darg, Off p, Off c, Off gsize) {
  switch (dist) {
    case Distrib::None:
      return true;
    case Distrib::Block: {
      const Off b = darg == kDfltDarg ? ceil_div(gsize, p) : darg;
      return g / b == c;
    }
    case Distrib::Cyclic: {
      const Off b = darg == kDfltDarg ? 1 : darg;
      return (g / b) % p == c;
    }
  }
  return false;
}

/// Element byte offsets a rank's darray selects, via flatten.
std::vector<Off> selected_offsets(const Type& t) {
  std::vector<Off> out;
  const OlList list = flatten(t, false);
  for (const OlTuple& tp : list.tuples())
    for (Off j = 0; j < tp.len; ++j) out.push_back(tp.off + j);
  return out;
}

/// Brute-force expected byte offsets for a rank (etype = byte).
std::vector<Off> expected_offsets(int /*nprocs*/, int rank,
                                  std::span<const Off> gsizes,
                                  std::span<const Distrib> dist,
                                  std::span<const Off> dargs,
                                  std::span<const Off> psizes, Order order) {
  const std::size_t nd = gsizes.size();
  std::vector<Off> coords(nd);
  int tmp = rank;
  for (std::size_t i = nd; i-- > 0;) {
    coords[i] = tmp % static_cast<int>(psizes[i]);
    tmp /= static_cast<int>(psizes[i]);
  }
  // Global linear offset: for Fortran order dim 0 is fastest; for C order
  // the last dim is fastest.
  Off total = 1;
  for (std::size_t d = 0; d < nd; ++d) total *= gsizes[d];
  std::vector<Off> out;
  std::vector<Off> idx(nd, 0);
  for (Off lin = 0; lin < total; ++lin) {
    // Decompose lin into per-dim indices in storage order.
    Off rem = lin;
    if (order == Order::Fortran) {
      for (std::size_t d = 0; d < nd; ++d) {
        idx[d] = rem % gsizes[d];
        rem /= gsizes[d];
      }
    } else {
      for (std::size_t d = nd; d-- > 0;) {
        idx[d] = rem % gsizes[d];
        rem /= gsizes[d];
      }
    }
    bool mine = true;
    for (std::size_t d = 0; d < nd && mine; ++d)
      mine = owns_dim(idx[d], dist[d], dargs[d], psizes[d], coords[d],
                      gsizes[d]);
    if (mine) out.push_back(lin);
  }
  return out;
}

void check_darray(int nprocs, std::span<const Off> gsizes,
                  std::span<const Distrib> dist, std::span<const Off> dargs,
                  std::span<const Off> psizes, Order order) {
  Off total_selected = 0;
  Off total = 1;
  for (Off g : gsizes) total *= g;
  for (int r = 0; r < nprocs; ++r) {
    const Type t =
        darray(nprocs, r, gsizes, dist, dargs, psizes, order, byte());
    EXPECT_EQ(t->extent(), total) << "rank " << r;
    EXPECT_EQ(t->lb(), 0);
    const auto got = selected_offsets(t);
    const auto want =
        expected_offsets(nprocs, r, gsizes, dist, dargs, psizes, order);
    EXPECT_EQ(got, want) << "rank " << r;
    total_selected += t->size();
  }
  EXPECT_EQ(total_selected, total);  // exact partition
}

TEST(Darray, Block1D) {
  const Off gs[] = {10};
  const Distrib d[] = {Distrib::Block};
  const Off da[] = {kDfltDarg};
  const Off ps[] = {3};
  check_darray(3, gs, d, da, ps, Order::Fortran);
}

TEST(Darray, Cyclic1D) {
  const Off gs[] = {11};
  const Distrib d[] = {Distrib::Cyclic};
  const Off da[] = {kDfltDarg};
  const Off ps[] = {3};
  check_darray(3, gs, d, da, ps, Order::Fortran);
}

TEST(Darray, BlockCyclic1D) {
  const Off gs[] = {23};
  const Distrib d[] = {Distrib::Cyclic};
  const Off da[] = {4};
  const Off ps[] = {3};
  check_darray(3, gs, d, da, ps, Order::Fortran);
}

TEST(Darray, Block2DFortran) {
  const Off gs[] = {8, 6};
  const Distrib d[] = {Distrib::Block, Distrib::Block};
  const Off da[] = {kDfltDarg, kDfltDarg};
  const Off ps[] = {2, 3};
  check_darray(6, gs, d, da, ps, Order::Fortran);
}

TEST(Darray, Block2DC) {
  const Off gs[] = {8, 6};
  const Distrib d[] = {Distrib::Block, Distrib::Block};
  const Off da[] = {kDfltDarg, kDfltDarg};
  const Off ps[] = {2, 3};
  check_darray(6, gs, d, da, ps, Order::C);
}

TEST(Darray, MixedDistributions3D) {
  const Off gs[] = {5, 7, 4};
  const Distrib d[] = {Distrib::Cyclic, Distrib::None, Distrib::Block};
  const Off da[] = {2, kDfltDarg, kDfltDarg};
  const Off ps[] = {2, 1, 2};
  check_darray(4, gs, d, da, ps, Order::Fortran);
  check_darray(4, gs, d, da, ps, Order::C);
}

TEST(Darray, CyclicWithPartialTailBlock) {
  // gsize chosen so the last block of the deal is partial.
  const Off gs[] = {10};
  const Distrib d[] = {Distrib::Cyclic};
  const Off da[] = {3};
  const Off ps[] = {2};
  check_darray(2, gs, d, da, ps, Order::Fortran);
}

TEST(Darray, RankBeyondDataIsEmpty) {
  // 4 processes, 2 elements: ranks 2 and 3 own nothing.
  const Off gs[] = {2};
  const Distrib d[] = {Distrib::Block};
  const Off da[] = {kDfltDarg};
  const Off ps[] = {4};
  for (int r = 0; r < 4; ++r) {
    const Type t = darray(4, r, gs, d, da, ps, Order::Fortran, byte());
    EXPECT_EQ(t->size(), r < 2 ? 1 : 0) << "rank " << r;
    EXPECT_EQ(t->extent(), 2);
  }
}

TEST(Darray, BlockMatchesSubarray) {
  // Pure block distribution == a subarray selection.
  const Off gs[] = {9, 8};
  const Distrib d[] = {Distrib::Block, Distrib::Block};
  const Off da[] = {kDfltDarg, kDfltDarg};
  const Off ps[] = {3, 2};
  for (int r = 0; r < 6; ++r) {
    const Type da_t = darray(6, r, gs, d, da, ps, Order::Fortran, double_());
    // coords, row-major: r = c0*2 + c1.
    const Off c0 = r / 2, c1 = r % 2;
    const Off b0 = 3, b1 = 4;
    const Off sub[] = {std::min<Off>(b0, gs[0] - b0 * c0),
                       std::min<Off>(b1, gs[1] - b1 * c1)};
    const Off starts[] = {b0 * c0, b1 * c1};
    const Type sa_t = subarray(gs, sub, starts, Order::Fortran, double_());
    EXPECT_EQ(flatten(da_t, false).tuples(), flatten(sa_t, false).tuples())
        << "rank " << r;
  }
}

TEST(Darray, UsableAsFileview) {
  // A column-cyclic matrix written via a darray fileview round-trips.
  const int P = 3;
  auto check = [&](Off m, Off n, Order order) {
    for (int r = 0; r < P; ++r) {
      const Off gs_f[] = {m, n};
      const Distrib d[] = {Distrib::None, Distrib::Cyclic};
      const Off da[] = {kDfltDarg, 2};
      const Off ps[] = {1, P};
      const Type t = darray(P, r, gs_f, d, da, ps, order, double_());
      EXPECT_TRUE(t->is_monotone()) << "rank " << r;
      // n is a multiple of 2P, so every rank owns n / P whole columns.
      EXPECT_EQ(t->size(), m * (n / P) * 8) << "rank " << r;
    }
  };
  check(16, 12, Order::Fortran);
  check(8, 6, Order::Fortran);
}

TEST(Darray, Validation) {
  const Off gs[] = {8};
  const Distrib d[] = {Distrib::Block};
  const Off da[] = {kDfltDarg};
  const Off ps[] = {2};
  EXPECT_THROW(darray(3, 0, gs, d, da, ps, Order::C, byte()), Error);  // grid
  EXPECT_THROW(darray(2, 2, gs, d, da, ps, Order::C, byte()), Error);  // rank
  const Off bad_da[] = {2};  // 2*2 < 8
  EXPECT_THROW(darray(2, 0, gs, d, bad_da, ps, Order::C, byte()), Error);
  const Distrib none[] = {Distrib::None};
  EXPECT_THROW(darray(2, 0, gs, none, da, ps, Order::C, byte()), Error);
}

TEST(Darray, RandomizedAgainstBruteForce) {
  testutil::Rng rng(4242);
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t nd = static_cast<std::size_t>(testutil::rnd(rng, 1, 3));
    std::vector<Off> gs(nd), da(nd), ps(nd);
    std::vector<Distrib> d(nd);
    int nprocs = 1;
    for (std::size_t i = 0; i < nd; ++i) {
      gs[i] = testutil::rnd(rng, 2, 9);
      switch (testutil::rnd(rng, 0, 2)) {
        case 0:
          d[i] = Distrib::None;
          ps[i] = 1;
          da[i] = kDfltDarg;
          break;
        case 1:
          d[i] = Distrib::Block;
          ps[i] = testutil::rnd(rng, 1, 3);
          da[i] = kDfltDarg;
          break;
        default:
          d[i] = Distrib::Cyclic;
          ps[i] = testutil::rnd(rng, 1, 3);
          da[i] = testutil::rnd(rng, 0, 1) ? kDfltDarg
                                           : testutil::rnd(rng, 1, 3);
          break;
      }
      nprocs *= static_cast<int>(ps[i]);
    }
    const Order order = testutil::rnd(rng, 0, 1) ? Order::C : Order::Fortran;
    check_darray(nprocs, gs, d, da, ps, order);
  }
}

}  // namespace
}  // namespace llio::dt
