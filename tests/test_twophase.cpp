// Unit tests for the two-phase helpers (file domains, access-range
// exchange), the View machinery, and the OlWalker baseline primitive.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "io_test_util.hpp"
#include "listio/ol_walker.hpp"
#include "mpiio/twophase.hpp"
#include "mpiio/view.hpp"

namespace llio::mpiio {
namespace {

TEST(PartitionDomains, SplitsEvenlyWithAlignment) {
  GlobalRange g{0, 1000, true};
  const auto doms = partition_domains(g, 4, 64);
  ASSERT_EQ(doms.size(), 4u);
  // ceil(1000/4)=250 rounded up to 64 -> 256-byte chunks.
  EXPECT_EQ(doms[0].lo, 0);
  EXPECT_EQ(doms[0].hi, 256);
  EXPECT_EQ(doms[1].lo, 256);
  EXPECT_EQ(doms[2].hi, 768);
  EXPECT_EQ(doms[3].hi, 1000);  // clamped to the global end
  // Domains tile [lo, hi) exactly.
  Off at = g.lo;
  for (const Domain& d : doms) {
    EXPECT_EQ(d.lo, at);
    EXPECT_GE(d.hi, d.lo);
    at = d.hi;
  }
  EXPECT_EQ(at, g.hi);
}

TEST(PartitionDomains, TrailingDomainsMayBeEmpty) {
  GlobalRange g{100, 164, true};  // 64 bytes
  const auto doms = partition_domains(g, 4, 64);
  EXPECT_EQ(doms[0].lo, 100);
  EXPECT_EQ(doms[0].hi, 164);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_TRUE(doms[i].empty());
}

TEST(PartitionDomains, EmptyGlobalRange) {
  const auto doms = partition_domains(GlobalRange{}, 3, 64);
  for (const Domain& d : doms) EXPECT_TRUE(d.empty());
}

TEST(PartitionDomains, SingleIop) {
  GlobalRange g{7, 7777, true};
  const auto doms = partition_domains(g, 1, 4096);
  ASSERT_EQ(doms.size(), 1u);
  EXPECT_EQ(doms[0].lo, 7);
  EXPECT_EQ(doms[0].hi, 7777);
}

TEST(PartitionDomains, RejectsBadArguments) {
  EXPECT_THROW(partition_domains(GlobalRange{}, 0, 64), Error);
  EXPECT_THROW(partition_domains(GlobalRange{}, 2, 0), Error);
}

// Regression: the chunk computation used to overflow Off for ranges near
// the type maximum (round_up(ceil_div(total, niops), align) wrapped
// negative), which produced empty *leading* domains and dropped coverage
// of the tail of the range.
TEST(PartitionDomains, HugeRangeNearOffMaxDoesNotOverflow) {
  const Off max = std::numeric_limits<Off>::max();
  GlobalRange g{0, max - 1, true};
  const auto doms = partition_domains(g, 3, 1 << 20);
  ASSERT_EQ(doms.size(), 3u);
  Off at = g.lo;
  for (const Domain& d : doms) {
    if (d.empty()) continue;
    EXPECT_EQ(d.lo, at);
    at = d.hi;
  }
  EXPECT_EQ(at, g.hi);  // full coverage, nothing dropped
}

// Invariant the IOP loops rely on: every empty domain trails every
// non-empty one, across alignments larger and smaller than the range.
TEST(PartitionDomains, EmptyDomainsOnlyTrail) {
  const Off aligns[] = {1, 64, 1000, 4096, Off{1} << 40};
  const Off totals[] = {1, 63, 64, 65, 1000, (Off{1} << 41) + 17};
  for (const Off align : aligns) {
    for (const Off total : totals) {
      for (const int niops : {1, 2, 3, 7}) {
        GlobalRange g{100, 100 + total, true};
        const auto doms = partition_domains(g, niops, align);
        bool seen_empty = false;
        Off at = g.lo;
        for (const Domain& d : doms) {
          if (d.empty()) {
            seen_empty = true;
            continue;
          }
          EXPECT_FALSE(seen_empty)
              << "empty domain precedes a non-empty one: total=" << total
              << " align=" << align << " niops=" << niops;
          EXPECT_EQ(d.lo, at);
          at = d.hi;
        }
        EXPECT_EQ(at, g.hi);
      }
    }
  }
}

// Every IOP serves an equal share: over the same grid, non-empty domains
// differ in length by at most one alignment unit (the clipped last unit
// never leaves a short domain behind a long one).
TEST(PartitionDomains, NonEmptySharesDifferByAtMostOneAlign) {
  const Off aligns[] = {1, 64, 1000, 4096, Off{1} << 40};
  const Off totals[] = {1, 63, 64, 65, 1000, (Off{1} << 41) + 17};
  for (const Off align : aligns) {
    for (const Off total : totals) {
      for (const int niops : {1, 2, 3, 7}) {
        GlobalRange g{100, 100 + total, true};
        Off shortest = total;
        Off longest = 0;
        for (const Domain& d : partition_domains(g, niops, align)) {
          if (d.empty()) continue;
          shortest = std::min(shortest, d.hi - d.lo);
          longest = std::max(longest, d.hi - d.lo);
        }
        EXPECT_LE(longest - shortest, align)
            << "total=" << total << " align=" << align
            << " niops=" << niops;
      }
    }
  }
}

TEST(GlobalRangeOf, SkipsEmptyParticipants) {
  std::vector<AccessRange> rs = {
      {0, 0, 0, 0},          // empty
      {0, 10, 100, 200},     //
      {0, 5, 50, 120},       //
      {0, 0, 999, 99999},    // empty: ignored despite wild values
  };
  const GlobalRange g = global_range(rs);
  EXPECT_TRUE(g.any);
  EXPECT_EQ(g.lo, 50);
  EXPECT_EQ(g.hi, 200);
  EXPECT_FALSE(global_range({}).any);
}

TEST(EffectiveIops, ClampsToCommSize) {
  EXPECT_EQ(effective_iops(0, 8), 8);
  EXPECT_EQ(effective_iops(3, 8), 3);
  EXPECT_EQ(effective_iops(12, 8), 8);
  EXPECT_EQ(effective_iops(-1, 8), 8);
}

TEST(ExchangeRanges, AllGatherRoundTrip) {
  sim::Runtime::run(3, [&](sim::Comm& comm) {
    AccessRange mine{comm.rank() * 10, comm.rank() + 1, comm.rank() * 100,
                     comm.rank() * 100 + 50};
    const auto all = exchange_ranges(comm, mine);
    ASSERT_EQ(all.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(all[to_size(Off{r})].stream_lo, r * 10);
      EXPECT_EQ(all[to_size(Off{r})].nbytes, r + 1);
      EXPECT_EQ(all[to_size(Off{r})].abs_lo, r * 100);
    }
  });
}

TEST(ViewChecks, DenseDetection) {
  EXPECT_TRUE((View{0, dt::byte(), dt::byte()}.dense()));
  EXPECT_TRUE(
      (View{0, dt::double_(), dt::contiguous(8, dt::double_())}.dense()));
  EXPECT_FALSE(
      (View{0, dt::byte(), iotest::noncontig_filetype(4, 8, 2, 0)}.dense()));
}

TEST(ViewChecks, ValidationRules) {
  // Valid.
  EXPECT_NO_THROW(validate_view(
      View{16, dt::double_(), iotest::noncontig_filetype(4, 8, 2, 1)}));
  // Negative displacement.
  EXPECT_THROW(validate_view(View{-1, dt::byte(), dt::byte()}), Error);
  // Null types.
  EXPECT_THROW(validate_view(View{0, nullptr, dt::byte()}), Error);
  EXPECT_THROW(validate_view(View{0, dt::byte(), nullptr}), Error);
  // Non-contiguous etype.
  EXPECT_THROW(validate_view(View{0, dt::hvector(2, 1, 3, dt::byte()),
                                  dt::contiguous(6, dt::byte())}),
               Error);
  // Zero-size filetype.
  EXPECT_THROW(validate_view(View{0, dt::byte(), dt::contiguous(0, dt::byte())}),
               Error);
  // etype does not divide the filetype.
  EXPECT_THROW(
      validate_view(View{0, dt::double_(), dt::contiguous(10, dt::byte())}),
      Error);
}

TEST(OlWalkerUnit, SequentialConsumptionWrapsInstances) {
  const dt::Type t = iotest::noncontig_filetype(3, 4, 2, 0);  // 3x4B, str 8
  const dt::OlList list = dt::flatten(t);
  listio::OlWalker w(&list, t->extent());
  EXPECT_EQ(w.unit_size(), 12);
  w.position(0);
  // Blocks at 0, 8, 16; instance extent 24.
  EXPECT_EQ(w.run_mem(), 0);
  EXPECT_EQ(w.run_len(), 4);
  w.consume(4);
  EXPECT_EQ(w.run_mem(), 8);
  w.consume(4);
  w.consume(4);  // end of instance 0
  EXPECT_EQ(w.run_mem(), 24);  // instance 1, block 0
  EXPECT_EQ(w.stream(), 12);
}

TEST(OlWalkerUnit, PositionAtBoundaries) {
  const dt::Type t = iotest::noncontig_filetype(3, 4, 2, 1);  // disp 4
  const dt::OlList list = dt::flatten(t);
  listio::OlWalker w(&list, t->extent());
  w.position(4);  // start of the second block
  EXPECT_EQ(w.run_mem(), 12);
  w.position(12);  // start of instance 1
  EXPECT_EQ(w.run_mem(), 24 + 4);
  w.position(11);
  EXPECT_EQ(w.run_mem(), 20 + 3);
}

TEST(OlWalkerUnit, BytesBelowMatchesManualCount) {
  const dt::Type t = iotest::noncontig_filetype(2, 8, 2, 0);  // 8B @ 0,16
  const dt::OlList list = dt::flatten(t);
  listio::OlWalker w(&list, t->extent());
  EXPECT_EQ(w.bytes_below(0), 0);
  EXPECT_EQ(w.bytes_below(8), 8);
  EXPECT_EQ(w.bytes_below(12), 8);   // in the gap
  EXPECT_EQ(w.bytes_below(20), 12);  // inside block 1
  EXPECT_EQ(w.bytes_below(32), 16);  // end of instance 0
  EXPECT_EQ(w.bytes_below(36), 20);  // into instance 1
}

TEST(OlWalkerUnit, RejectsMisuse) {
  const dt::Type t = iotest::noncontig_filetype(2, 8, 2, 0);
  const dt::OlList list = dt::flatten(t);
  listio::OlWalker w(&list, t->extent());
  EXPECT_THROW(w.position(-1), Error);
  w.position(0);
  EXPECT_THROW(w.consume(9), Error);  // beyond the 8-byte block
  const dt::OlList empty;
  EXPECT_THROW(listio::OlWalker(&empty, 8), Error);
}

TEST(CumulativeStats, AccumulatesAcrossOps) {
  auto fs = pfs::MemFile::create();
  sim::Runtime::run(1, [&](sim::Comm& comm) {
    File f = File::open(comm, fs, Options{});
    ByteVec buf(100, Byte{1});
    f.write_at(0, buf.data(), 100, dt::byte());
    f.write_at(100, buf.data(), 100, dt::byte());
    f.read_at(0, buf.data(), 50, dt::byte());
    EXPECT_EQ(f.last_stats().bytes_moved, 50);
    EXPECT_EQ(f.cumulative_stats().bytes_moved, 250);
    EXPECT_EQ(f.cumulative_stats().file_write_bytes, 200);
    EXPECT_GE(f.cumulative_stats().total_s, f.last_stats().total_s);
  });
}

}  // namespace
}  // namespace llio::mpiio
