#include <gtest/gtest.h>

#include <thread>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/timer.hpp"

namespace llio {
namespace {

TEST(FloorDiv, PositiveOperands) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(8, 2), 4);
  EXPECT_EQ(floor_div(0, 5), 0);
}

TEST(FloorDiv, NegativeNumerator) {
  EXPECT_EQ(floor_div(-1, 2), -1);
  EXPECT_EQ(floor_div(-4, 2), -2);
  EXPECT_EQ(floor_div(-7, 3), -3);
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(8, 2), 4);
  EXPECT_EQ(ceil_div(1, 8), 1);
  EXPECT_EQ(ceil_div(0, 8), 0);
}

TEST(Rounding, UpAndDown) {
  EXPECT_EQ(round_down(13, 4), 12);
  EXPECT_EQ(round_up(13, 4), 16);
  EXPECT_EQ(round_down(16, 4), 16);
  EXPECT_EQ(round_up(16, 4), 16);
}

TEST(ToSize, RejectsNegative) {
  EXPECT_THROW(to_size(-1), Error);
  EXPECT_EQ(to_size(42), 42u);
}

TEST(ErrorType, CarriesCodeAndMessage) {
  try {
    throw_error(Errc::InvalidView, "bad view");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::InvalidView);
    EXPECT_NE(std::string(e.what()).find("bad view"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("InvalidView"), std::string::npos);
  }
}

TEST(ErrorType, RequireMacroPassesAndFails) {
  EXPECT_NO_THROW(LLIO_REQUIRE(true, Errc::Io, "never"));
  EXPECT_THROW(LLIO_REQUIRE(false, Errc::Io, "always"), Error);
}

TEST(ErrorType, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(Errc::Internal); ++c)
    EXPECT_STRNE(errc_name(static_cast<Errc>(c)), "Unknown");
}

TEST(Format, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(human_bytes(8), "8 B");
  EXPECT_EQ(human_bytes(2048), "2.0 KiB");
  EXPECT_EQ(human_bytes(3 << 20), "3.0 MiB");
}

TEST(Timer, WallTimerMonotone) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace llio
