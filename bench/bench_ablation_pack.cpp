// Ablation: the serial flattening-on-the-fly pack/unpack paths.
//
// Sweeps block-size x plan on/off over a dense strided window (hvector of
// S_block-byte segments at stride 2*S_block — the shape every collective
// window reduces to) and measures pack/unpack throughput directly,
// without any file or exchange: this isolates the pack stage.
//
//   plan=off   the cursor walk (fotf::ff_pack / ff_unpack), the path a
//              type takes when PackPlan::compile declines
//   plan=on    PackPlan replay (flat run table, no tree walk), the path
//              of every cached fileview
//
// Every row packs on one thread (`threads` is always 1 in the json rows,
// which keeps them comparable with older baselines).  A dense memcpy row
// bounds what any pack path could reach.
//
// Output: aligned table + csv: lines (bench_common convention) + json:
// lines, one object per data point, schema announced in a json-schema:
// line.  --quick shrinks the payload and the sweep for the CI perf-smoke
// job; the committed baseline lives in BENCH_pack.json.
//
// Scale knobs: LLIO_BENCH_TARGET_KB (payload per op, default 32768),
// LLIO_BENCH_MIN_SECONDS (default 0.15).
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "fotf/pack.hpp"
#include "fotf/plan.hpp"

using namespace llio;
using bench::fmt_mbps;

namespace {

double measure_mbps(const std::function<void()>& op, Off bytes_per_op,
                    double min_seconds) {
  op();  // warm-up
  int repeats = 1;
  {
    WallTimer t;
    op();
    const double once = t.seconds();
    repeats = once >= min_seconds
                  ? 1
                  : static_cast<int>(min_seconds / std::max(once, 1e-6)) + 1;
    repeats = std::min(repeats, 10000);
  }
  WallTimer t;
  for (int i = 0; i < repeats; ++i) op();
  const double total = t.seconds();
  return total > 0 ? static_cast<double>(bytes_per_op) * repeats / total /
                         (1024.0 * 1024.0)
                   : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") quick = true;

  const Off payload =
      bench::env_off("LLIO_BENCH_TARGET_KB", quick ? 4096 : 32768) * 1024;
  const double min_seconds =
      bench::env_double("LLIO_BENCH_MIN_SECONDS", quick ? 0.05 : 0.15);

  const std::vector<Off> sblocks =
      quick ? std::vector<Off>{512, 4096, 65536}
            : std::vector<Off>{64, 512, 4096, 65536};

  bench::Table table({"sblock", "plan", "pack MB/s", "unpack MB/s"});
  std::printf(
      "json-schema:{\"bench\":\"string\",\"sblock\":\"int\","
      "\"threads\":\"int\",\"plan\":\"string\",\"pack_mbps\":\"number\","
      "\"unpack_mbps\":\"number\"}\n");
  std::string json;

  // Dense memcpy bound (same bytes, no gather).
  {
    ByteVec src(to_size(payload), Byte{0x5a});
    ByteVec dst(to_size(payload));
    const double mbps = measure_mbps(
        [&] { std::memcpy(dst.data(), src.data(), src.size()); }, payload,
        min_seconds);
    table.add_row({"-", "memcpy", fmt_mbps(mbps), fmt_mbps(mbps)});
    json += strprintf(
        "json:{\"bench\":\"ablation_pack\",\"sblock\":0,\"threads\":0,"
        "\"plan\":\"memcpy\",\"pack_mbps\":%.3f,\"unpack_mbps\":%.3f}\n",
        mbps, mbps);
  }

  for (const Off sblock : sblocks) {
    const Off nblock = payload / sblock;
    const dt::Type t = dt::hvector(nblock, sblock, 2 * sblock, dt::byte());
    ByteVec typed(to_size(t->extent()), Byte{0x42});
    ByteVec stream(to_size(payload));
    const auto plan_compiled = fotf::PackPlan::compile(t);

    for (const bool replay : {false, true}) {
      const fotf::PackPlan* plan = replay ? plan_compiled.get() : nullptr;
      const double pack_mbps = measure_mbps(
          [&] {
            if (plan != nullptr)
              plan->pack(typed.data(), 0, 1, 0, stream.data(), payload);
            else
              fotf::ff_pack(typed.data(), 1, t, 0, stream.data(), payload);
          },
          payload, min_seconds);
      const double unpack_mbps = measure_mbps(
          [&] {
            if (plan != nullptr)
              plan->unpack(typed.data(), 0, 1, 0, stream.data(), payload);
            else
              fotf::ff_unpack(stream.data(), payload, typed.data(), 1, t, 0);
          },
          payload, min_seconds);
      table.add_row({strprintf("%lld", (long long)sblock),
                     replay ? "on" : "off", fmt_mbps(pack_mbps),
                     fmt_mbps(unpack_mbps)});
      json += strprintf(
          "json:{\"bench\":\"ablation_pack\",\"sblock\":%lld,"
          "\"threads\":1,\"plan\":\"%s\",\"pack_mbps\":%.3f,"
          "\"unpack_mbps\":%.3f}\n",
          (long long)sblock, replay ? "on" : "off", pack_mbps, unpack_mbps);
    }
  }

  table.print(strprintf("ablation: serial fotf pack (payload %lld KiB%s)",
                        (long long)(payload / 1024), quick ? ", quick" : ""));
  std::printf("%s", json.c_str());
  return 0;
}
