// Ablation: interconnect sensitivity of the ol-list exchange.
//
// The paper's §5: "the higher the bandwidth of the used file system is in
// relation to the bandwidth of the memory system and message passing
// interconnect, the more important listless I/O is".  We rerun a Fig. 6
// collective point under interconnect cost models from shared memory to
// Fast-Ethernet-class.  Expected shape: on fast interconnects the CPU-side
// list handling dominates and the listless ratio is largest; as the
// network slows, both engines become network-bound and the ratio converges
// towards the raw traffic ratio (the ol-lists are 2x the data for 8-byte
// blocks, so listless keeps a ~2-3x edge even there).
#include "bench_common.hpp"

using namespace llio;
using namespace llio::bench;

int main() {
  const Off target = env_off("LLIO_BENCH_TARGET_KB", 128) * 1024;
  const double min_s = env_double("LLIO_BENCH_MIN_SECONDS", 0.1);
  std::printf("ablation: collective nc-nc write, Sblock=8B, Nblock=256, "
              "P=4, under interconnect cost models\n");
  Table table({"network", "list Bpp", "listless Bpp", "ratio",
               "olist bytes/op"});
  for (const auto& net : sim::standard_cost_models()) {
    NoncontigConfig cfg;
    cfg.nprocs = 4;
    cfg.nblock = 256;
    cfg.sblock = 8;
    cfg.collective = true;
    cfg.write = true;
    cfg.target_bytes_pp = target;
    cfg.min_seconds = min_s;
    cfg.net = net.second;

    cfg.method = mpiio::Method::ListBased;
    const BenchPoint list = run_noncontig(cfg);
    cfg.method = mpiio::Method::Listless;
    const BenchPoint less = run_noncontig(cfg);
    table.add_row({net.first, fmt_mbps(list.mbps_pp()),
                   fmt_mbps(less.mbps_pp()),
                   strprintf("%.1f", less.mbps_pp() /
                                         std::max(list.mbps_pp(), 1e-9)),
                   std::to_string(list.list_bytes_sent)});
  }
  table.print("network sensitivity of the list-based ol-list exchange "
              "[MB/s per process]");
  return 0;
}
