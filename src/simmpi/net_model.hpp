// Named interconnect cost models.
//
// The network-sensitivity ablations (paper §5) and the file-server
// subsystem all sweep the same few interconnect classes; naming them once
// here keeps the backend spec's `net=<name>` and the bench tables in
// agreement.
#pragma once

#include <string>
#include <vector>

#include "simmpi/comm.hpp"

namespace llio::sim {

/// Resolve a cost model by name:
///   "shared-mem"           free (pure memory copies)
///   "fast"                 2 us latency, 10 GB/s
///   "mid"                  10 us latency, 1 GB/s
///   "slow"                 50 us latency, 100 MB/s
///   "<latency_s>:<bw_bps>" custom, e.g. "5e-6:2e9"
/// Throws Errc::InvalidArgument on anything else.
CommCostModel named_cost_model(const std::string& name);

/// The standard sweep used by the ablation benches, in slowest-last order.
/// Each entry is {name, model}; names resolve through named_cost_model().
const std::vector<std::pair<std::string, CommCostModel>>&
standard_cost_models();

}  // namespace llio::sim
