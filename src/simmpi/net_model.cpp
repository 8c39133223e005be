#include "simmpi/net_model.hpp"

#include <cstdlib>

#include "common/error.hpp"

namespace llio::sim {

CommCostModel named_cost_model(const std::string& name) {
  if (name == "shared-mem") return {};
  if (name == "fast") return {2e-6, 10e9};
  if (name == "mid") return {10e-6, 1e9};
  if (name == "slow") return {50e-6, 100e6};
  const std::size_t colon = name.find(':');
  if (colon != std::string::npos) {
    const std::string lat = name.substr(0, colon);
    const std::string bw = name.substr(colon + 1);
    char* end = nullptr;
    CommCostModel m;
    m.latency_s = std::strtod(lat.c_str(), &end);
    const bool lat_ok = !lat.empty() && end == lat.c_str() + lat.size();
    m.bandwidth_bps = std::strtod(bw.c_str(), &end);
    const bool bw_ok = !bw.empty() && end == bw.c_str() + bw.size();
    LLIO_REQUIRE(lat_ok && bw_ok && m.latency_s >= 0 && m.bandwidth_bps >= 0,
                 Errc::InvalidArgument,
                 "net model: bad <latency_s>:<bandwidth_bps> form: " + name);
    return m;
  }
  LLIO_REQUIRE(false, Errc::InvalidArgument,
               "unknown net model (want shared-mem|fast|mid|slow|"
               "<latency_s>:<bandwidth_bps>): " +
                   name);
  return {};
}

const std::vector<std::pair<std::string, CommCostModel>>&
standard_cost_models() {
  static const std::vector<std::pair<std::string, CommCostModel>> kModels = {
      {"shared-mem", named_cost_model("shared-mem")},
      {"fast", named_cost_model("fast")},
      {"mid", named_cost_model("mid")},
      {"slow", named_cost_model("slow")},
  };
  return kModels;
}

}  // namespace llio::sim
