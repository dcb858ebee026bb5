// Aggregate claims derived from Tables 2/3 (Sec. 4 of the paper):
//   * minpower_t_decomp vs conventional (I↔II, IV↔V):
//       paper: ~3.7% average power improvement, ~1.4% area cost
//   * bh_minpower_t_decomp vs minpower (II↔III, V↔VI):
//       paper: ~1.6% performance and ~1.6% power improvement
//   * pd-map vs ad-map (I↔IV, II↔V, III↔VI):
//       paper: ~22% average power improvement, ~12.4% area increase,
//       ~1.1% performance improvement

#include "bench_util.hpp"
#include "flow/session.hpp"
#include "util/stats.hpp"

using namespace minpower;
using namespace minpower::bench;

namespace {

struct Agg {
  RunningStats power;
  RunningStats area;
  RunningStats delay;
  void add(const FlowResult& base, const FlowResult& alt) {
    power.add(percent_change(base.power_uw, alt.power_uw));
    area.add(percent_change(base.area, alt.area));
    delay.add(percent_change(base.delay, alt.delay));
  }
  void print(const char* label) const {
    std::printf("%-34s power %+6.1f%%  area %+6.1f%%  delay %+6.1f%%\n",
                label, power.mean(), area.mean(), delay.mean());
  }
};

}  // namespace

int main() {
  const Library& lib = standard_library();
  Agg minpower_vs_conv;
  Agg bh_vs_minpower;
  Agg pd_vs_ad;

  for (const Network& net : prepared_suite()) {
    const auto rs = FlowSession(lib).run_circuit(net);
    minpower_vs_conv.add(rs[0], rs[1]);  // I → II
    minpower_vs_conv.add(rs[3], rs[4]);  // IV → V
    bh_vs_minpower.add(rs[1], rs[2]);    // II → III
    bh_vs_minpower.add(rs[4], rs[5]);    // V → VI
    pd_vs_ad.add(rs[0], rs[3]);          // I → IV
    pd_vs_ad.add(rs[1], rs[4]);          // II → V
    pd_vs_ad.add(rs[2], rs[5]);          // III → VI
  }

  std::printf("Aggregate method comparisons over the 17-circuit suite "
              "(average %% change)\n");
  print_rule();
  minpower_vs_conv.print("minpower vs conventional decomp");
  bh_vs_minpower.print("bh-minpower vs minpower decomp");
  pd_vs_ad.print("pd-map vs ad-map");
  print_rule();
  std::printf("paper: minpower decomp ~-3.7%% power; bh ~-1.6%% power/delay; "
              "pd-map ~-22%% power, +12.4%% area, -1.1%% delay\n");
  return 0;
}
