// Reproduces paper Figure 7: cloud bandwidth consumption vs. number of
// players, for Cloud, EdgeCloud and CloudFog/B (the paper: CloudFog/A and
// /B consume identically). Expected shape: Cloud > EdgeCloud > CloudFog/B
// with CloudFog growing slowest.
//
// One run per player count, fanned across --jobs workers; each run builds
// its own Scenario and measures all three systems, so the table is
// bit-identical at any width.
#include <array>

#include "bench_common.h"
#include "systems/bandwidth.h"

using namespace cloudfog;
using namespace cloudfog::systems;

namespace {

void run_profile(const char* title, const char* sweep_label,
                 const ScenarioParams& params,
                 const std::vector<std::size_t>& player_counts) {
  using Row = std::array<BandwidthResult, 3>;
  std::vector<std::pair<std::string, std::function<Row()>>> tasks;
  tasks.reserve(player_counts.size());
  for (std::size_t n : player_counts) {
    tasks.emplace_back("players=" + std::to_string(n), [&params, n] {
      const Scenario scenario = Scenario::build(params);
      return Row{measure_bandwidth(SystemKind::kCloud, scenario, n),
                 measure_bandwidth(SystemKind::kEdgeCloud, scenario, n),
                 measure_bandwidth(SystemKind::kCloudFogB, scenario, n)};
    });
  }

  const std::uint64_t start_us = obs::wall_now_us();
  const std::vector<Row> results = bench::executor().map(std::move(tasks));
  obs::record_sweep_wall_ms(
      sweep_label, static_cast<double>(obs::wall_now_us() - start_us) / 1000.0);

  util::Table table(title);
  table.set_header({"#players", "Cloud (Mbps)", "EdgeCloud (Mbps)",
                    "CloudFog/B (Mbps)", "fog: sn-served", "fog: update feed (Mbps)"});
  for (std::size_t i = 0; i < player_counts.size(); ++i) {
    const auto& [cloud, edge, fog] = results[i];
    table.add_row({std::to_string(player_counts[i]),
                   util::format_double(cloud.cloud_mbps, 1),
                   util::format_double(edge.cloud_mbps, 1),
                   util::format_double(fog.cloud_mbps, 1),
                   std::to_string(fog.supernode_supported),
                   util::format_double(fog.update_feed_mbps, 1)});
  }
  bench::print_table(table);
}

}  // namespace

int main(int argc, char** argv) {
  return cloudfog::bench::run_bench(argc, argv, "fig7_bandwidth", [&]() -> int {
    bench::print_header("Figure 7", "server bandwidth consumption vs #players");

    run_profile("Fig 7(a): simulation profile", "fig7_sim",
                bench::sim_profile(1),
                bench::fast_mode()
                    ? std::vector<std::size_t>{500, 1'000, 1'500, 2'500}
                    : std::vector<std::size_t>{2'000, 4'000, 6'000, 8'000,
                                               10'000});
    run_profile("Fig 7(b): PlanetLab profile", "fig7_planetlab",
                bench::planetlab_profile(1),
                bench::fast_mode()
                    ? std::vector<std::size_t>{100, 200, 400}
                    : std::vector<std::size_t>{150, 300, 450, 600, 750});
    return 0;
  });
}
