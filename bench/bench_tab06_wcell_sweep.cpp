// Reproduces paper Table VI: sensitivity to the per-cell weight W_cell of
// the weighted load model (Eq. 7). Small W_cell balances almost purely on
// particle counts; huge W_cell swamps the particle terms and degenerates to
// cell-count balancing (re-introducing particle imbalance). The paper sees
// a shallow optimum around W_cell ~ 1000 and degradation at 10000.

#include <cstdio>
#include <map>

#include "common.hpp"

using namespace dsmcpic;
using bench::BenchOptions;

int main(int argc, char** argv) {
  Cli cli("Table VI — impact of W_cell in the weighted load model (DC+LB, "
          "Dataset 2 analogue)");
  bench::CommonFlags common(cli, "bench_tab06_wcell_sweep", "24,48,96,192,384", 40);
  const auto* w_list =
      cli.add_string("wcell", "1,10,100,1000,10000", "W_cell values");
  if (!bench::parse_or_usage(cli, argc, argv)) return 0;
  const BenchOptions opt = bench::finish_or_usage([&] { return common.finish(); });
  const std::vector<int> wcells = bench::parse_rank_list(*w_list, "wcell");

  const core::Dataset ds = core::make_dataset(2, opt.particle_scale);

  std::map<int, std::map<int, double>> times;
  for (const int w : wcells) {
    for (const int nranks : opt.ranks) {
      auto par = bench::make_parallel(ds, nranks,
                                      exchange::Strategy::kDistributed, true,
                                      opt);
      par.balance.cell_weight = static_cast<double>(w);
      times[w][nranks] = bench::run_case(ds, par, opt).total_time;
      std::fprintf(stderr, "  done W_cell=%d ranks=%d\n", w, nranks);
    }
  }

  Table t("Table VI — total execution time (virtual seconds) per W_cell");
  std::vector<std::string> header{"W_cell"};
  for (const int n : opt.ranks) header.push_back(std::to_string(n));
  t.header(header);
  for (const int w : wcells) {
    std::vector<std::string> row{std::to_string(w)};
    for (const int n : opt.ranks) row.push_back(Table::num(times[w][n], 1));
    t.row(row);
  }
  t.print();
  std::printf(
      "\nPaper shape check: small-to-moderate W_cell values sit within a few "
      "percent; the largest value degrades (particle weights swamped; paper "
      "Table VI: 2623s vs 2258s at 24 ranks for W_cell = 10000).\n");
  return 0;
}
