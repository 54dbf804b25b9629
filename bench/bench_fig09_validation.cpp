// Reproduces paper Fig. 8/9: validation of the parallel implementation
// against the serial one on Dataset 1. Prints the H number density along
// the cylinder's central axis at four time points for both runs (Fig. 9a),
// the mean relative errors (Fig. 9b; paper: < 2.97%), and the relative
// standard deviation over repeated runs (paper: < 5%).

#include <cstdio>
#include <fstream>
#include <utility>

#include "common.hpp"
#include "dsmc/sampling.hpp"
#include "support/stats.hpp"

using namespace dsmcpic;
using bench::BenchOptions;

namespace {

struct ProfileSeries {
  std::vector<std::vector<double>> at_time;  // [time point][axis point]
};

ProfileSeries run_profiles(const core::Dataset& ds, int nranks,
                           const std::vector<int>& sample_steps, int npoints,
                           std::uint64_t seed) {
  core::SolverConfig cfg = ds.config;
  cfg.seed = seed;
  core::ParallelConfig par;
  par.nranks = nranks;
  par.balance.enabled = nranks > 1;
  par.balance.period = 10;
  core::CoupledSolver solver(cfg, par);
  ProfileSeries out;
  int done = 0;
  for (const int target : sample_steps) {
    solver.run(target - done);
    done = target;
    const auto density = solver.sampler().number_density(dsmc::kSpeciesH);
    out.at_time.push_back(dsmc::axis_profile(
        solver.coarse_grid(), density, cfg.nozzle.length, npoints));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("Fig. 8/9 — serial vs parallel validation on Dataset 1");
  bench::CommonFlags common(cli, "bench_fig09_validation", "4", 80);
  const auto* points = cli.add_int("points", 12, "axis sample points");
  const auto* repeats = cli.add_int("repeats", 3, "repeated runs for RSD");
  if (!bench::parse_or_usage(cli, argc, argv)) return 0;
  const BenchOptions opt = bench::finish_or_usage([&] { return common.finish(); });
  const auto [npoints, nrepeats] = bench::finish_or_usage([&] {
    return std::pair{bench::int_flag("points", *points),
                     bench::int_flag("repeats", *repeats)};
  });

  const core::Dataset ds = core::make_dataset(1, opt.particle_scale);
  // Four evenly spaced time points, like the paper's 3/6/9/12 us.
  std::vector<int> sample_steps;
  for (int k = 1; k <= 4; ++k) sample_steps.push_back(opt.steps * k / 4);

  const auto serial = run_profiles(ds, 1, sample_steps, npoints, opt.seed);
  const auto parallel =
      run_profiles(ds, opt.ranks.front(), sample_steps, npoints, opt.seed);

  for (std::size_t tp = 0; tp < sample_steps.size(); ++tp) {
    const double t_us =
        sample_steps[tp] * ds.config.dt_dsmc * 1e6;  // microseconds
    Table t("Fig. 9a — H number density on the central axis, t = " +
            Table::num(t_us, 2) + " us (serial vs " +
            std::to_string(opt.ranks.front()) + "-rank parallel)");
    t.header({"z/L", "serial [1/m^3]", "parallel [1/m^3]", "rel.err"});
    const auto& ps = serial.at_time[tp];
    const auto& pp = parallel.at_time[tp];
    for (std::size_t k = 0; k < ps.size(); ++k) {
      const double z = (static_cast<double>(k) + 0.5) / ps.size();
      t.row({Table::num(z, 2), Table::sci(ps[k]), Table::sci(pp[k]),
             ps[k] > 0 ? Table::num(100 * std::abs(pp[k] - ps[k]) / ps[k], 1) +
                             "%"
                       : "-"});
    }
    t.print();
    // Mean relative error over the established region (paper skips the
    // near-zero margin where the density has not converged).
    std::vector<double> a, b;
    const double floor = 0.1 * max_of(ps);
    for (std::size_t k = 0; k < ps.size(); ++k)
      if (ps[k] > floor) {
        a.push_back(pp[k]);
        b.push_back(ps[k]);
      }
    std::printf("mean relative error at t=%.2fus: %.2f%%  (paper: < 2.97%%)\n\n",
                t_us, 100.0 * mean_relative_error(a, b));
  }

  // Fig. 8 — (r, z) number-density contour maps of the serial and parallel
  // runs at the final time point, written as CSV (z_bin, r_bin, n_serial,
  // n_parallel) for external plotting.
  {
    core::SolverConfig cfg = ds.config;
    cfg.seed = opt.seed;
    core::ParallelConfig spar;
    spar.nranks = 1;
    core::CoupledSolver serial_solver(cfg, spar);
    core::ParallelConfig ppar;
    ppar.nranks = opt.ranks.front();
    ppar.balance.period = 10;
    core::CoupledSolver parallel_solver(cfg, ppar);
    serial_solver.run(opt.steps);
    parallel_solver.run(opt.steps);
    const int nr = 8, nz = 24;
    const auto ms = dsmc::rz_map(
        serial_solver.coarse_grid(),
        serial_solver.sampler().number_density(dsmc::kSpeciesH),
        cfg.nozzle.radius, cfg.nozzle.length, nr, nz);
    const auto mp = dsmc::rz_map(
        parallel_solver.coarse_grid(),
        parallel_solver.sampler().number_density(dsmc::kSpeciesH),
        cfg.nozzle.radius, cfg.nozzle.length, nr, nz);
    std::ofstream os("fig08_contours.csv");
    os << "iz,ir,n_serial,n_parallel\n";
    for (int iz = 0; iz < nz; ++iz)
      for (int ir = 0; ir < nr; ++ir)
        os << iz << "," << ir << "," << ms[iz * nr + ir] << ","
           << mp[iz * nr + ir] << "\n";
    std::printf(
        "Fig. 8 contour maps written to fig08_contours.csv (%dx%d bins)\n\n",
        nz, nr);
  }

  // Relative standard deviation across repeated parallel runs (Fig. 9b
  // caption: RSD of 5 runs < 5%).
  std::vector<double> peak_density;
  for (int rep = 0; rep < nrepeats; ++rep) {
    const auto p = run_profiles(ds, opt.ranks.front(), {opt.steps}, npoints,
                                opt.seed + 1000 + rep);
    peak_density.push_back(max_of(p.at_time[0]));
  }
  std::printf("relative standard deviation of %d runs (peak axis density): "
              "%.2f%%  (paper: < 5%%)\n",
              nrepeats, 100.0 * relative_stddev(peak_density));
  return 0;
}
