#include "src/stats/spearman.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dbscale::stats {

namespace {

/// Average rank (1-based) assigned to the tie group occupying sorted
/// positions [first, last] (0-based, inclusive).
double TieAveragedRank(size_t first, size_t last) {
  return (static_cast<double>(first + 1) + static_cast<double>(last + 1)) /
         2.0;
}

}  // namespace

// Allocating convenience wrapper; hot callers use RankWithTiesInto.
std::vector<double> RankWithTies(  // dbscale-lint: allow(alloc-hot-path)
    const std::vector<double>& values) {
  std::vector<size_t> order;   // dbscale-lint: allow(alloc-hot-path)
  std::vector<double> ranks;   // dbscale-lint: allow(alloc-hot-path)
  RankWithTiesInto(values, order, ranks);
  return ranks;
}

void RankWithTiesInto(const std::vector<double>& values,
                      std::vector<size_t>& order,
                      std::vector<double>& ranks) {
  const size_t n = values.size();
  // Grows the caller's scratch once; steady-state calls reuse capacity.
  order.resize(n);  // dbscale-lint: allow(alloc-hot-path)
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });

  ranks.assign(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // Items order[i..j] are tied; assign the average of ranks i+1 .. j+1.
    double avg_rank = TieAveragedRank(i, j);
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
}

Result<double> PearsonCorrelation(const std::vector<double>& x,
                                  const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("x and y sizes differ");
  }
  if (x.size() < 3) {
    return Status::InvalidArgument("correlation needs at least 3 points");
  }
  const double n = static_cast<double>(x.size());
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mx;
    double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) {
    // A constant series is uncorrelated with everything by convention here;
    // the caller treats 0 as "no signal".
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

Result<double> SpearmanCorrelation(const std::vector<double>& x,
                                   const std::vector<double>& y,
                                   SpearmanScratch* scratch) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("x and y sizes differ");
  }
  if (x.size() < 3) {
    return Status::InvalidArgument("correlation needs at least 3 points");
  }
  SpearmanScratch local;
  if (scratch == nullptr) scratch = &local;
  RankWithTiesInto(x, scratch->order, scratch->rank_x);
  RankWithTiesInto(y, scratch->order, scratch->rank_y);
  return PearsonCorrelation(scratch->rank_x, scratch->rank_y);
}

}  // namespace dbscale::stats
