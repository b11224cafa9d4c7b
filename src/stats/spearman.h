// Spearman rank correlation (Section 3.2.2 of the paper).
//
// The dependence between resource waits/utilization and latency in a
// database engine is monotonic but rarely linear, so Pearson correlation on
// raw values is a poor fit. Spearman's rho — Pearson on the *ranks* — detects
// any monotonic relationship, and ranking inherently bounds the influence of
// outliers.

#ifndef DBSCALE_STATS_SPEARMAN_H_
#define DBSCALE_STATS_SPEARMAN_H_

#include <vector>

#include "src/common/result.h"

namespace dbscale::stats {

/// Fractional ranks (1-based) with ties assigned their average rank.
std::vector<double> RankWithTies(const std::vector<double>& values);

/// Rank into a caller-provided buffer (no allocation beyond buffer growth).
/// `order` is an internal sort buffer the caller just keeps alive.
void RankWithTiesInto(const std::vector<double>& values,
                      std::vector<size_t>& order, std::vector<double>& ranks);

/// Pearson product-moment correlation of two equally-sized samples.
/// Returns 0 when either sample has zero variance.
[[nodiscard]] Result<double> PearsonCorrelation(const std::vector<double>& x,
                                                const std::vector<double>& y);

/// Reusable buffers for SpearmanCorrelation; one per caller thread.
struct SpearmanScratch {
  std::vector<size_t> order;
  std::vector<double> rank_x;
  std::vector<double> rank_y;
};

/// Spearman's rho in [-1, 1]: Pearson correlation of the tie-adjusted ranks.
/// Requires >= 3 points. With a scratch the call performs no allocations
/// beyond scratch growth.
[[nodiscard]] Result<double> SpearmanCorrelation(
    const std::vector<double>& x, const std::vector<double>& y,
    SpearmanScratch* scratch = nullptr);

}  // namespace dbscale::stats

#endif  // DBSCALE_STATS_SPEARMAN_H_
