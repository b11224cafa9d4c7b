// Container catalogs and container search.
//
// The default catalog mirrors the paper's experimental setup: eleven
// lock-step sizes spanning half a core to 32 cores, priced from 7 to 270
// cost units per billing interval (three-plus orders of magnitude of
// resources, ~40x in price — the paper notes three orders of magnitude of
// *cost* across the full Azure catalog; we keep its experimental 7..270
// range).
//
// A per-dimension catalog (Figure 1) additionally offers, for every
// lock-step rung, variants that scale one resource dimension up while the
// others stay at the rung — "high CPU" / "high memory" / "high I/O"
// instances. Workloads with demand concentrated in one resource pick these
// up at a lower price than the next full rung.
//
// `Catalog` is a value handle over an immutable `CatalogBackend`:
//
//   * `FixedRungCatalog` — the paper's finite container list. Its spec
//     ordering, ids, and every search result are bit-identical to the
//     pre-backend concrete Catalog (the "exact-equality contract": digests
//     pinned before this interface existed must not move).
//   * `FlexibleCatalog` — a synthetic per-dimension offer grid for the
//     diagonal-scaling model (PAPERS.md, arxiv 2511.21612): any combination
//     of per-dimension grid values is purchasable, priced by a separable
//     model (per-dimension price components that sum exactly to the
//     lock-step rung price on the diagonal).
//
// The handle keeps the original search surface (all existing policies
// compile and behave unchanged) and adds the per-dimension grid surface
// the diagonal optimizer enumerates.

#ifndef DBSCALE_CONTAINER_CATALOG_H_
#define DBSCALE_CONTAINER_CATALOG_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/container/container.h"

namespace dbscale::container {

/// Per-dimension grid levels identifying one purchasable bundle.
using GridLevels = std::array<int, kNumResources>;

/// Upper bound on per-dimension grid sizes (11 rungs, <= 3 subdivisions
/// between adjacent rungs: 10 * 4 + 1 = 41); sized so optimizer state fits
/// in fixed arrays.
inline constexpr int kMaxGridLevels = 41;

/// \brief Immutable offer set behind a Catalog handle: a price-ordered
/// spec list plus a per-dimension offer grid.
///
/// The constructor price-sorts the listed specs with a deterministic name
/// tie-break and assigns dense ids — the iteration order every search
/// method and fingerprint depends on.
class CatalogBackend {
 public:
  virtual ~CatalogBackend() = default;

  /// Stable backend name ("fixed_rung", "flexible") for reports/JSON.
  virtual const char* backend_name() const = 0;

  /// True when ANY combination of per-dimension grid values is purchasable
  /// (the diagonal optimizer then searches the grid instead of the listed
  /// specs).
  virtual bool flexible() const = 0;

  /// Per-dimension offer grid, ascending. Fixed backends expose the
  /// lock-step rung values; flexible backends the synthetic grid.
  virtual int GridSize(ResourceKind kind) const = 0;
  virtual double GridValue(ResourceKind kind, int level) const = 0;

  /// Additive per-dimension price component. For flexible backends the
  /// purchase price of a bundle is exactly the dimension-order sum of its
  /// components; for fixed backends this is the separable approximation
  /// used to price single-dimension variants (informational).
  virtual double DimensionPrice(ResourceKind kind, int level) const = 0;

  /// The purchasable container at the given per-dimension grid levels.
  /// Flexible backends synthesize a spec (deterministic id past the listed
  /// specs) for off-diagonal bundles; fixed backends return the cheapest
  /// listed spec dominating the bundle.
  virtual ContainerSpec BundleAt(const GridLevels& levels) const = 0;

  const std::vector<ContainerSpec>& specs() const { return specs_; }
  int size() const { return static_cast<int>(specs_.size()); }
  int num_rungs() const { return num_rungs_; }
  const ContainerSpec& rung(int rung_index) const;
  const ContainerSpec& largest() const;

 protected:
  CatalogBackend(std::vector<ContainerSpec> specs, int num_rungs);

  std::vector<ContainerSpec> specs_;  // ascending price
  std::vector<int> rung_ids_;         // specs_ index of each lock-step rung
  int num_rungs_ = 0;
};

/// \brief The paper's finite container list (lock-step rungs, optionally
/// with single-dimension variants). Behavior is bit-identical to the
/// pre-backend concrete Catalog.
class FixedRungCatalog final : public CatalogBackend {
 public:
  /// `specs` must contain one lock-step rung spec (name without '-') for
  /// every base_rung in [0, num_rungs).
  FixedRungCatalog(std::vector<ContainerSpec> specs, int num_rungs);

  const char* backend_name() const override { return "fixed_rung"; }
  bool flexible() const override { return false; }
  int GridSize(ResourceKind kind) const override;
  double GridValue(ResourceKind kind, int level) const override;
  double DimensionPrice(ResourceKind kind, int level) const override;
  ContainerSpec BundleAt(const GridLevels& levels) const override;

 private:
  /// Separable price components of each rung's price: weight-shares with
  /// the last dimension taking the residual, so the dimension-order sum
  /// reproduces the rung price exactly.
  std::array<std::vector<double>, kNumResources> dim_price_;
};

/// Options for the synthetic flexible (diagonal-scaling) catalog.
struct FlexibleCatalogOptions {
  /// Number of paper rungs to span (0 = all 11; else [2, 11]).
  int max_rungs = 0;
  /// Extra grid points inserted between adjacent rungs in every dimension
  /// (linear interpolation of values and price components); [0, 3].
  int subdivisions = 0;
  /// Multiplier on every price (flexibility premium / discount); > 0.
  double price_markup = 1.0;
  /// Restrict offers to the lock-step diagonal: the backend then reports
  /// flexible() == false and its listed specs are exactly the rungs —
  /// with price_markup == 1 this is bit-identical to MakeLockStep()
  /// (the catalog-backend equivalence contract).
  bool coupled = false;

  Status Validate() const;
};

/// \brief Synthetic per-dimension offer grid with a separable pricing
/// model. Listed specs are the lock-step diagonal bundles (named "S<k>",
/// priced exactly at markup x rung price); every other grid combination is
/// purchasable through BundleAt with a deterministic synthesized id.
class FlexibleCatalog final : public CatalogBackend {
 public:
  /// `options` must already be validated.
  explicit FlexibleCatalog(const FlexibleCatalogOptions& options);

  const char* backend_name() const override { return "flexible"; }
  bool flexible() const override { return !coupled_; }
  int GridSize(ResourceKind /*kind*/) const override { return grid_size_; }
  double GridValue(ResourceKind kind, int level) const override;
  double DimensionPrice(ResourceKind kind, int level) const override;
  ContainerSpec BundleAt(const GridLevels& levels) const override;

 private:
  bool coupled_ = false;
  int subdivisions_ = 0;
  int grid_size_ = 0;  // same in every dimension
  std::array<std::array<double, kMaxGridLevels>, kNumResources> grid_value_{};
  std::array<std::array<double, kMaxGridLevels>, kNumResources> dim_price_{};
};

/// \brief Copyable value handle over an immutable, price-ordered set of
/// ContainerSpecs with the search operations used by the scaling policies.
class Catalog {
 public:
  /// The paper-style lock-step catalog: 11 sizes S1..S11; every dimension
  /// scales proportionally; price 7..270 units.
  static Catalog MakeLockStep();

  /// Lock-step rungs plus single-dimension scale-ups per Figure 1.
  /// `max_dimension_steps` limits how many rungs above its base a variant's
  /// boosted dimension may reach (2 covers the paper's 98% of changes).
  static Catalog MakePerDimension(int max_dimension_steps = 2);

  /// Builds a catalog from explicit specs (ids are reassigned in price
  /// order). Errors if `specs` is empty.
  static Result<Catalog> FromSpecs(std::vector<ContainerSpec> specs);

  /// Builds the synthetic flexible catalog. Errors on invalid options.
  static Result<Catalog> MakeFlexible(const FlexibleCatalogOptions& options =
                                          FlexibleCatalogOptions{});

  /// The backend this handle wraps (never null).
  const CatalogBackend& backend() const { return *backend_; }

  // ---- Per-dimension grid surface (diagonal scaling) ----
  bool flexible() const { return backend_->flexible(); }
  int GridSize(ResourceKind kind) const { return backend_->GridSize(kind); }
  double GridValue(ResourceKind kind, int level) const {
    return backend_->GridValue(kind, level);
  }
  double DimensionPrice(ResourceKind kind, int level) const {
    return backend_->DimensionPrice(kind, level);
  }
  /// Dimension-order sum of the per-dimension price components.
  double BundlePrice(const GridLevels& levels) const;
  ContainerSpec BundleAt(const GridLevels& levels) const {
    return backend_->BundleAt(levels);
  }
  /// Smallest grid level whose value meets `demand`; GridSize-1 if none.
  int GridLevelFor(ResourceKind kind, double demand) const;

  // ---- Listed-spec surface (unchanged from the concrete Catalog) ----
  int size() const { return backend_->size(); }
  const ContainerSpec& at(int id) const;
  const std::vector<ContainerSpec>& specs() const {
    return backend_->specs();
  }

  const ContainerSpec& smallest() const { return specs().front(); }
  const ContainerSpec& largest() const { return backend_->largest(); }

  /// Number of lock-step rungs (base sizes) in this catalog.
  int num_rungs() const { return backend_->num_rungs(); }
  /// The lock-step rung container at the given rung index [0, num_rungs).
  const ContainerSpec& rung(int rung_index) const {
    return backend_->rung(rung_index);
  }

  /// Cheapest container whose resources dominate `demand` and whose price is
  /// <= `budget`. If no dominating container fits the budget, returns the
  /// most expensive container within budget (the paper's budget-constrained
  /// fallback). Errors only if even the smallest container exceeds `budget`.
  Result<ContainerSpec> CheapestDominating(const ResourceVector& demand,
                                           double budget) const;

  /// Cheapest container dominating `demand`, ignoring budget; the largest
  /// container if none dominates.
  ContainerSpec CheapestDominating(const ResourceVector& demand) const;

  /// Most expensive container with price <= budget. Errors if none.
  Result<ContainerSpec> MostExpensiveWithin(double budget) const;

  /// Smallest rung whose resources dominate `demand`; num_rungs()-1 if none.
  int RungForDemand(const ResourceVector& demand) const;

  /// The rung `steps` above/below `rung_index`, clamped to the catalog.
  int ClampRung(int rung_index) const;

  /// Finds a container by name.
  Result<ContainerSpec> FindByName(const std::string& name) const;

 private:
  explicit Catalog(std::shared_ptr<const CatalogBackend> backend);

  std::shared_ptr<const CatalogBackend> backend_;
};

}  // namespace dbscale::container

#endif  // DBSCALE_CONTAINER_CATALOG_H_
