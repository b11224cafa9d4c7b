#include "src/container/catalog.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/string_util.h"

namespace dbscale::container {

namespace {

struct Rung {
  double cpu_cores;
  double memory_mb;
  double disk_iops;
  double log_mbps;
  double price;
};

// Eleven lock-step sizes, shaped after the 2016-era commercial catalogs the
// paper describes: 0.5 cores to 32 cores, ~1 GB to ~192 GB, 50 to 10000
// IOPS, price 7..270 units per billing interval. S4's memory (4 GB) and
// S3's (2.5 GB) bracket the 3 GB working set of the Figure 14 ballooning
// experiment.
constexpr Rung kRungs[] = {
    {0.5, 1024.0, 50.0, 2.0, 7.0},        // S1
    {1.0, 1536.0, 100.0, 4.0, 15.0},      // S2
    {2.0, 2560.0, 200.0, 8.0, 30.0},      // S3
    {3.0, 4096.0, 300.0, 12.0, 45.0},     // S4
    {4.0, 8192.0, 500.0, 20.0, 60.0},     // S5
    {6.0, 16384.0, 800.0, 32.0, 90.0},    // S6
    {8.0, 24576.0, 1200.0, 48.0, 120.0},  // S7
    {12.0, 49152.0, 2000.0, 80.0, 150.0},  // S8
    {16.0, 98304.0, 3500.0, 120.0, 180.0},  // S9
    {24.0, 147456.0, 6000.0, 200.0, 240.0},  // S10
    {32.0, 196608.0, 10000.0, 300.0, 270.0},  // S11
};
constexpr int kNumRungs = static_cast<int>(std::size(kRungs));

// Share of a rung's price attributed to each dimension; used to price
// single-dimension variants and the flexible catalog's separable model.
double DimensionWeight(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return 0.40;
    case ResourceKind::kMemory:
      return 0.25;
    case ResourceKind::kDiskIo:
      return 0.25;
    case ResourceKind::kLogIo:
      return 0.10;
  }
  return 0.0;
}

// Splits `price` into per-dimension components: weight shares for the
// first three dimensions, the exact residual for the last. Summed back in
// dimension order the components reproduce `price` bit-for-bit (the
// residual subtraction is exact by Sterbenz's lemma — the partial sum is
// within a factor of two of the total — so the final addition rounds to
// the representable true value).
std::array<double, kNumResources> SplitPrice(double price) {
  std::array<double, kNumResources> parts{};
  double partial = 0.0;
  for (int d = 0; d < kNumResources - 1; ++d) {
    parts[static_cast<size_t>(d)] =
        DimensionWeight(static_cast<ResourceKind>(d)) * price;
    partial += parts[static_cast<size_t>(d)];
  }
  parts[kNumResources - 1] = price - partial;
  return parts;
}

ResourceVector RungResources(int i) {
  return ResourceVector{kRungs[i].cpu_cores, kRungs[i].memory_mb,
                        kRungs[i].disk_iops, kRungs[i].log_mbps};
}

std::vector<ContainerSpec> LockStepSpecs(int num_rungs, double markup) {
  std::vector<ContainerSpec> specs;
  specs.reserve(static_cast<size_t>(num_rungs));
  for (int i = 0; i < num_rungs; ++i) {
    ContainerSpec spec;
    spec.name = StrFormat("S%d", i + 1);
    spec.resources = RungResources(i);
    spec.price_per_interval = kRungs[i].price * markup;
    spec.base_rung = i;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<ContainerSpec> LockStepSpecs() {
  return LockStepSpecs(kNumRungs, 1.0);
}

}  // namespace

// ---------------------------------------------------------------------------
// CatalogBackend
// ---------------------------------------------------------------------------

CatalogBackend::CatalogBackend(std::vector<ContainerSpec> specs,
                               int num_rungs)
    : specs_(std::move(specs)), num_rungs_(num_rungs) {
  // Price order with a deterministic name tie-break.
  std::stable_sort(specs_.begin(), specs_.end(),
                   [](const ContainerSpec& a, const ContainerSpec& b) {
                     if (a.price_per_interval != b.price_per_interval) {
                       return a.price_per_interval < b.price_per_interval;
                     }
                     return a.name < b.name;
                   });
  rung_ids_.assign(static_cast<size_t>(num_rungs_), -1);
  for (size_t i = 0; i < specs_.size(); ++i) {
    specs_[i].id = static_cast<int>(i);
    // Lock-step rungs are the specs named "S<k>" (no variant suffix).
    if (specs_[i].name.find('-') == std::string::npos) {
      rung_ids_[static_cast<size_t>(specs_[i].base_rung)] =
          static_cast<int>(i);
    }
  }
  for (int id : rung_ids_) DBSCALE_CHECK(id >= 0);
}

const ContainerSpec& CatalogBackend::rung(int rung_index) const {
  DBSCALE_CHECK(rung_index >= 0 && rung_index < num_rungs_);
  return specs_[static_cast<size_t>(
      rung_ids_[static_cast<size_t>(rung_index)])];
}

const ContainerSpec& CatalogBackend::largest() const {
  // The largest container is the most expensive lock-step rung: it dominates
  // every variant.
  return specs_[static_cast<size_t>(rung_ids_.back())];
}

// ---------------------------------------------------------------------------
// FixedRungCatalog
// ---------------------------------------------------------------------------

FixedRungCatalog::FixedRungCatalog(std::vector<ContainerSpec> specs,
                                   int num_rungs)
    : CatalogBackend(std::move(specs), num_rungs) {
  for (int r = 0; r < num_rungs_; ++r) {
    const std::array<double, kNumResources> parts =
        SplitPrice(rung(r).price_per_interval);
    for (int d = 0; d < kNumResources; ++d) {
      dim_price_[static_cast<size_t>(d)].push_back(
          parts[static_cast<size_t>(d)]);
    }
  }
}

int FixedRungCatalog::GridSize(ResourceKind /*kind*/) const {
  return num_rungs_;
}

double FixedRungCatalog::GridValue(ResourceKind kind, int level) const {
  DBSCALE_CHECK(level >= 0 && level < num_rungs_);
  return rung(level).resources.Get(kind);
}

double FixedRungCatalog::DimensionPrice(ResourceKind kind, int level) const {
  DBSCALE_CHECK(level >= 0 && level < num_rungs_);
  return dim_price_[static_cast<size_t>(kind)][static_cast<size_t>(level)];
}

ContainerSpec FixedRungCatalog::BundleAt(const GridLevels& levels) const {
  ResourceVector bundle;
  for (ResourceKind kind : kAllResources) {
    bundle.Set(kind, GridValue(kind, levels[static_cast<size_t>(kind)]));
  }
  // A fixed catalog only sells listed containers: the cheapest dominating
  // spec is the purchasable form of the bundle.
  for (const ContainerSpec& spec : specs_) {
    if (spec.resources.Dominates(bundle)) return spec;
  }
  return largest();
}

// ---------------------------------------------------------------------------
// FlexibleCatalog
// ---------------------------------------------------------------------------

Status FlexibleCatalogOptions::Validate() const {
  if (max_rungs != 0 && (max_rungs < 2 || max_rungs > kNumRungs)) {
    return Status::InvalidArgument(
        StrFormat("max_rungs must be 0 (all) or in [2, %d]", kNumRungs));
  }
  if (subdivisions < 0 || subdivisions > 3) {
    return Status::InvalidArgument("subdivisions must be in [0, 3]");
  }
  if (!(price_markup > 0.0)) {
    return Status::InvalidArgument("price_markup must be > 0");
  }
  const int rungs = max_rungs == 0 ? kNumRungs : max_rungs;
  const int grid = (rungs - 1) * (subdivisions + 1) + 1;
  if (grid > kMaxGridLevels) {
    return Status::InvalidArgument(
        StrFormat("grid of %d levels exceeds kMaxGridLevels=%d", grid,
                  kMaxGridLevels));
  }
  return Status::OK();
}

// Validation happens in Catalog::MakeFlexible (the public entry point);
// the constructor documents the precondition instead of double-checking.
// dbscale-lint: allow(options-validate)
FlexibleCatalog::FlexibleCatalog(const FlexibleCatalogOptions& options)
    : CatalogBackend(
          LockStepSpecs(options.max_rungs == 0 ? kNumRungs : options.max_rungs,
                        options.price_markup),
          options.max_rungs == 0 ? kNumRungs : options.max_rungs),
      coupled_(options.coupled),
      subdivisions_(options.subdivisions) {
  grid_size_ = (num_rungs_ - 1) * (subdivisions_ + 1) + 1;
  DBSCALE_CHECK(grid_size_ <= kMaxGridLevels);
  const int step = subdivisions_ + 1;
  for (int r = 0; r < num_rungs_; ++r) {
    const std::array<double, kNumResources> parts =
        SplitPrice(kRungs[r].price * options.price_markup);
    for (ResourceKind kind : kAllResources) {
      const size_t d = static_cast<size_t>(kind);
      const int base = r * step;
      // Rung points carry the rung value/component exactly; interior
      // points interpolate linearly toward the next rung.
      grid_value_[d][static_cast<size_t>(base)] =
          RungResources(r).Get(kind);
      dim_price_[d][static_cast<size_t>(base)] = parts[d];
      if (r + 1 < num_rungs_) {
        const double v0 = RungResources(r).Get(kind);
        const double v1 = RungResources(r + 1).Get(kind);
        const std::array<double, kNumResources> next =
            SplitPrice(kRungs[r + 1].price * options.price_markup);
        for (int k = 1; k <= subdivisions_; ++k) {
          const double t = static_cast<double>(k) / step;
          grid_value_[d][static_cast<size_t>(base + k)] = v0 + (v1 - v0) * t;
          dim_price_[d][static_cast<size_t>(base + k)] =
              parts[d] + (next[d] - parts[d]) * t;
        }
      }
    }
  }
  // The separable model must be monotone: a higher level in any dimension
  // never costs less (the optimizer's pruning depends on it).
  for (ResourceKind kind : kAllResources) {
    const size_t d = static_cast<size_t>(kind);
    for (int l = 1; l < grid_size_; ++l) {
      DBSCALE_CHECK(dim_price_[d][static_cast<size_t>(l)] >=
                    dim_price_[d][static_cast<size_t>(l - 1)]);
      DBSCALE_CHECK(grid_value_[d][static_cast<size_t>(l)] >=
                    grid_value_[d][static_cast<size_t>(l - 1)]);
    }
  }
}

double FlexibleCatalog::GridValue(ResourceKind kind, int level) const {
  DBSCALE_CHECK(level >= 0 && level < grid_size_);
  return grid_value_[static_cast<size_t>(kind)][static_cast<size_t>(level)];
}

double FlexibleCatalog::DimensionPrice(ResourceKind kind, int level) const {
  DBSCALE_CHECK(level >= 0 && level < grid_size_);
  return dim_price_[static_cast<size_t>(kind)][static_cast<size_t>(level)];
}

ContainerSpec FlexibleCatalog::BundleAt(const GridLevels& levels) const {
  const int step = subdivisions_ + 1;
  bool diagonal_rung = true;
  for (int d = 0; d < kNumResources; ++d) {
    const int l = levels[static_cast<size_t>(d)];
    DBSCALE_CHECK(l >= 0 && l < grid_size_);
    if (l != levels[0] || l % step != 0) diagonal_rung = false;
  }
  if (diagonal_rung) {
    // Lock-step bundles at rung points are the listed specs — same id,
    // name, and exact price as the fixed catalog's rung.
    return rung(levels[0] / step);
  }
  DBSCALE_CHECK(!coupled_);  // coupled mode only sells the diagonal
  ContainerSpec spec;
  // Deterministic synthesized id past the listed specs: the mixed-radix
  // index of the level vector. Distinct bundles get distinct ids, so
  // ScalingDecision::Changed() and rejection cooldowns work unchanged.
  int linear = 0;
  for (int d = 0; d < kNumResources; ++d) {
    linear = linear * grid_size_ + levels[static_cast<size_t>(d)];
  }
  spec.id = size() + linear;
  spec.name = StrFormat("F%d.%d.%d.%d", levels[0], levels[1], levels[2],
                        levels[3]);
  double price = 0.0;
  for (ResourceKind kind : kAllResources) {
    const size_t d = static_cast<size_t>(kind);
    spec.resources.Set(kind, GridValue(kind, levels[d]));
    price += DimensionPrice(kind, levels[d]);
  }
  spec.price_per_interval = price;
  spec.base_rung = num_rungs_ - 1;
  for (int r = 0; r < num_rungs_; ++r) {
    if (rung(r).resources.Dominates(spec.resources)) {
      spec.base_rung = r;
      break;
    }
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Catalog (value handle)
// ---------------------------------------------------------------------------

Catalog::Catalog(std::shared_ptr<const CatalogBackend> backend)
    : backend_(std::move(backend)) {
  DBSCALE_CHECK(backend_ != nullptr);
}

Catalog Catalog::MakeLockStep() {
  return Catalog(
      std::make_shared<const FixedRungCatalog>(LockStepSpecs(), kNumRungs));
}

Catalog Catalog::MakePerDimension(int max_dimension_steps) {
  DBSCALE_CHECK(max_dimension_steps >= 1);
  std::vector<ContainerSpec> specs = LockStepSpecs();
  for (int i = 0; i < kNumRungs; ++i) {
    for (ResourceKind kind : kAllResources) {
      for (int step = 1; step <= max_dimension_steps; ++step) {
        int j = i + step;
        if (j >= kNumRungs) break;
        ContainerSpec spec;
        spec.name = StrFormat("S%d-%s+%d", i + 1,
                              ResourceKindToString(kind), step);
        spec.resources = RungResources(i);
        spec.resources.Set(kind, RungResources(j).Get(kind));
        spec.price_per_interval =
            kRungs[i].price +
            (kRungs[j].price - kRungs[i].price) * DimensionWeight(kind);
        spec.base_rung = i;
        specs.push_back(std::move(spec));
      }
    }
  }
  return Catalog(
      std::make_shared<const FixedRungCatalog>(std::move(specs), kNumRungs));
}

Result<Catalog> Catalog::FromSpecs(std::vector<ContainerSpec> specs) {
  if (specs.empty()) {
    return Status::InvalidArgument("catalog needs at least one container");
  }
  for (const ContainerSpec& spec : specs) {
    if (spec.name.size() > kMaxContainerNameLength) {
      return Status::InvalidArgument(StrFormat(
          "container name '%s' is longer than %zu bytes", spec.name.c_str(),
          kMaxContainerNameLength));
    }
  }
  // Treat every spec as its own rung when built from explicit specs.
  std::stable_sort(specs.begin(), specs.end(),
                   [](const ContainerSpec& a, const ContainerSpec& b) {
                     return a.price_per_interval < b.price_per_interval;
                   });
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].base_rung = static_cast<int>(i);
    if (specs[i].name.empty()) specs[i].name = StrFormat("C%zu", i + 1);
    // Rung detection keys off '-'; explicit specs become rungs as-is.
    DBSCALE_CHECK(specs[i].name.find('-') == std::string::npos);
  }
  const int num_rungs = static_cast<int>(specs.size());
  return Catalog(
      std::make_shared<const FixedRungCatalog>(std::move(specs), num_rungs));
}

Result<Catalog> Catalog::MakeFlexible(const FlexibleCatalogOptions& options) {
  DBSCALE_RETURN_IF_ERROR(options.Validate());
  return Catalog(std::make_shared<const FlexibleCatalog>(options));
}

double Catalog::BundlePrice(const GridLevels& levels) const {
  double price = 0.0;
  for (ResourceKind kind : kAllResources) {
    price += backend_->DimensionPrice(kind, levels[static_cast<size_t>(kind)]);
  }
  return price;
}

int Catalog::GridLevelFor(ResourceKind kind, double demand) const {
  const int n = backend_->GridSize(kind);
  for (int l = 0; l < n; ++l) {
    if (backend_->GridValue(kind, l) >= demand) return l;
  }
  return n - 1;
}

const ContainerSpec& Catalog::at(int id) const {
  DBSCALE_CHECK(id >= 0 && id < size());
  return specs()[static_cast<size_t>(id)];
}

Result<ContainerSpec> Catalog::CheapestDominating(
    const ResourceVector& demand, double budget) const {
  for (const ContainerSpec& spec : specs()) {
    if (spec.price_per_interval <= budget &&
        spec.resources.Dominates(demand)) {
      return spec;
    }
  }
  // Demand cannot be met within budget: fall back to the most expensive
  // affordable container (paper Section 6).
  return MostExpensiveWithin(budget);
}

ContainerSpec Catalog::CheapestDominating(const ResourceVector& demand) const {
  for (const ContainerSpec& spec : specs()) {
    if (spec.resources.Dominates(demand)) return spec;
  }
  return largest();
}

Result<ContainerSpec> Catalog::MostExpensiveWithin(double budget) const {
  const std::vector<ContainerSpec>& all = specs();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (it->price_per_interval <= budget) return *it;
  }
  return Status::ResourceExhausted(
      StrFormat("no container fits budget %.2f (smallest costs %.2f)",
                budget, all.front().price_per_interval));
}

int Catalog::RungForDemand(const ResourceVector& demand) const {
  for (int r = 0; r < num_rungs(); ++r) {
    if (rung(r).resources.Dominates(demand)) return r;
  }
  return num_rungs() - 1;
}

int Catalog::ClampRung(int rung_index) const {
  return std::clamp(rung_index, 0, num_rungs() - 1);
}

Result<ContainerSpec> Catalog::FindByName(const std::string& name) const {
  for (const ContainerSpec& spec : specs()) {
    if (spec.name == name) return spec;
  }
  return Status::NotFound(StrFormat("no container named '%s'", name.c_str()));
}

}  // namespace dbscale::container
