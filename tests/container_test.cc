#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "src/container/catalog.h"
#include "src/container/container.h"

namespace dbscale::container {
namespace {

TEST(ResourceVectorTest, GetSetRoundTrip) {
  ResourceVector v;
  for (ResourceKind kind : kAllResources) {
    v.Set(kind, 7.5);
    EXPECT_DOUBLE_EQ(v.Get(kind), 7.5);
  }
}

TEST(ResourceVectorTest, Dominates) {
  ResourceVector a{2, 100, 50, 4};
  ResourceVector b{1, 100, 50, 4};
  EXPECT_TRUE(a.Dominates(b));
  EXPECT_FALSE(b.Dominates(a));
  EXPECT_TRUE(a.Dominates(a));
  ResourceVector c{3, 50, 10, 1};
  EXPECT_FALSE(a.Dominates(c));
  EXPECT_FALSE(c.Dominates(a));
}

TEST(ResourceVectorTest, MaxAndScale) {
  ResourceVector a{1, 200, 10, 8};
  ResourceVector b{2, 100, 50, 4};
  ResourceVector m = ResourceVector::Max(a, b);
  EXPECT_DOUBLE_EQ(m.cpu_cores, 2);
  EXPECT_DOUBLE_EQ(m.memory_mb, 200);
  EXPECT_DOUBLE_EQ(m.disk_iops, 50);
  EXPECT_DOUBLE_EQ(m.log_mbps, 8);
  ResourceVector s = a.Scaled(2.0);
  EXPECT_DOUBLE_EQ(s.memory_mb, 400);
}

TEST(CatalogTest, LockStepShape) {
  Catalog c = Catalog::MakeLockStep();
  EXPECT_EQ(c.size(), 11);
  EXPECT_EQ(c.num_rungs(), 11);
  // Paper's price span: 7 to 270 units.
  EXPECT_DOUBLE_EQ(c.smallest().price_per_interval, 7.0);
  EXPECT_DOUBLE_EQ(c.largest().price_per_interval, 270.0);
  // Half a core to tens of cores.
  EXPECT_DOUBLE_EQ(c.smallest().resources.cpu_cores, 0.5);
  EXPECT_GE(c.largest().resources.cpu_cores, 16.0);
}

TEST(CatalogTest, LockStepMonotone) {
  Catalog c = Catalog::MakeLockStep();
  for (int i = 1; i < c.num_rungs(); ++i) {
    EXPECT_GT(c.rung(i).price_per_interval,
              c.rung(i - 1).price_per_interval);
    EXPECT_TRUE(c.rung(i).resources.Dominates(c.rung(i - 1).resources));
  }
}

TEST(CatalogTest, IdsArePriceOrder) {
  Catalog c = Catalog::MakeLockStep();
  for (int i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.at(i).id, i);
    if (i > 0) {
      EXPECT_GE(c.at(i).price_per_interval,
                c.at(i - 1).price_per_interval);
    }
  }
}

TEST(CatalogTest, BallooningRungsBracket3GbWorkingSet) {
  // Figure 14 requires adjacent rungs bracketing a 3 GB working set.
  Catalog c = Catalog::MakeLockStep();
  bool found = false;
  for (int i = 1; i < c.num_rungs(); ++i) {
    if (c.rung(i - 1).resources.memory_mb < 3072.0 &&
        c.rung(i).resources.memory_mb > 3072.0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CatalogTest, CheapestDominatingPicksExactFit) {
  Catalog c = Catalog::MakeLockStep();
  const ContainerSpec& s3 = c.rung(2);
  ContainerSpec got = c.CheapestDominating(s3.resources);
  EXPECT_EQ(got.id, s3.id);
}

TEST(CatalogTest, CheapestDominatingZeroDemandIsSmallest) {
  Catalog c = Catalog::MakeLockStep();
  EXPECT_EQ(c.CheapestDominating(ResourceVector{}).id, c.smallest().id);
}

TEST(CatalogTest, CheapestDominatingOversizedDemandIsLargest) {
  Catalog c = Catalog::MakeLockStep();
  ResourceVector huge{1000, 1e9, 1e6, 1e4};
  EXPECT_EQ(c.CheapestDominating(huge).id, c.largest().id);
}

TEST(CatalogTest, BudgetConstrainedFallsBackToMostExpensiveAffordable) {
  Catalog c = Catalog::MakeLockStep();
  ResourceVector huge{1000, 1e9, 1e6, 1e4};
  auto got = c.CheapestDominating(huge, 100.0);
  ASSERT_TRUE(got.ok());
  EXPECT_LE(got->price_per_interval, 100.0);
  // It is the *most expensive* affordable one.
  auto expected = c.MostExpensiveWithin(100.0);
  EXPECT_EQ(got->id, expected->id);
}

TEST(CatalogTest, BudgetBelowSmallestIsError) {
  Catalog c = Catalog::MakeLockStep();
  EXPECT_TRUE(c.CheapestDominating(ResourceVector{}, 1.0)
                  .status()
                  .IsResourceExhausted());
  EXPECT_FALSE(c.MostExpensiveWithin(6.9).ok());
}

TEST(CatalogTest, BudgetRespectedWhenDominatingExists) {
  Catalog c = Catalog::MakeLockStep();
  // Demand fits S1 but budget allows everything: still pick cheapest.
  auto got = c.CheapestDominating(ResourceVector{0.1, 10, 5, 0.5},
                                  std::numeric_limits<double>::infinity());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->id, c.smallest().id);
}

TEST(CatalogTest, RungForDemand) {
  Catalog c = Catalog::MakeLockStep();
  EXPECT_EQ(c.RungForDemand(ResourceVector{}), 0);
  EXPECT_EQ(c.RungForDemand(c.rung(4).resources), 4);
  ResourceVector slightly_more = c.rung(4).resources;
  slightly_more.cpu_cores += 0.01;
  EXPECT_EQ(c.RungForDemand(slightly_more), 5);
  ResourceVector huge{1e5, 1e9, 1e7, 1e5};
  EXPECT_EQ(c.RungForDemand(huge), c.num_rungs() - 1);
}

TEST(CatalogTest, ClampRung) {
  Catalog c = Catalog::MakeLockStep();
  EXPECT_EQ(c.ClampRung(-5), 0);
  EXPECT_EQ(c.ClampRung(3), 3);
  EXPECT_EQ(c.ClampRung(100), c.num_rungs() - 1);
}

TEST(CatalogTest, FindByName) {
  Catalog c = Catalog::MakeLockStep();
  auto s5 = c.FindByName("S5");
  ASSERT_TRUE(s5.ok());
  EXPECT_EQ(s5->base_rung, 4);
  EXPECT_TRUE(c.FindByName("nope").status().IsNotFound());
}

TEST(CatalogTest, PerDimensionHasVariants) {
  Catalog c = Catalog::MakePerDimension(2);
  EXPECT_GT(c.size(), 11);
  EXPECT_EQ(c.num_rungs(), 11);
  // A cpu-boosted S1 exists and has S1's memory but more cores.
  auto variant = c.FindByName("S1-cpu+1");
  ASSERT_TRUE(variant.ok());
  Catalog lockstep = Catalog::MakeLockStep();
  EXPECT_DOUBLE_EQ(variant->resources.memory_mb,
                   lockstep.rung(0).resources.memory_mb);
  EXPECT_DOUBLE_EQ(variant->resources.cpu_cores,
                   lockstep.rung(1).resources.cpu_cores);
  // Priced between the rungs.
  EXPECT_GT(variant->price_per_interval,
            lockstep.rung(0).price_per_interval);
  EXPECT_LT(variant->price_per_interval,
            lockstep.rung(1).price_per_interval);
}

TEST(CatalogTest, PerDimensionVariantCheaperForSkewedDemand) {
  // The Figure 1 argument: demand in one dimension only is cheaper to meet
  // with a single-dimension variant than with the next full rung.
  Catalog per_dim = Catalog::MakePerDimension(2);
  Catalog lock = Catalog::MakeLockStep();
  ResourceVector demand = lock.rung(2).resources;
  demand.cpu_cores = lock.rung(3).resources.cpu_cores;  // cpu-only bump
  ContainerSpec with_variants = per_dim.CheapestDominating(demand);
  ContainerSpec lockstep_only = lock.CheapestDominating(demand);
  EXPECT_LT(with_variants.price_per_interval,
            lockstep_only.price_per_interval);
}

TEST(CatalogTest, PerDimensionLargestIsTopRung) {
  Catalog c = Catalog::MakePerDimension(2);
  EXPECT_EQ(c.largest().name, "S11");
  for (const ContainerSpec& spec : c.specs()) {
    EXPECT_TRUE(c.largest().resources.Dominates(spec.resources));
  }
}

TEST(CatalogTest, FromSpecs) {
  std::vector<ContainerSpec> specs(2);
  specs[0].name = "big";
  specs[0].resources = ResourceVector{4, 100, 10, 1};
  specs[0].price_per_interval = 20;
  specs[1].name = "small";
  specs[1].resources = ResourceVector{1, 50, 5, 1};
  specs[1].price_per_interval = 5;
  auto c = Catalog::FromSpecs(specs);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->size(), 2);
  EXPECT_EQ(c->smallest().name, "small");
  EXPECT_EQ(c->largest().name, "big");
  EXPECT_FALSE(Catalog::FromSpecs({}).ok());
  // Names are held inline in decision records: at most 15 bytes.
  specs[0].name = std::string(kMaxContainerNameLength, 'b');
  EXPECT_TRUE(Catalog::FromSpecs(specs).ok());
  specs[0].name += 'b';
  EXPECT_FALSE(Catalog::FromSpecs(specs).ok());
}

TEST(ContainerNameTest, HoldsNamesInline) {
  EXPECT_EQ(ContainerName().view(), "");
  const ContainerName name("S10-disk_io+2");
  EXPECT_EQ(name, "S10-disk_io+2");
  EXPECT_EQ(std::string(name.c_str()), "S10-disk_io+2");
  const ContainerName longest(std::string(kMaxContainerNameLength, 'x'));
  EXPECT_EQ(longest.view().size(), kMaxContainerNameLength);
}

}  // namespace
}  // namespace dbscale::container
