#include "market/io.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "market/generator.h"

namespace ppn::market {
namespace {

MarketDataset SmallDataset() {
  SyntheticMarketConfig config;
  config.num_assets = 3;
  config.num_periods = 50;
  config.seed = 5;
  SyntheticMarketGenerator generator(config);
  return generator.GenerateDataset("io-test", 0.8);
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  const MarketDataset original = SmallDataset();
  const std::string prefix = ::testing::TempDir() + "/dataset_roundtrip";
  ASSERT_TRUE(SaveDataset(original, prefix));
  MarketDataset loaded;
  ASSERT_TRUE(LoadDataset(prefix, &loaded));
  EXPECT_EQ(loaded.panel.num_periods(), original.panel.num_periods());
  EXPECT_EQ(loaded.panel.num_assets(), original.panel.num_assets());
  EXPECT_EQ(loaded.train_end, original.train_end);
  for (int64_t t = 0; t < original.panel.num_periods(); ++t) {
    for (int64_t a = 0; a < original.panel.num_assets(); ++a) {
      for (int f = 0; f < kNumPriceFields; ++f) {
        EXPECT_NEAR(loaded.panel.Price(t, a, static_cast<PriceField>(f)),
                    original.panel.Price(t, a, static_cast<PriceField>(f)),
                    1e-9);
      }
    }
  }
  EXPECT_TRUE(loaded.panel.IsValid());
}

TEST(DatasetIoTest, LoadFailsOnMissingFiles) {
  MarketDataset dataset;
  dataset.name = "untouched";
  EXPECT_FALSE(LoadDataset(::testing::TempDir() + "/nope", &dataset));
  EXPECT_EQ(dataset.name, "untouched");
}

TEST(DatasetIoTest, LoadRejectsTruncatedPrices) {
  const MarketDataset original = SmallDataset();
  const std::string prefix = ::testing::TempDir() + "/dataset_trunc";
  ASSERT_TRUE(SaveDataset(original, prefix));
  // Truncate the prices file (keep header + one row).
  {
    CsvTable prices;
    ASSERT_TRUE(ReadCsv(prefix + ".prices.csv", &prices));
    prices.rows.resize(1);
    ASSERT_TRUE(WriteCsv(prefix + ".prices.csv", prices));
  }
  MarketDataset loaded;
  EXPECT_FALSE(LoadDataset(prefix, &loaded));
}

TEST(DatasetIoTest, LoadRejectsCorruptMeta) {
  const MarketDataset original = SmallDataset();
  const std::string prefix = ::testing::TempDir() + "/dataset_badmeta";
  ASSERT_TRUE(SaveDataset(original, prefix));
  {
    CsvTable meta;
    meta.header = {"num_periods", "num_assets", "train_end"};
    meta.rows = {{50.0, 3.0, 60.0}};  // train_end > num_periods.
    ASSERT_TRUE(WriteCsv(prefix + ".meta.csv", meta));
  }
  MarketDataset loaded;
  EXPECT_FALSE(LoadDataset(prefix, &loaded));
}

/// Index cells a hostile file can carry: ReadCsv parses every one of them.
const double kBadIndices[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), 1e300,
                              -1.0, 2.5};

TEST(DatasetIoTest, BadMetaCellIsANamedError) {
  const MarketDataset original = SmallDataset();
  const std::string prefix = ::testing::TempDir() + "/dataset_meta_cell";
  ASSERT_TRUE(SaveDataset(original, prefix));
  CsvTable good;
  ASSERT_TRUE(ReadCsv(prefix + ".meta.csv", &good));
  for (const double bad : kBadIndices) {
    for (size_t field = 0; field < good.header.size(); ++field) {
      CsvTable meta = good;
      meta.rows[0][field] = bad;
      ASSERT_TRUE(WriteCsv(prefix + ".meta.csv", meta));
      MarketDataset loaded;
      std::string error;
      EXPECT_FALSE(LoadDataset(prefix, &loaded, &error));
      EXPECT_NE(error.find(good.header[field]), std::string::npos)
          << "cell " << bad << ": " << error;
    }
  }
}

TEST(DatasetIoTest, BadPriceIndexCellIsANamedError) {
  const MarketDataset original = SmallDataset();
  const std::string prefix = ::testing::TempDir() + "/dataset_index_cell";
  ASSERT_TRUE(SaveDataset(original, prefix));
  CsvTable good;
  ASSERT_TRUE(ReadCsv(prefix + ".prices.csv", &good));
  for (const double bad : kBadIndices) {
    for (const size_t column : {size_t{0}, size_t{1}}) {  // period, asset.
      CsvTable prices = good;
      prices.rows[7][column] = bad;
      ASSERT_TRUE(WriteCsv(prefix + ".prices.csv", prices));
      MarketDataset loaded;
      std::string error;
      EXPECT_FALSE(LoadDataset(prefix, &loaded, &error));
      EXPECT_NE(error.find("row 9: " + good.header[column]),
                std::string::npos)
          << "cell " << bad << ": " << error;
    }
  }
}

TEST(DatasetIoTest, PricesDisagreeingWithMetaShapeAreRejected) {
  const MarketDataset original = SmallDataset();
  const std::string prefix = ::testing::TempDir() + "/dataset_shape";
  ASSERT_TRUE(SaveDataset(original, prefix));
  CsvTable meta;
  ASSERT_TRUE(ReadCsv(prefix + ".meta.csv", &meta));
  meta.rows[0][1] += 1.0;  // One asset more than the prices hold.
  ASSERT_TRUE(WriteCsv(prefix + ".meta.csv", meta));
  MarketDataset loaded;
  std::string error;
  EXPECT_FALSE(LoadDataset(prefix, &loaded, &error));
  EXPECT_NE(error.find("panel shape"), std::string::npos) << error;
}

TEST(DatasetIoDeathTest, SaveRejectsIncompletePanel) {
  MarketDataset dataset;
  dataset.panel = OhlcPanel(5, 2);  // All NaN.
  EXPECT_DEATH(SaveDataset(dataset, ::testing::TempDir() + "/nan"),
               "incomplete");
}

}  // namespace
}  // namespace ppn::market
