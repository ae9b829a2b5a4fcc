#include "market/dataset.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace ppn::market {
namespace {

OhlcPanel MakeSimplePanel(int64_t periods, int64_t assets,
                          double start = 10.0, double growth = 1.1) {
  OhlcPanel panel(periods, assets);
  for (int64_t a = 0; a < assets; ++a) {
    double close = start * (a + 1);
    for (int64_t t = 0; t < periods; ++t) {
      panel.SetPrice(t, a, kOpen, close * 0.99);
      panel.SetPrice(t, a, kHigh, close * 1.02);
      panel.SetPrice(t, a, kLow, close * 0.98);
      panel.SetPrice(t, a, kClose, close);
      close *= growth;
    }
  }
  return panel;
}

TEST(OhlcPanelTest, FreshPanelIsMissing) {
  OhlcPanel panel(3, 2);
  EXPECT_TRUE(panel.IsMissing(0, 0));
  EXPECT_FALSE(panel.IsComplete());
}

TEST(OhlcPanelTest, SetAndReadBack) {
  OhlcPanel panel(2, 1);
  panel.SetPrice(1, 0, kClose, 42.0);
  EXPECT_DOUBLE_EQ(panel.Price(1, 0, kClose), 42.0);
  EXPECT_DOUBLE_EQ(panel.Close(1, 0), 42.0);
}

TEST(OhlcPanelTest, ValidityAcceptsSanePanel) {
  OhlcPanel panel = MakeSimplePanel(5, 2);
  EXPECT_TRUE(panel.IsComplete());
  EXPECT_TRUE(panel.IsValid());
}

TEST(OhlcPanelTest, ValidityRejectsHighBelowClose) {
  OhlcPanel panel = MakeSimplePanel(3, 1);
  panel.SetPrice(1, 0, kHigh, panel.Close(1, 0) * 0.5);
  EXPECT_FALSE(panel.IsValid());
}

TEST(OhlcPanelTest, ValidityRejectsNonPositive) {
  OhlcPanel panel = MakeSimplePanel(3, 1);
  panel.SetPrice(2, 0, kLow, -1.0);
  EXPECT_FALSE(panel.IsValid());
}

TEST(FlatFillTest, BackFillsEarlyHistory) {
  OhlcPanel panel = MakeSimplePanel(6, 1);
  // Blank out the first 3 periods.
  for (int64_t t = 0; t < 3; ++t) {
    for (int f = 0; f < kNumPriceFields; ++f) {
      panel.SetPrice(t, 0, static_cast<PriceField>(f),
                     std::numeric_limits<double>::quiet_NaN());
    }
  }
  const double first_close = panel.Close(3, 0);
  FlatFillMissing(&panel);
  EXPECT_TRUE(panel.IsComplete());
  for (int64_t t = 0; t < 3; ++t) {
    for (int f = 0; f < kNumPriceFields; ++f) {
      EXPECT_DOUBLE_EQ(panel.Price(t, 0, static_cast<PriceField>(f)),
                       first_close);
    }
  }
  // Flat fill means relative 1.0 within the filled span.
  EXPECT_DOUBLE_EQ(PriceRelatives(panel, 1)[0], 1.0);
}

TEST(FlatFillTest, ForwardFillsInteriorGap) {
  OhlcPanel panel = MakeSimplePanel(5, 1);
  const double before_gap = panel.Close(1, 0);
  for (int f = 0; f < kNumPriceFields; ++f) {
    panel.SetPrice(2, 0, static_cast<PriceField>(f),
                   std::numeric_limits<double>::quiet_NaN());
  }
  FlatFillMissing(&panel);
  EXPECT_DOUBLE_EQ(panel.Close(2, 0), before_gap);
}

TEST(FlatFillTest, ForwardFillsTrailingGap) {
  // A gap that runs to the end of the panel (an asset that stops printing)
  // must flat-fill forward at the last seen close, not stay NaN.
  OhlcPanel panel = MakeSimplePanel(6, 2);
  const double last_seen = panel.Close(3, 1);
  for (int64_t t = 4; t < 6; ++t) {
    for (int f = 0; f < kNumPriceFields; ++f) {
      panel.SetPrice(t, 1, static_cast<PriceField>(f),
                     std::numeric_limits<double>::quiet_NaN());
    }
  }
  FlatFillMissing(&panel);
  EXPECT_TRUE(panel.IsComplete());
  for (int64_t t = 4; t < 6; ++t) {
    for (int f = 0; f < kNumPriceFields; ++f) {
      EXPECT_DOUBLE_EQ(panel.Price(t, 1, static_cast<PriceField>(f)),
                       last_seen);
    }
  }
  // The untouched asset keeps its own path.
  EXPECT_DOUBLE_EQ(panel.Close(5, 0), MakeSimplePanel(6, 2).Close(5, 0));
}

TEST(OhlcPanelTest, ValidityRejectsZeroLow) {
  OhlcPanel panel = MakeSimplePanel(3, 1);
  panel.SetPrice(1, 0, kLow, 0.0);
  EXPECT_FALSE(panel.IsValid());
}

// NaN passes every comparison IsValid makes, and +Inf passes high >= open
// and close; each non-finite value in each field of a tradeable, observed
// bar must fail. A halted bar holding NaN, and an unobserved (all-NaN)
// bar, stay valid.
TEST(OhlcPanelTest, ValidityRejectsNonFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (int f = 0; f < kNumPriceFields; ++f) {
      OhlcPanel panel = MakeSimplePanel(3, 2);
      panel.SetPrice(1, 1, static_cast<PriceField>(f), bad);
      EXPECT_FALSE(panel.IsValid()) << "field " << f << " = " << bad;
      panel.SetTradeable(1, 1, false);
      EXPECT_TRUE(panel.IsValid()) << "masked field " << f << " = " << bad;
    }
  }
  OhlcPanel gap = MakeSimplePanel(3, 2);
  for (int f = 0; f < kNumPriceFields; ++f) {
    gap.SetPrice(2, 0, static_cast<PriceField>(f),
                 std::numeric_limits<double>::quiet_NaN());
  }
  EXPECT_TRUE(gap.IsValid()) << "an unobserved bar is a gap, not corrupt";
}

TEST(OhlcPanelTest, ValidityRejectsLowAboveOpen) {
  OhlcPanel panel = MakeSimplePanel(3, 1);
  panel.SetPrice(1, 0, kLow, panel.Price(1, 0, kOpen) * 1.5);
  EXPECT_FALSE(panel.IsValid());
}

// ------------------------------------------------- tradeability mask ----

TEST(TradeabilityTest, DefaultIsAllTradeable) {
  const OhlcPanel panel = MakeSimplePanel(4, 2);
  EXPECT_FALSE(panel.HasTradeabilityMask());
  EXPECT_TRUE(panel.Tradeable(2, 1));
}

TEST(TradeabilityTest, MaskedBarsAreExemptFromValidity) {
  OhlcPanel panel = MakeSimplePanel(4, 2);
  panel.SetPrice(2, 0, kLow, -1.0);
  EXPECT_FALSE(panel.IsValid());
  panel.SetTradeable(2, 0, false);
  EXPECT_TRUE(panel.HasTradeabilityMask());
  EXPECT_TRUE(panel.IsValid()) << "halted quotes are decorative";
  EXPECT_TRUE(panel.Tradeable(2, 1)) << "other assets keep trading";
}

TEST(TradeabilityTest, HaltedAssetHasUnitRelative) {
  OhlcPanel panel = MakeSimplePanel(5, 2, 10.0, 1.1);
  panel.SetTradeable(3, 0, false);
  // Halted at t or t-1 → frozen value → relative exactly 1.
  EXPECT_EQ(PriceRelatives(panel, 3)[0], 1.0);
  EXPECT_EQ(PriceRelatives(panel, 4)[0], 1.0);
  EXPECT_NEAR(PriceRelatives(panel, 3)[1], 1.1, 1e-12);
  // Away from the halt the quoted ratio applies again.
  EXPECT_NEAR(PriceRelatives(panel, 2)[0], 1.1, 1e-12);
}

TEST(TradeabilityTest, DegeneratePriceOnHaltedAssetDoesNotAbort) {
  OhlcPanel panel = MakeSimplePanel(5, 1);
  for (int f = 0; f < kNumPriceFields; ++f) {
    panel.SetPrice(3, 0, static_cast<PriceField>(f), 0.0);
  }
  panel.SetTradeable(3, 0, false);
  EXPECT_EQ(PriceRelatives(panel, 3)[0], 1.0);
}

TEST(TradeabilityTest, NormalizedWindowIsNeutralForHaltedAsset) {
  OhlcPanel panel = MakeSimplePanel(40, 2, 10.0, 1.05);
  panel.SetTradeable(35, 1, false);
  const Tensor window = NormalizedWindow(panel, 35, 10);
  for (int64_t j = 0; j < 10; ++j) {
    for (int f = 0; f < 4; ++f) {
      EXPECT_EQ(window.At({1, j, f}), 1.0f);
    }
  }
  // The tradeable asset keeps its real ratios.
  EXPECT_NEAR(window.At({0, 8, kClose}), 1.0 / 1.05, 1e-4);
}

TEST(TradeabilityDeathTest, DegeneratePriceOnTradeableAssetAborts) {
  OhlcPanel panel = MakeSimplePanel(5, 1);
  for (int f = 0; f < kNumPriceFields; ++f) {
    panel.SetPrice(3, 0, static_cast<PriceField>(f), 0.0);
  }
  EXPECT_DEATH(PriceRelatives(panel, 3), "tradeability mask");
  EXPECT_DEATH(NormalizedWindow(panel, 3, 2), "tradeability mask");
}

TEST(FlatFillDeathTest, AllMissingAssetAborts) {
  OhlcPanel panel(3, 1);
  EXPECT_DEATH(FlatFillMissing(&panel), "no observed data");
}

TEST(PriceRelativesTest, ComputesCloseRatios) {
  OhlcPanel panel = MakeSimplePanel(4, 2, 10.0, 1.1);
  const std::vector<double> x = PriceRelatives(panel, 2);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.1, 1e-12);
  EXPECT_NEAR(x[1], 1.1, 1e-12);
}

TEST(PriceRelativesTest, CashVariantPrependsOne) {
  OhlcPanel panel = MakeSimplePanel(4, 2);
  const std::vector<double> x = PriceRelativesWithCash(panel, 1);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
}

TEST(PriceRelativesDeathTest, PeriodZeroAborts) {
  OhlcPanel panel = MakeSimplePanel(4, 1);
  EXPECT_DEATH(PriceRelatives(panel, 0), "PPN_CHECK");
}

TEST(NormalizedWindowTest, LastPeriodIsAllOnes) {
  OhlcPanel panel = MakeSimplePanel(40, 3);
  const int64_t k = 30;
  Tensor window = NormalizedWindow(panel, 35, k);
  ASSERT_EQ(window.shape(), (std::vector<int64_t>{3, k, 4}));
  for (int64_t a = 0; a < 3; ++a) {
    for (int f = 0; f < 4; ++f) {
      EXPECT_NEAR(window.At({a, k - 1, f}), 1.0f, 1e-6f);
    }
  }
}

TEST(NormalizedWindowTest, ValuesAreRatios) {
  OhlcPanel panel = MakeSimplePanel(40, 1, 10.0, 1.05);
  Tensor window = NormalizedWindow(panel, 35, 10);
  // Close at slot j is close(t-9+j) / close(t): growth^(j-9).
  for (int64_t j = 0; j < 10; ++j) {
    const double expected = std::pow(1.05, static_cast<double>(j - 9));
    EXPECT_NEAR(window.At({0, j, kClose}), expected, 1e-4);
  }
}

TEST(NormalizedWindowTest, InsufficientHistoryAborts) {
  OhlcPanel panel = MakeSimplePanel(40, 1);
  EXPECT_DEATH(NormalizedWindow(panel, 5, 10), "PPN_CHECK");
}

TEST(DatasetStatsTest, SplitsCounts) {
  MarketDataset dataset;
  dataset.name = "X";
  dataset.panel = MakeSimplePanel(100, 2);
  dataset.train_end = 80;
  const DatasetStats stats = ComputeStats(dataset);
  EXPECT_EQ(stats.num_assets, 2);
  EXPECT_EQ(stats.train_periods, 80);
  EXPECT_EQ(stats.test_periods, 20);
}

}  // namespace
}  // namespace ppn::market
