// Unit tests for the cuDF-like dataframe: columns, filters, group-by,
// joins, sorting, reductions, printing.
#include <gtest/gtest.h>

#include "dataframe/dataframe.hpp"
#include "gpusim/device_manager.hpp"

namespace df = sagesim::df;
namespace gpu = sagesim::gpu;

namespace {

df::DataFrame sales_frame() {
  return df::DataFrame({
      df::Column("region", std::vector<std::string>{"east", "west", "east",
                                                    "west", "east"}),
      df::Column("units", std::vector<std::int64_t>{10, 20, 30, 40, 50}),
      df::Column("price", std::vector<double>{1.5, 2.0, 1.0, 3.0, 2.5}),
  });
}

}  // namespace

// --- Column -----------------------------------------------------------------

TEST(Column, TypedAccessAndDtype) {
  df::Column c("x", std::vector<double>{1.0, 2.0});
  EXPECT_EQ(c.dtype(), df::DType::kFloat64);
  EXPECT_TRUE(c.is_numeric());
  EXPECT_EQ(c.f64().size(), 2u);
  EXPECT_THROW(c.i64(), std::logic_error);
  EXPECT_DOUBLE_EQ(c.numeric_at(1), 2.0);
}

TEST(Column, StringColumnRejectsNumericAt) {
  df::Column c("s", std::vector<std::string>{"a"});
  EXPECT_FALSE(c.is_numeric());
  EXPECT_THROW(c.numeric_at(0), std::logic_error);
}

TEST(Column, GatherReordersAndValidates) {
  df::Column c("x", std::vector<std::int64_t>{10, 20, 30});
  const std::vector<std::size_t> rows{2, 0};
  const auto g = c.gather(rows);
  EXPECT_EQ(g.i64()[0], 30);
  EXPECT_EQ(g.i64()[1], 10);
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW(c.gather(bad), std::out_of_range);
}

// --- DataFrame construction ---------------------------------------------------

TEST(DataFrame, RejectsRaggedAndDuplicateColumns) {
  EXPECT_THROW(df::DataFrame({df::Column("a", std::vector<double>{1}),
                              df::Column("b", std::vector<double>{1, 2})}),
               std::invalid_argument);
  EXPECT_THROW(df::DataFrame({df::Column("a", std::vector<double>{1}),
                              df::Column("a", std::vector<double>{2})}),
               std::invalid_argument);
}

TEST(DataFrame, SelectAndWithColumn) {
  auto frame = sales_frame();
  const auto proj = frame.select({"units", "region"});
  EXPECT_EQ(proj.num_cols(), 2u);
  EXPECT_THROW(frame.select({"missing"}), std::invalid_argument);

  frame.with_column(df::Column("discount", std::vector<double>(5, 0.1)));
  EXPECT_TRUE(frame.has_col("discount"));
  frame.with_column(df::Column("price", std::vector<double>(5, 9.9)));
  EXPECT_DOUBLE_EQ(frame.col("price").f64()[0], 9.9);  // replaced
  EXPECT_THROW(
      frame.with_column(df::Column("bad", std::vector<double>{1.0})),
      std::invalid_argument);
}

TEST(DataFrame, HeadRendersWithoutCrashing) {
  const auto text = sales_frame().head(3);
  EXPECT_NE(text.find("region"), std::string::npos);
  EXPECT_NE(text.find("east"), std::string::npos);
}

// --- filter ---------------------------------------------------------------------

TEST(DataFrameFilter, NumericPredicates) {
  const auto frame = sales_frame();
  EXPECT_EQ(frame.filter(nullptr, "units", df::Cmp::kGt, 25).num_rows(), 3u);
  EXPECT_EQ(frame.filter(nullptr, "units", df::Cmp::kLe, 20).num_rows(), 2u);
  EXPECT_EQ(frame.filter(nullptr, "price", df::Cmp::kEq, 2.0).num_rows(), 1u);
  EXPECT_EQ(frame.filter(nullptr, "price", df::Cmp::kNe, 2.0).num_rows(), 4u);
}

TEST(DataFrameFilter, KeepsAllColumnsAligned) {
  const auto frame = sales_frame();
  const auto f = frame.filter(nullptr, "units", df::Cmp::kGe, 30);
  ASSERT_EQ(f.num_rows(), 3u);
  EXPECT_EQ(f.col("region").str()[0], "east");
  EXPECT_DOUBLE_EQ(f.col("price").f64()[0], 1.0);
}

TEST(DataFrameFilter, DeviceMatchesHost) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  const auto frame = sales_frame();
  const auto host = frame.filter(nullptr, "units", df::Cmp::kGt, 15);
  const auto dev = frame.filter(&dm.device(0), "units", df::Cmp::kGt, 15);
  EXPECT_EQ(host.num_rows(), dev.num_rows());
  EXPECT_GT(dm.timeline().snapshot(sagesim::prof::EventKind::kKernel).size(),
            0u);
}

TEST(DataFrameFilter, RejectsStringColumns) {
  const auto frame = sales_frame();
  EXPECT_THROW(frame.filter(nullptr, "region", df::Cmp::kEq, 1.0),
               std::invalid_argument);
}

// --- group_by -------------------------------------------------------------------

TEST(GroupBy, SumByStringKey) {
  const auto frame = sales_frame();
  const auto g = frame.group_by(nullptr, "region", "units", df::Agg::kSum);
  ASSERT_EQ(g.num_rows(), 2u);
  // First-occurrence order: east then west.
  EXPECT_EQ(g.col("region").str()[0], "east");
  EXPECT_DOUBLE_EQ(g.col("sum_units").f64()[0], 90.0);
  EXPECT_DOUBLE_EQ(g.col("sum_units").f64()[1], 60.0);
}

TEST(GroupBy, MeanMinMaxCount) {
  const auto frame = sales_frame();
  const auto mean = frame.group_by(nullptr, "region", "price", df::Agg::kMean);
  EXPECT_NEAR(mean.col("mean_price").f64()[0], (1.5 + 1.0 + 2.5) / 3, 1e-12);
  const auto mn = frame.group_by(nullptr, "region", "price", df::Agg::kMin);
  EXPECT_DOUBLE_EQ(mn.col("min_price").f64()[1], 2.0);
  const auto mx = frame.group_by(nullptr, "region", "price", df::Agg::kMax);
  EXPECT_DOUBLE_EQ(mx.col("max_price").f64()[0], 2.5);
  const auto cnt = frame.group_by(nullptr, "region", "units", df::Agg::kCount);
  EXPECT_EQ(cnt.col("count_units").i64()[0], 3);
}

TEST(GroupBy, Int64KeysWork) {
  df::DataFrame frame({df::Column("k", std::vector<std::int64_t>{1, 2, 1}),
                       df::Column("v", std::vector<double>{5, 6, 7})});
  const auto g = frame.group_by(nullptr, "k", "v", df::Agg::kSum);
  EXPECT_EQ(g.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(g.col("sum_v").f64()[0], 12.0);
}

TEST(GroupBy, RejectsFloatKeys) {
  df::DataFrame frame({df::Column("k", std::vector<double>{1.0}),
                       df::Column("v", std::vector<double>{5.0})});
  EXPECT_THROW(frame.group_by(nullptr, "k", "v", df::Agg::kSum),
               std::invalid_argument);
}

// --- sort / join ------------------------------------------------------------------

TEST(Sort, NumericAndStringBothDirections) {
  const auto frame = sales_frame();
  const auto asc = frame.sort_by("price");
  EXPECT_DOUBLE_EQ(asc.col("price").f64()[0], 1.0);
  const auto desc = frame.sort_by("price", false);
  EXPECT_DOUBLE_EQ(desc.col("price").f64()[0], 3.0);
  const auto by_region = frame.sort_by("region");
  EXPECT_EQ(by_region.col("region").str()[0], "east");
  EXPECT_EQ(by_region.col("region").str()[4], "west");
}

TEST(Sort, IsStable) {
  df::DataFrame frame({df::Column("k", std::vector<std::int64_t>{1, 1, 1}),
                       df::Column("id", std::vector<std::int64_t>{7, 8, 9})});
  const auto s = frame.sort_by("k");
  EXPECT_EQ(s.col("id").i64()[0], 7);
  EXPECT_EQ(s.col("id").i64()[2], 9);
}

TEST(Join, InnerJoinOnStringKey) {
  const auto left = sales_frame();
  df::DataFrame right({df::Column("region", std::vector<std::string>{
                                                "east", "west", "north"}),
                       df::Column("manager", std::vector<std::string>{
                                                 "ann", "bob", "cal"})});
  const auto j = left.join(nullptr, right, "region");
  EXPECT_EQ(j.num_rows(), 5u);  // north unmatched; all left rows match
  EXPECT_EQ(j.col("manager").str()[0], "ann");
  EXPECT_EQ(j.col("manager").str()[1], "bob");
}

TEST(Join, DuplicateRightKeysMultiplyRows) {
  df::DataFrame left({df::Column("k", std::vector<std::int64_t>{1, 2})});
  df::DataFrame right({df::Column("k", std::vector<std::int64_t>{1, 1}),
                       df::Column("v", std::vector<double>{10, 20})});
  const auto j = left.join(nullptr, right, "k");
  EXPECT_EQ(j.num_rows(), 2u);  // key 1 matches twice, key 2 none
}

TEST(Join, ClashingColumnNamesGetSuffix) {
  df::DataFrame left({df::Column("k", std::vector<std::int64_t>{1}),
                      df::Column("v", std::vector<double>{1.0})});
  df::DataFrame right({df::Column("k", std::vector<std::int64_t>{1}),
                       df::Column("v", std::vector<double>{2.0})});
  const auto j = left.join(nullptr, right, "k");
  EXPECT_TRUE(j.has_col("v"));
  EXPECT_TRUE(j.has_col("v_r"));
  EXPECT_DOUBLE_EQ(j.col("v_r").f64()[0], 2.0);
}

// --- reduce ------------------------------------------------------------------------

TEST(Reduce, AllAggregations) {
  const auto frame = sales_frame();
  EXPECT_DOUBLE_EQ(frame.reduce(nullptr, "units", df::Agg::kSum), 150.0);
  EXPECT_DOUBLE_EQ(frame.reduce(nullptr, "units", df::Agg::kMean), 30.0);
  EXPECT_DOUBLE_EQ(frame.reduce(nullptr, "units", df::Agg::kMin), 10.0);
  EXPECT_DOUBLE_EQ(frame.reduce(nullptr, "units", df::Agg::kMax), 50.0);
  EXPECT_DOUBLE_EQ(frame.reduce(nullptr, "units", df::Agg::kCount), 5.0);
}

TEST(Reduce, DeviceChargesKernelTime) {
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  const auto frame = sales_frame();
  frame.reduce(&dm.device(0), "price", df::Agg::kSum);
  EXPECT_GT(dm.now_s(), 0.0);
}
