// Unit tests for vtm::util — contracts, units, RNG, statistics, CSV, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace vu = vtm::util;

// ---- contracts -------------------------------------------------------------

TEST(contracts, expects_throws_on_violation) {
  EXPECT_THROW(VTM_EXPECTS(1 == 2), vu::contract_error);
}

TEST(contracts, expects_passes_on_true) { EXPECT_NO_THROW(VTM_EXPECTS(1 == 1)); }

TEST(contracts, message_contains_expression_and_location) {
  try {
    VTM_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const vu::contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(contracts, ensures_and_assert_throw) {
  EXPECT_THROW(VTM_ENSURES(false), vu::contract_error);
  EXPECT_THROW(VTM_ASSERT(false), vu::contract_error);
}

// ---- units ----------------------------------------------------------------

TEST(units, db_to_linear_known_values) {
  EXPECT_DOUBLE_EQ(vu::db_to_linear(0.0), 1.0);
  EXPECT_DOUBLE_EQ(vu::db_to_linear(10.0), 10.0);
  EXPECT_DOUBLE_EQ(vu::db_to_linear(20.0), 100.0);
  EXPECT_NEAR(vu::db_to_linear(-20.0), 0.01, 1e-15);
}

TEST(units, dbm_to_watt_known_values) {
  EXPECT_NEAR(vu::dbm_to_watt(0.0), 1e-3, 1e-18);
  EXPECT_NEAR(vu::dbm_to_watt(30.0), 1.0, 1e-12);
  EXPECT_NEAR(vu::dbm_to_watt(40.0), 10.0, 1e-12);    // paper's ρ
  EXPECT_NEAR(vu::dbm_to_watt(-150.0), 1e-18, 1e-30); // paper's N0
}

TEST(units, linear_to_db_requires_positive) {
  EXPECT_THROW((void)vu::linear_to_db(0.0), vu::contract_error);
  EXPECT_THROW((void)vu::linear_to_db(-1.0), vu::contract_error);
}

TEST(units, watt_to_dbm_requires_positive) {
  EXPECT_THROW((void)vu::watt_to_dbm(0.0), vu::contract_error);
}

class units_roundtrip : public ::testing::TestWithParam<double> {};

TEST_P(units_roundtrip, db_roundtrip) {
  const double db = GetParam();
  EXPECT_NEAR(vu::linear_to_db(vu::db_to_linear(db)), db, 1e-9);
}

TEST_P(units_roundtrip, dbm_roundtrip) {
  const double dbm = GetParam();
  EXPECT_NEAR(vu::watt_to_dbm(vu::dbm_to_watt(dbm)), dbm, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(sweep, units_roundtrip,
                         ::testing::Values(-150.0, -60.0, -20.0, -3.0, 0.0,
                                           3.0, 10.0, 40.0, 90.0));

TEST(units, data_and_bandwidth_conversions) {
  EXPECT_DOUBLE_EQ(vu::megabytes_to_bits(1.0), 8.0e6);
  EXPECT_DOUBLE_EQ(vu::megabytes_to_bits(100.0), 8.0e8);
  EXPECT_DOUBLE_EQ(vu::mhz_to_hz(50.0), 5.0e7);
}

// ---- rng --------------------------------------------------------------------

TEST(rng, deterministic_given_seed) {
  vu::rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(rng, different_seeds_differ) {
  vu::rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 2);
}

TEST(rng, uniform_in_unit_interval) {
  vu::rng gen(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(rng, uniform_range_respected) {
  vu::rng gen(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = gen.uniform(5.0, 50.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 50.0);
  }
}

TEST(rng, uniform_rejects_inverted_range) {
  vu::rng gen(7);
  EXPECT_THROW((void)gen.uniform(2.0, 1.0), vu::contract_error);
}

TEST(rng, uniform_mean_near_center) {
  vu::rng gen(11);
  vu::running_stats acc;
  for (int i = 0; i < 100000; ++i) acc.push(gen.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
  EXPECT_NEAR(acc.variance(), 1.0 / 12.0, 0.01);
}

TEST(rng, uniform_int_inclusive_bounds) {
  vu::rng gen(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = gen.uniform_int(0, 9);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 9;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(rng, normal_moments) {
  vu::rng gen(13);
  vu::running_stats acc;
  for (int i = 0; i < 200000; ++i) acc.push(gen.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(rng, normal_scaled) {
  vu::rng gen(17);
  vu::running_stats acc;
  for (int i = 0; i < 100000; ++i) acc.push(gen.normal(3.0, 2.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(rng, normal_rejects_negative_stddev) {
  vu::rng gen(1);
  EXPECT_THROW((void)gen.normal(0.0, -1.0), vu::contract_error);
}

TEST(rng, bernoulli_frequency) {
  vu::rng gen(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += gen.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

TEST(rng, bernoulli_bounds) {
  vu::rng gen(1);
  EXPECT_THROW((void)gen.bernoulli(-0.1), vu::contract_error);
  EXPECT_THROW((void)gen.bernoulli(1.1), vu::contract_error);
}

TEST(rng, exponential_mean) {
  vu::rng gen(23);
  vu::running_stats acc;
  for (int i = 0; i < 100000; ++i) acc.push(gen.exponential(2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(rng, permutation_is_valid) {
  vu::rng gen(29);
  const auto perm = gen.permutation(100);
  ASSERT_EQ(perm.size(), 100u);
  std::vector<bool> seen(100, false);
  for (auto i : perm) {
    ASSERT_LT(i, 100u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(rng, split_streams_are_independent) {
  vu::rng parent(31);
  vu::rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (parent.next() == child.next());
  EXPECT_LT(equal, 2);
}

TEST(rng, splitmix64_changes_state) {
  std::uint64_t s = 0;
  const auto a = vu::splitmix64(s);
  const auto b = vu::splitmix64(s);
  EXPECT_NE(a, b);
}

// ---- stats ------------------------------------------------------------------

TEST(stats, welford_matches_direct_computation) {
  vu::running_stats acc;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  for (double x : xs) acc.push(x);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.sum(), 31.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 6.2);
  // Unbiased variance computed by hand: Σ(x−m)² / 4
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= 4.0;
  EXPECT_NEAR(acc.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 16.0);
}

TEST(stats, variance_zero_for_single_observation) {
  vu::running_stats acc;
  acc.push(42.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(stats, merge_equals_sequential) {
  vu::rng gen(3);
  vu::running_stats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = gen.normal();
    whole.push(x);
    (i < 400 ? left : right).push(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(stats, merge_with_empty_is_identity) {
  vu::running_stats a, b;
  a.push(1.0);
  a.push(3.0);
  const double mean_before = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(stats, mean_and_stddev_free_functions) {
  const std::vector<double> xs{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(vu::mean(xs), 4.0);
  EXPECT_NEAR(vu::stddev(xs), 2.0, 1e-12);
  EXPECT_THROW((void)vu::mean(std::span<const double>{}), vu::contract_error);
}

TEST(stats, percentile_interpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(vu::percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(vu::percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(vu::percentile(xs, 50.0), 25.0);
}

TEST(stats, ols_slope_recovers_line) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 7.0);
  }
  EXPECT_NEAR(vu::ols_slope(x, y), 3.0, 1e-12);
}

TEST(stats, ols_slope_rejects_constant_x) {
  const std::vector<double> x{1.0, 1.0, 1.0};
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_THROW((void)vu::ols_slope(x, y), vu::contract_error);
}

TEST(stats, moving_average_window) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto ma = vu::moving_average(xs, 2);
  ASSERT_EQ(ma.size(), xs.size());
  EXPECT_DOUBLE_EQ(ma[0], 1.0);
  EXPECT_DOUBLE_EQ(ma[1], 1.5);
  EXPECT_DOUBLE_EQ(ma[4], 4.5);
}

TEST(stats, moving_average_window_one_is_identity) {
  const std::vector<double> xs{3.0, 1.0, 4.0};
  EXPECT_EQ(vu::moving_average(xs, 1), xs);
}

// ---- csv --------------------------------------------------------------------

TEST(csv, header_and_rows) {
  std::ostringstream out;
  vu::csv_writer csv(out, {"a", "b"});
  csv.row({1.0, 2.5});
  csv.row({3.0, 4.0});
  EXPECT_EQ(out.str(), "a,b\n1,2.5\n3,4\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(csv, arity_enforced) {
  std::ostringstream out;
  vu::csv_writer csv(out, {"a", "b"});
  EXPECT_THROW((void)csv.row({1.0}), vu::contract_error);
}

TEST(csv, escaping_rfc4180) {
  EXPECT_EQ(vu::csv_writer::escape("plain"), "plain");
  EXPECT_EQ(vu::csv_writer::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(vu::csv_writer::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(csv, format_number_compact) {
  EXPECT_EQ(vu::format_number(1.0), "1");
  EXPECT_EQ(vu::format_number(0.5), "0.5");
  EXPECT_EQ(vu::format_number(1e100), "1e+100");
  EXPECT_EQ(vu::format_number(std::nan("")), "nan");
}

// ---- table / chart -----------------------------------------------------------

TEST(table, renders_aligned_grid) {
  vu::ascii_table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"long-name", "2"});
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("| name"), std::string::npos);
  EXPECT_NE(rendered.find("| long-name"), std::string::npos);
  EXPECT_NE(rendered.find("+--"), std::string::npos);
}

TEST(table, arity_enforced) {
  vu::ascii_table table({"a"});
  EXPECT_THROW((void)table.add_row({"1", "2"}), vu::contract_error);
}

TEST(chart, renders_series_and_legend) {
  vu::ascii_chart chart(40, 8);
  chart.set_title("demo");
  chart.add_series({"up", {1, 2, 3, 4, 5}, '*'});
  chart.add_series({"down", {5, 4, 3, 2, 1}, 'o'});
  const std::string rendered = chart.render();
  EXPECT_NE(rendered.find("demo"), std::string::npos);
  EXPECT_NE(rendered.find("* = up"), std::string::npos);
  EXPECT_NE(rendered.find("o = down"), std::string::npos);
}

TEST(chart, handles_empty_and_constant) {
  vu::ascii_chart empty(20, 4);
  EXPECT_NE(empty.render().find("(no data)"), std::string::npos);
  vu::ascii_chart flat(20, 4);
  flat.add_series({"c", {2.0, 2.0, 2.0}, '*'});
  EXPECT_FALSE(flat.render().empty());
}
