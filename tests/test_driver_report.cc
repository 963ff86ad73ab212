/**
 * @file
 * Tests of the simulation driver and the report formatter, including
 * the front-end power-gating extension.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>

#include "core/report.hh"
#include "core/sim_driver.hh"
#include "workload/profiles.hh"

namespace flywheel {
namespace {

/** Scoped setenv/unsetenv so env tests cannot leak into each other. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *var, const char *value) : var_(var)
    {
        if (value)
            ::setenv(var, value, 1);
        else
            ::unsetenv(var);
    }
    ~ScopedEnv() { ::unsetenv(var_); }

  private:
    const char *var_;
};

RunConfig
shortConfig(CoreKind kind)
{
    RunConfig cfg;
    cfg.profile = benchmarkByName("gzip");
    cfg.kind = kind;
    cfg.params = clockedParams(0.0, 0.5);
    cfg.warmupInstrs = 30000;
    cfg.measureInstrs = 50000;
    return cfg;
}

TEST(Driver, ParseInstrCountIsStrict)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseInstrCount("1", &v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(parseInstrCount("300000", &v));
    EXPECT_EQ(v, 300000u);
    EXPECT_TRUE(parseInstrCount("18446744073709551615", &v));
    EXPECT_EQ(v, ~std::uint64_t(0));

    // Everything strtoull would quietly half-accept is rejected:
    // signs (negatives wrap to huge counts), unit suffixes, hex,
    // whitespace, overflow, zero, and empty/null.
    for (const char *bad :
         {"", "0", "-1", "+5", " 7", "7 ", "100k", "0x10", "1e6",
          "12.5", "18446744073709551616", "abc"})
        EXPECT_FALSE(parseInstrCount(bad, &v)) << "'" << bad << "'";
    EXPECT_FALSE(parseInstrCount(nullptr, &v));
}

TEST(Driver, InstrEnvVarsFallBackToDefaultsOnGarbage)
{
    {
        ScopedEnv sim("FLYWHEEL_SIM_INSTRS", nullptr);
        ScopedEnv warm("FLYWHEEL_WARMUP_INSTRS", nullptr);
        EXPECT_EQ(defaultMeasureInstrs(), 300000u);
        EXPECT_EQ(defaultWarmupInstrs(), 100000u);
    }
    {
        ScopedEnv sim("FLYWHEEL_SIM_INSTRS", "42000");
        ScopedEnv warm("FLYWHEEL_WARMUP_INSTRS", "7000");
        EXPECT_EQ(defaultMeasureInstrs(), 42000u);
        EXPECT_EQ(defaultWarmupInstrs(), 7000u);
    }
    // Garbage, negative, and overflowing values used to feed atoll's
    // result straight into the run length; now they warn and fall
    // back to the documented defaults.
    for (const char *bad :
         {"garbage", "-5", "0", "100k", "99999999999999999999"}) {
        ScopedEnv sim("FLYWHEEL_SIM_INSTRS", bad);
        ScopedEnv warm("FLYWHEEL_WARMUP_INSTRS", bad);
        EXPECT_EQ(defaultMeasureInstrs(), 300000u) << bad;
        EXPECT_EQ(defaultWarmupInstrs(), 100000u) << bad;
    }
}

TEST(Driver, ClockedParamsMatchPaperNotation)
{
    CoreParams p = clockedParams(0.5, 0.5);
    EXPECT_DOUBLE_EQ(p.basePeriodPs, 1000.0);
    EXPECT_NEAR(p.fePeriodPs, 666.67, 0.1);
    EXPECT_NEAR(p.beFastPeriodPs, 666.67, 0.1);
    CoreParams q = clockedParams(1.0, 0.0);
    EXPECT_DOUBLE_EQ(q.fePeriodPs, 500.0);
    EXPECT_DOUBLE_EQ(q.beFastPeriodPs, 1000.0);
}

TEST(Driver, ValidClockBoostHasAPositiveTickPeriod)
{
    // Usable boosts, including slow-downs down to 1000 base periods
    // and the 0.5 ps edge that still rounds to a one-tick period.
    for (double ok : {0.0, 0.5, 1.0, -0.5, -0.999, 100.0, 1999.0})
        EXPECT_TRUE(isValidClockBoost(ok)) << ok;
    // Periods of 0 ps (rounded), zero or negative denominators,
    // non-finite input, and periods past 1000 base periods: each hung
    // or wedged the simulator.
    for (double bad : {1e9, 1999.5, -1.0, -2.0, -0.999999,
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()})
        EXPECT_FALSE(isValidClockBoost(bad)) << bad;
}

TEST(Driver, WarmupWindowIsExcluded)
{
    RunConfig cfg = shortConfig(CoreKind::Baseline);
    RunResult r = runSim(cfg);
    // The measured window must cover only measureInstrs.
    EXPECT_GE(r.instructions, cfg.measureInstrs);
    EXPECT_LE(r.instructions, cfg.measureInstrs + 8);
    // Events are window deltas: cycle counts consistent with time.
    EXPECT_NEAR(double(r.events.beCycles) * 1000.0, double(r.timePs),
                double(r.timePs) * 0.01);
}

TEST(Driver, PowerGatingSavesLeakageOnlyOnTheFlywheel)
{
    RunConfig cfg = shortConfig(CoreKind::Flywheel);
    RunResult clock_gated = runSim(cfg);
    cfg.frontEndPowerGating = true;
    RunResult power_gated = runSim(cfg);

    // Same timing, strictly less leakage energy.
    EXPECT_EQ(clock_gated.timePs, power_gated.timePs);
    EXPECT_LT(power_gated.energy.leakagePj,
              clock_gated.energy.leakagePj);
    EXPECT_EQ(power_gated.energy.frontEndPj,
              clock_gated.energy.frontEndPj);
}

TEST(Driver, PowerGatingIsNoOpOnTheBaseline)
{
    RunConfig cfg = shortConfig(CoreKind::Baseline);
    RunResult a = runSim(cfg);
    cfg.frontEndPowerGating = true;
    RunResult b = runSim(cfg);
    // The baseline front-end is always live: nothing to gate.
    EXPECT_NEAR(b.energy.leakagePj, a.energy.leakagePj,
                a.energy.leakagePj * 1e-9);
}

TEST(Driver, FeActiveTimeTracksResidency)
{
    RunConfig cfg = shortConfig(CoreKind::Flywheel);
    RunResult r = runSim(cfg);
    ASSERT_GT(r.ecResidency, 0.3);
    double fe_frac =
        double(r.events.feActiveTicks) / double(r.events.totalTicks);
    EXPECT_LT(fe_frac, 1.0 - r.ecResidency * 0.5);
}

TEST(Report, SingleRunContainsKeyLines)
{
    RunResult r = runSim(shortConfig(CoreKind::Flywheel));
    std::ostringstream os;
    writeReport(os, "flywheel/gzip", r);
    std::string out = os.str();
    EXPECT_NE(out.find("execution time"), std::string::npos);
    EXPECT_NE(out.find("EC residency"), std::string::npos);
    EXPECT_NE(out.find("energy breakdown"), std::string::npos);
    EXPECT_NE(out.find("leakage"), std::string::npos);
}

TEST(Report, BaselineOmitsTraceSection)
{
    RunResult r = runSim(shortConfig(CoreKind::Baseline));
    std::ostringstream os;
    writeReport(os, "baseline/gzip", r);
    EXPECT_EQ(os.str().find("traces built"), std::string::npos);
}

TEST(Report, ComparisonComputesRatios)
{
    RunResult a = runSim(shortConfig(CoreKind::Baseline));
    RunResult b = runSim(shortConfig(CoreKind::Flywheel));
    std::ostringstream os;
    writeComparison(os, "baseline", a, "flywheel", b);
    std::string out = os.str();
    EXPECT_NE(out.find("speedup"), std::string::npos);
    EXPECT_NE(out.find("energy ratio"), std::string::npos);
    EXPECT_NE(out.find("flywheel vs baseline"), std::string::npos);
}

} // namespace
} // namespace flywheel
