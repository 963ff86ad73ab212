/**
 * @file
 * Unit tests for the shared CLI helper header (tools/cli_util.hh):
 * list splitting, strict number parsing (including the fatal paths),
 * and the output-file plumbing every tool shares.
 */

#include "tools/cli_util.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "sweep/sweep.hh"

using namespace flywheel;

TEST(SplitList, BasicAndEmptyItems)
{
    EXPECT_EQ(cli::splitList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(cli::splitList("a,,b,"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(cli::splitList(""), std::vector<std::string>{});
    EXPECT_EQ(cli::splitList("solo"),
              std::vector<std::string>{"solo"});
}

TEST(ParseDoubles, ParsesList)
{
    std::vector<double> v = cli::parseDoubles("0,0.5,1.0", "--fe");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[1], 0.5);
    EXPECT_DOUBLE_EQ(v[2], 1.0);
}

TEST(ParseDoublesDeathTest, RejectsGarbage)
{
    EXPECT_EXIT(cli::parseDoubles("0.5,zebra", "--fe"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(cli::parseDoubles(",", "--fe"),
                ::testing::ExitedWithCode(1), "empty list");
}

TEST(ParseU64, ParsesPlainDecimals)
{
    EXPECT_EQ(cli::parseU64("0", "--n"), 0u);
    EXPECT_EQ(cli::parseU64("300000", "--n"), 300000u);
}

TEST(ParseU64DeathTest, RejectsSignsAndGarbage)
{
    EXPECT_EXIT(cli::parseU64("-1", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(cli::parseU64("12x", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(cli::parseU64("", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
    EXPECT_EXIT(cli::parseU64("18446744073709551616", "--n"),
                ::testing::ExitedWithCode(1), "bad number");
}

TEST(ParseJobs, AcceptsSameRangeAsEnvVar)
{
    EXPECT_EQ(cli::parseJobs("1", "--jobs"), 1u);
    EXPECT_EQ(cli::parseJobs("8", "--jobs"), 8u);
}

TEST(ParseJobsDeathTest, RejectsZeroAndGarbage)
{
    EXPECT_EXIT(cli::parseJobs("0", "--jobs"),
                ::testing::ExitedWithCode(1), "expected an integer");
    EXPECT_EXIT(cli::parseJobs("many", "--jobs"),
                ::testing::ExitedWithCode(1), "expected an integer");
}

TEST(OpenOut, DashMeansStdout)
{
    std::ofstream file;
    std::ostream &os = cli::openOut("-", file);
    EXPECT_EQ(&os, &std::cout);
    EXPECT_FALSE(file.is_open());
}

TEST(OpenOut, WritesNamedFile)
{
    const std::string path = ::testing::TempDir() + "cli_util_out.txt";
    {
        std::ofstream file;
        std::ostream &os = cli::openOut(path, file);
        os << "hello\n";
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "hello");
    std::remove(path.c_str());
}

TEST(RequireValue, ReturnsNextArgAndAdvances)
{
    const char *argv_c[] = {"prog", "--flag", "value"};
    char **argv = const_cast<char **>(argv_c);
    int i = 1;
    EXPECT_EQ(cli::requireValue(3, argv, &i, "--flag"), "value");
    EXPECT_EQ(i, 2);
}

TEST(RequireValueDeathTest, MissingValueIsFatal)
{
    const char *argv_c[] = {"prog", "--flag"};
    char **argv = const_cast<char **>(argv_c);
    int i = 1;
    EXPECT_EXIT(cli::requireValue(2, argv, &i, "--flag"),
                ::testing::ExitedWithCode(1), "requires a value");
}

TEST(FormatEta, ClampsHugeEstimatesAndGuardsBadInput)
{
    EXPECT_EQ(cli::formatEta(5.0), " eta 5s");
    EXPECT_EQ(cli::formatEta(5.4), " eta 5s");
    EXPECT_EQ(cli::formatEta(90.0), " eta 1m30s");
    EXPECT_EQ(cli::formatEta(3600.0), " eta 60m00s");
    EXPECT_EQ(cli::formatEta(99.0 * 3600.0), " eta 5940m00s");

    // Early in a run the rate extrapolation can produce absurd
    // estimates; int(left) on those is UB.  Clamp the display
    // instead of casting.
    EXPECT_EQ(cli::formatEta(99.0 * 3600.0 + 1.0), " eta >99h");
    EXPECT_EQ(cli::formatEta(1e18), " eta >99h");
    EXPECT_EQ(cli::formatEta(std::numeric_limits<double>::infinity()),
              " eta >99h");

    // No estimate at all beats a bogus one.
    EXPECT_EQ(cli::formatEta(-1.0), "");
    EXPECT_EQ(cli::formatEta(std::numeric_limits<double>::quiet_NaN()),
              "");
}

TEST(StderrProgress, MatchesSweepProgressSignature)
{
    // The shared printer must stay assignable to the sweep/session
    // progress slot (the compile is the real assertion).
    SweepOptions opts;
    opts.progress = cli::stderrProgress;
    EXPECT_TRUE(static_cast<bool>(opts.progress));
}

TEST(UnknownFlag, MessageNamesTheFlag)
{
    // Every CLI funnels unrecognized options through this one
    // message, so no tool can silently ignore a typo'd flag.
    EXPECT_EQ(cli::unknownFlagMessage("--frobnicate"),
              "unknown option: --frobnicate");
}

TEST(UnknownFlagDeathTest, RejectExitsWithUsageStatus)
{
    static auto usage = [](const char *) {
        std::fprintf(stderr, "usage: prog\n");
    };
    EXPECT_EXIT(cli::rejectUnknownFlag("prog", "--zorp", usage),
                ::testing::ExitedWithCode(2), "unknown option: --zorp");
}

TEST(SnapshotFlags, ParsesTheSharedFlagSet)
{
    const char *argv_c[] = {"prog", "--checkpoint-dir", "/tmp/ck",
                            "--no-checkpoints"};
    char **argv = const_cast<char **>(argv_c);

    cli::SnapshotFlags flags;
    flags.dir.clear();  // isolate from FLYWHEEL_CHECKPOINTS
    int i = 1;
    EXPECT_TRUE(flags.tryParse(argv[i], 4, argv, &i));
    EXPECT_EQ(flags.dir, "/tmp/ck");
    EXPECT_EQ(flags.checkpointDir(), "/tmp/ck");
    ++i;
    EXPECT_TRUE(flags.tryParse(argv[i], 4, argv, &i));
    // --no-checkpoints wins over any configured directory.
    EXPECT_EQ(flags.checkpointDir(), "");

    int j = 0;
    cli::SnapshotFlags other;
    EXPECT_FALSE(other.tryParse("--jobs", 4, argv, &j));
    EXPECT_EQ(j, 0);
}

TEST(SnapshotFlags, ParsesCapFlagAndAppliesStoreKnobs)
{
    const char *argv_c[] = {"prog", "--checkpoint-cap-mb", "256"};
    char **argv = const_cast<char **>(argv_c);

    cli::SnapshotFlags flags;
    flags.dir = "/tmp/store";
    flags.capBytes = 0;  // isolate from FLYWHEEL_CHECKPOINT_CAP_MB
    int i = 1;
    EXPECT_TRUE(flags.tryParse(argv[i], 3, argv, &i));
    EXPECT_EQ(flags.capBytes, 256ull << 20);

    // apply() stamps both store knobs onto any options struct with
    // the shared field names.
    SweepOptions opts;
    flags.apply(&opts);
    EXPECT_EQ(opts.checkpointDir, "/tmp/store");
    EXPECT_EQ(opts.checkpointCapBytes, 256ull << 20);
}
