/**
 * @file
 * Per-process scratch paths for tests that write files.
 *
 * gtest_discover_tests runs every TEST in its own process, and
 * `ctest -j` runs those processes side by side.  A fixed name under
 * ::testing::TempDir() is therefore shared by every test that uses it:
 * one process rewrites or truncates the file while another is reading
 * it (a mapped trace container then dies with SIGBUS).  testPath()
 * instead places each file in a directory named after the process id
 * and the running test, removed again when the process exits.
 */

#ifndef REPLAY_TESTS_TESTDIR_HH
#define REPLAY_TESTS_TESTDIR_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace replay::testutil {

/** The running test ("Suite.Name"), or its suite during suite set-up. */
inline std::string
currentTestName()
{
    const ::testing::UnitTest *unit = ::testing::UnitTest::GetInstance();
    if (const ::testing::TestInfo *info = unit->current_test_info())
        return std::string(info->test_suite_name()) + "." + info->name();
    if (const ::testing::TestSuite *suite = unit->current_test_suite())
        return suite->name();
    return "global";
}

/** This process's scratch root; deleted with everything in it at exit. */
inline const std::string &
processDir()
{
    struct Root
    {
        std::string path = ::testing::TempDir() + "replay-" +
                           std::to_string(::getpid()) + "/";
        ~Root()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const Root root;
    return root.path;
}

/** A path for @p name private to this process and the running test. */
inline std::string
testPath(const std::string &name)
{
    std::string test = currentTestName();
    for (char &c : test) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' ||
                          c == '_' || c == '-';
        if (!keep)
            c = '_';
    }
    const std::string dir = processDir() + test + "/";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir + name;
}

} // namespace replay::testutil

#endif // REPLAY_TESTS_TESTDIR_HH
