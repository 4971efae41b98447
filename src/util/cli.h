/**
 * @file
 * One argv walker for the command-line tools and the figure benches.
 *
 *   CliArgs cli(argc, argv, usage);
 *   while (cli.next()) {
 *       if (cli.is("--racks"))
 *           racks = cli.count();
 *       else if (cli.is("--out"))
 *           out = cli.value();
 *       else
 *           cli.unknown();
 *   }
 *
 * Every value goes through one place: a missing value is fatal, and
 * every number goes through parseNumber, so "2x" fails naming the
 * flag. next() consumes the shared flags itself: `--jobs N` sizes the
 * shared thread pool in every binary. A binary with a usage text (the
 * run tools) also takes `--log-level LEVEL`, which sets the log
 * threshold, and `--help`/`-h`, which prints the usage and exits; the
 * figure benches pass none and take `--jobs` only.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace heb {

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &list);

/** Walks argv once, flag by flag. */
class CliArgs
{
  public:
    /**
     * @p usage is printed by `--help`/`-h` and before the fatal on an
     * unknown argument; without one, `--help` and `--log-level` are
     * unknown arguments.
     */
    CliArgs(int argc, char **argv, std::string usage);

    /** Step to the next argument the caller must handle. */
    bool next();

    /** The current argument. */
    const char *arg() const;

    /** True when the current argument is @p flag. */
    bool is(const char *flag) const;

    /** The current flag's value (the next argument); fatal if none. */
    std::string value();

    /** The value parsed as T (double, long, long long). */
    template <typename T>
    T number();

    /** An integral value >= 1. */
    std::size_t count();

    /** A finite, positive value. */
    double positive();

    /** Print the usage text and fatal() on the current argument. */
    [[noreturn]] void unknown() const;

  private:
    int argc_;
    char **argv_;
    int index_ = 0;
    std::string usage_;
};

/** The figure benches' argv: `--jobs N` only. */
void parseJobsOnly(int argc, char **argv);

} // namespace heb
