/**
 * @file
 * Minimal command line option parser shared by the bench and example
 * binaries. Supports "--name value", "--name=value" and boolean flags,
 * generates --help text, and rejects unknown options and numbers that
 * are malformed, carry trailing characters, or do not fit the target.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace copra {

/**
 * Registry of typed command line options. Each option binds directly to a
 * caller-owned variable so defaults are visible at the declaration site.
 */
class OptionParser
{
  public:
    /** @param description One-line program description for --help. */
    explicit OptionParser(std::string description);

    /** Register a signed integer option bound to @p target. */
    void addInt(const std::string &name, int64_t *target,
                const std::string &help);

    /**
     * Register an unsigned integer option bound to @p target. A sign,
     * a suffix, or a value above @p max is an invalid value.
     */
    void addUint(const std::string &name, uint64_t *target,
                 const std::string &help, uint64_t max = UINT64_MAX);

    /** Register a floating point option bound to @p target. */
    void addDouble(const std::string &name, double *target,
                   const std::string &help);

    /** Register a string option bound to @p target. */
    void addString(const std::string &name, std::string *target,
                   const std::string &help);

    /** Register a boolean flag ("--name" sets true, "--name=false" clears). */
    void addFlag(const std::string &name, bool *target,
                 const std::string &help);

    /**
     * Parse @p argv. On "--help", prints usage and returns false (caller
     * should exit 0). Calls fatal() on malformed or unknown options.
     *
     * @return true when the program should proceed.
     */
    bool parse(int argc, const char *const *argv);

    /** Whether the last parse() set option @p name from the command line. */
    bool given(const std::string &name) const;

  private:
    enum class Kind { Int, Uint, Double, String, Flag };

    struct Option
    {
        std::string name;
        Kind kind;
        void *target;
        std::string help;
        uint64_t max = UINT64_MAX; //!< Kind::Uint ceiling
        bool given = false;
    };

    Option *find(const std::string &name);
    void apply(const Option &opt, const std::string &value) const;
    void printHelp(const std::string &prog) const;

    std::string description_;
    std::vector<Option> options_;
};

} // namespace copra

