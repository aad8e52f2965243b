// benchkit/cli.hpp — minimal flag parsing shared by the bench binaries.
//
// Every bench accepts:
//   --quick           fewer lookups/trials (default)
//   --full            paper-scale counts (minutes per bench)
//   --lookups=N       override the per-measurement lookup count
//   --trials=N        override the trial count (paper: 10)
//   --seed=N          override workload seeds
//   --json-out=FILE   write benchkit::JsonRecords to FILE (benchctl's hook)
// plus bench-specific flags, which each binary declares when it parses its
// command line and documents in its --help. A flag that is neither, or a
// value its flag cannot take, ends the binary with exit code 2 before it
// measures anything: a misspelt flag never silently measures the defaults.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace benchkit {

/// A flag a binary reads, and the value it takes.
struct Flag {
    enum class Kind {
        kSwitch,  ///< no value: has()
        kU64,     ///< a whole number: get_u64()
        kDouble,  ///< a number: get_double()
        kText,    ///< any value: get()
    };
    std::string_view name;  ///< without the leading "--"
    Kind kind;
};

/// Parsed command line. Flags are "--name", "--name=value", or
/// "--name value" (the separate-token form is normalized at construction).
class Args {
public:
    /// Parses argv against the standard flags plus `flags`. An argument that
    /// is not one of them, a switch given a value, or a value its flag
    /// cannot take (a missing one, or "2k" for a whole number) prints the
    /// argument's flag to stderr and exits with code 2.
    Args(int argc, char** argv, std::initializer_list<Flag> flags = {});

    /// True if "--name" (with or without value) was passed.
    [[nodiscard]] bool has(std::string_view name) const;

    /// Value of "--name=value", or `fallback`.
    [[nodiscard]] std::uint64_t get_u64(std::string_view name, std::uint64_t fallback) const;
    [[nodiscard]] double get_double(std::string_view name, double fallback) const;
    [[nodiscard]] std::string get(std::string_view name, std::string fallback) const;

    /// Standard scale handling: returns `quick` unless --full, then `full`;
    /// --lookups overrides both.
    [[nodiscard]] std::size_t lookups(std::size_t quick, std::size_t full) const;
    /// Trials: 3 quick / 10 full, overridable with --trials.
    [[nodiscard]] unsigned trials() const;
    [[nodiscard]] std::uint64_t seed(std::uint64_t fallback = 0) const;

    /// Path from --json-out=FILE, or empty when the flag is absent. Benches
    /// that support it emit their JsonRecords there for benchctl.
    [[nodiscard]] std::string json_out() const { return get("json-out", ""); }

    /// Prints standard usage plus `extra` and returns true if --help given.
    bool handle_help(std::string_view bench_name, std::string_view extra = {}) const;

private:
    std::vector<std::string> args_;
};

}  // namespace benchkit
