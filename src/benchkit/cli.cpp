#include "benchkit/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace benchkit {
namespace {

using K = Flag::Kind;

constexpr Flag kStandardFlags[] = {{"quick", K::kSwitch}, {"full", K::kSwitch},
                                   {"lookups", K::kU64},  {"trials", K::kU64},
                                   {"seed", K::kU64},     {"json-out", K::kText},
                                   {"help", K::kSwitch}};

/// Whether a flag of `kind` takes `value` (given as "--name=value" when
/// `given`, else absent).
bool takes(K kind, std::string_view value, bool given)
{
    const auto parses = [value](auto v) {
        const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
        return !value.empty() && ec == std::errc{} && p == value.data() + value.size();
    };
    switch (kind) {
    case K::kSwitch: return !given;
    case K::kU64: return parses(std::uint64_t{});
    case K::kDouble: return parses(double{});
    case K::kText: return !value.empty();
    }
    return false;
}

/// What is wrong with the normalized argument `arg`, or "".
std::string problem(const std::string& arg, std::initializer_list<Flag> flags)
{
    if (!arg.starts_with("--")) return "unexpected argument '" + arg + "'";
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto named = [&](const Flag& f) { return name.substr(2) == f.name; };
    const Flag* flag = std::find_if(flags.begin(), flags.end(), named);
    if (flag == flags.end()) {
        flag = std::find_if(std::begin(kStandardFlags), std::end(kStandardFlags), named);
        if (flag == std::end(kStandardFlags)) return "unknown flag " + name;
    }
    if (takes(flag->kind, value, eq != std::string::npos)) return {};
    return "bad value for " + name + ": '" + value + "'";
}

std::string_view value_of(const std::string& arg, std::string_view name)
{
    // arg is "--name=value" or "--name"; name is passed without dashes.
    if (arg.size() < name.size() + 2 || arg[0] != '-' || arg[1] != '-') return {};
    const std::string_view body{arg.data() + 2, arg.size() - 2};
    if (!body.starts_with(name)) return {};
    if (body.size() == name.size()) return "";  // present, no value
    if (body[name.size()] != '=') return {};
    return body.substr(name.size() + 1);
}

}  // namespace

Args::Args(int argc, char** argv, std::initializer_list<Flag> flags)
{
    // "--name value" is normalized to "--name=value": a bare "--name"
    // followed by a token that is not itself a flag takes it as the value.
    // No bench or tool takes positional arguments, so this is unambiguous.
    for (int i = 1; i < argc; ++i) {
        std::string arg{argv[i]};
        if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-' &&
            arg.find('=') == std::string::npos && i + 1 < argc &&
            argv[i + 1][0] != '-') {
            arg += '=';
            arg += argv[++i];
        }
        args_.push_back(std::move(arg));
    }
    for (const auto& arg : args_) {
        const std::string why = problem(arg, flags);
        if (why.empty()) continue;
        const std::string_view prog = argc > 0 ? argv[0] : "bench";
        const std::string_view base = prog.substr(prog.find_last_of('/') + 1);
        std::fprintf(stderr, "%.*s: %s; see --help\n", static_cast<int>(base.size()),
                     base.data(), why.c_str());
        std::exit(2);
    }
}

bool Args::has(std::string_view name) const
{
    for (const auto& a : args_)
        if (value_of(a, name).data() != nullptr) return true;
    return false;
}

std::string Args::get(std::string_view name, std::string fallback) const
{
    for (const auto& a : args_) {
        const auto v = value_of(a, name);
        if (v.data() != nullptr && !v.empty()) return std::string{v};
    }
    return fallback;
}

std::uint64_t Args::get_u64(std::string_view name, std::uint64_t fallback) const
{
    const auto s = get(name, "");
    if (s.empty()) return fallback;
    std::uint64_t v = 0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    return (ec == std::errc{} && p == s.data() + s.size()) ? v : fallback;
}

double Args::get_double(std::string_view name, double fallback) const
{
    const auto s = get(name, "");
    if (s.empty()) return fallback;
    double v = 0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    return (ec == std::errc{} && p == s.data() + s.size()) ? v : fallback;
}

std::size_t Args::lookups(std::size_t quick, std::size_t full) const
{
    const auto base = has("full") ? full : quick;
    return static_cast<std::size_t>(get_u64("lookups", base));
}

unsigned Args::trials() const
{
    const unsigned base = has("full") ? 10 : 3;
    return static_cast<unsigned>(get_u64("trials", base));
}

std::uint64_t Args::seed(std::uint64_t fallback) const { return get_u64("seed", fallback); }

bool Args::handle_help(std::string_view bench_name, std::string_view extra) const
{
    if (!has("help")) return false;
    std::printf("%.*s — Poptrie reproduction bench\n"
                "  --quick (default) | --full   measurement scale\n"
                "  --lookups=N  --trials=N  --seed=N\n"
                "  --json-out=FILE  write machine-readable records (benchctl)\n",
                static_cast<int>(bench_name.size()), bench_name.data());
    if (!extra.empty())
        std::printf("%.*s\n", static_cast<int>(extra.size()), extra.data());
    return true;
}

}  // namespace benchkit
