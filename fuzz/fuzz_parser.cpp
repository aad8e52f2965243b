// fuzz/fuzz_parser.cpp — harness 3: address/prefix/table-file parser checks.
//
// Two directions, both driven by the same input bytes:
//
//   text → value → text: the raw input is fed to parse_ipv4 / parse_ipv6 /
//   parse_prefix4 / parse_prefix6 and to the table-file loaders. A parser
//   may reject (that is the hardened path this PR adds tests for), but it
//   must never crash, hang, or accept a value that does not re-parse to
//   itself — to_string(parse(x)) must be a fixed point: formatting a parsed
//   value and re-parsing it yields the identical value and identical
//   canonical text.
//
//   value → text → value: the input bytes are also read as raw address
//   integers; to_string of any value must parse back to exactly that value
//   (surjectivity of the canonical form over the whole 32-/128-bit space).
//
// The table loaders go through std::istream on the raw bytes and must either
// produce a loadable route list (which then saves and reloads to the same
// list) or throw TableIoError with a sane line number — anything else
// (std::bad_alloc from a hostile length, assert, UB) is a finding.
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>

#include "fuzz/common.hpp"
#include "netbase/ipv4.hpp"
#include "netbase/ipv6.hpp"
#include "netbase/prefix.hpp"
#include "workload/tableio.hpp"

namespace {

constexpr const char* kHarness = "fuzz_parser";

// Joins a failure message with append: GCC 12 raises a false -Wrestrict
// inside libstdc++ on a chain of std::string operator+.
std::string concat(std::initializer_list<std::string_view> parts)
{
    std::string out;
    for (const std::string_view part : parts) out.append(part);
    return out;
}

void check_ipv4_text(std::string_view text)
{
    const auto a = netbase::parse_ipv4(text);
    if (!a) return;
    const auto shown = netbase::to_string(*a);
    const auto again = netbase::parse_ipv4(shown);
    if (!again || *again != *a)
        fuzz::fail(kHarness, "ipv4 text round-trip",
                   concat({"'", text, "' -> '", shown, "' failed to re-parse equal"}));
}

void check_ipv6_text(std::string_view text)
{
    const auto a = netbase::parse_ipv6(text);
    if (!a) return;
    const auto shown = netbase::to_string(*a);
    const auto again = netbase::parse_ipv6(shown);
    if (!again || *again != *a)
        fuzz::fail(kHarness, "ipv6 text round-trip",
                   concat({"'", text, "' -> '", shown, "' failed to re-parse equal"}));
    // RFC 5952 canonical form is itself canonical: formatting what we
    // re-parsed must reproduce the same spelling.
    if (netbase::to_string(*again) != shown)
        fuzz::fail(kHarness, "ipv6 canonical form not a fixed point",
                   concat({"'", text, "' -> '", shown, "' -> '", netbase::to_string(*again),
                           "'"}));
}

void check_prefix_text(std::string_view text)
{
    if (const auto p = netbase::parse_prefix4(text)) {
        const auto shown = netbase::to_string(*p);
        const auto again = netbase::parse_prefix4(shown);
        if (!again || *again != *p)
            fuzz::fail(kHarness, "prefix4 round-trip", std::string(text) + " -> " + shown);
    }
    if (const auto p = netbase::parse_prefix6(text)) {
        const auto shown = netbase::to_string(*p);
        const auto again = netbase::parse_prefix6(shown);
        if (!again || *again != *p)
            fuzz::fail(kHarness, "prefix6 round-trip", std::string(text) + " -> " + shown);
    }
}

void check_table_load(const std::string& text)
{
    try {
        std::istringstream in(text);
        const auto routes = workload::load_table4(in);
        std::ostringstream out;
        workload::save_table(out, routes);
        std::istringstream in2(out.str());
        if (workload::load_table4(in2) != routes)
            fuzz::fail(kHarness, "table4 save/load round-trip", out.str());
    } catch (const workload::TableIoError&) {
        // rejection is fine; crashing is not
    }
    try {
        std::istringstream in(text);
        const auto routes = workload::load_table6(in);
        std::ostringstream out;
        workload::save_table(out, routes);
        std::istringstream in2(out.str());
        if (workload::load_table6(in2) != routes)
            fuzz::fail(kHarness, "table6 save/load round-trip", out.str());
    } catch (const workload::TableIoError&) {
    }
}

template <class Addr>
void check_value_roundtrip(typename Addr::value_type key)
{
    const Addr a{key};
    const auto shown = netbase::to_string(a);
    std::optional<Addr> again;
    if constexpr (Addr::kWidth == 32)
        again = netbase::parse_ipv4(shown);
    else
        again = netbase::parse_ipv6(shown);
    if (!again || *again != a)
        fuzz::fail(kHarness, "value -> text -> value round-trip", shown);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    const std::string text(reinterpret_cast<const char*>(data), size);
    check_ipv4_text(text);
    check_ipv6_text(text);
    check_prefix_text(text);
    check_table_load(text);

    fuzz::ByteReader in(data, size);
    check_value_roundtrip<netbase::Ipv4Addr>(in.u32());
    check_value_roundtrip<netbase::Ipv6Addr>(in.u128v());
    // Prefix canonicalization: (addr, len) from the stream must mask to a
    // prefix whose text form round-trips and whose address has no bits past
    // the length.
    const auto p4 = netbase::Prefix4{netbase::Ipv4Addr{in.u32()},
                                     fuzz::decode_length<netbase::Ipv4Addr>(in.u8())};
    if ((p4.bits() & ~netbase::high_mask<std::uint32_t>(p4.length())) != 0)
        fuzz::fail(kHarness, "prefix4 not canonical", netbase::to_string(p4));
    if (const auto again = netbase::parse_prefix4(netbase::to_string(p4));
        !again || *again != p4)
        fuzz::fail(kHarness, "prefix4 value round-trip", netbase::to_string(p4));
    const auto p6 = netbase::Prefix6{netbase::Ipv6Addr{in.u128v()},
                                     fuzz::decode_length<netbase::Ipv6Addr>(in.u8())};
    if ((p6.bits() & ~netbase::high_mask<netbase::u128>(p6.length())) != 0)
        fuzz::fail(kHarness, "prefix6 not canonical", netbase::to_string(p6));
    if (const auto again = netbase::parse_prefix6(netbase::to_string(p6));
        !again || *again != p6)
        fuzz::fail(kHarness, "prefix6 value round-trip", netbase::to_string(p6));
    return 0;
}
