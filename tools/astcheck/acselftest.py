"""acselftest.py -- astcheck's known-bad fixture corpus (repo convention:
every rule ships scenarios that MUST stay flagged, plus clean twins that
must stay clean, or the analyzer itself is broken).

Each fixture is a tiny source tree written to a temp dir and scanned with
the builtin frontend (the corpus must pass on clang-free hosts; CI also
replays the real-tree scan under the clang frontend)."""

from __future__ import annotations

import lintkit


def _hot(body, sig="void f()", mark="POPTRIE_HOT"):
    return f"{mark} {sig} {{\n{body}\n}}\n"


def self_test():
    import accli

    runner = lintkit.CorpusRunner(lambda tmp: accli.scan(tmp, frontend="builtin"))
    expect = runner.expect

    d = "src/dataplane/fix.hpp"  # outside the HP2 always-on dirs
    p = "src/poptrie/fix.hpp"  # inside them

    # ---- HP1: hot-path purity ------------------------------------------
    expect("hot new", {d: _hot("  return new int(3);", "int* f()")}, 1)
    expect(
        "hot new[] and delete[]",
        {d: _hot("  int* p = new int[4];\n  delete[] p;\n  return 0;", "int f()")},
        2,
    )
    expect(
        "hot malloc/free",
        {d: _hot("  void* p = malloc(16);\n  free(p);")},
        2,
    )
    expect(
        "transitive allocation one hop",
        {d: "inline int* helper() { return new int(1); }\n" + _hot("  return helper();", "int* f()")},
        1,
    )
    expect(
        "transitive allocation two hops",
        {
            d: "inline int* deep() { return new int(1); }\n"
            "inline int* mid() { return deep(); }\n" + _hot("  return mid();", "int* f()")
        },
        1,
    )
    expect(
        "hot mutex lock/unlock",
        {d: _hot("  m.lock();\n  m.unlock();", "void f(psync::Mutex& m)")},
        2,
    )
    expect(
        "hot scoped lock_guard",
        {d: _hot("  std::lock_guard<std::mutex> g(m);", "void f(std::mutex& m)")},
        1,
    )
    expect("hot throw", {d: _hot('  throw std::runtime_error("x");')}, 1)
    expect("hot iostream", {d: _hot("  std::cout << 1;")}, 1)
    expect("hot printf", {d: _hot('  printf("%d", 1);')}, 1)
    expect("hot usleep syscall", {d: _hot("  usleep(10);")}, 1)
    expect("hot push_back", {d: _hot("  v.push_back(1);", "void f(std::vector<int>& v)")}, 1)
    expect("hot reserve", {d: _hot("  v.reserve(64);", "void f(std::vector<int>& v)")}, 1)
    expect(
        "hot make_unique",
        {d: _hot("  auto q = std::make_unique<int>(3);\n  (void)q;")},
        1,
    )
    expect(
        "hot_exempt without justification",
        {d: _hot("  std::cout << 1;", "void log_miss()", mark="POPTRIE_HOT_EXEMPT")},
        1,
    )
    # Kernel-dispatch probes on the hot path: the kernel choice must be made
    # once at image load, not re-probed per burst.
    expect(
        "hot runtime cpuid probe",
        {d: _hot('  if (__builtin_cpu_supports("avx2")) { fast(k, o, n); return; }\n'
                 "  slow(k, o, n);",
                 "void dispatch(const unsigned* k, int* o, unsigned long n)")},
        1,
    )
    expect(
        "hot getenv kernel override",
        {d: _hot('  const char* e = getenv("KERNEL");\n  return e != nullptr;',
                 "bool forced()")},
        1,
    )
    expect(
        "transitive cpuid probe via helper",
        {
            d: 'inline bool has_simd() { return __builtin_cpu_supports("avx2") != 0; }\n'
            + _hot("  return has_simd() ? 2 : 1;", "int width()")
        },
        1,
    )

    # ---- HP2: shift-width safety ---------------------------------------
    expect(
        "unbounded runtime shift count (poptrie dir)",
        {p: "inline unsigned long f(unsigned long k, unsigned s) {\n  return k << s;\n}\n"},
        1,
    )
    expect(
        "literal shift count >= width",
        {p: "inline unsigned long f(unsigned long k) {\n  return k << 64;\n}\n"},
        1,
    )
    expect(
        "unbounded shift in hot function outside poptrie dir",
        {d: _hot("  return x << n;", "unsigned long f(unsigned long x, unsigned n)")},
        1,
    )

    # ---- HP3: pool-index provenance ------------------------------------
    expect(
        "loop counter indexes a pool",
        {
            p: _hot(
                "  unsigned acc = 0;\n  for (unsigned i = 0; i < n; ++i) { acc += nodes_[i].base0; }\n  return acc;",
                "unsigned f(unsigned n) const",
            )
        },
        1,
    )
    expect(
        "raw arithmetic pool index",
        {p: _hot("  return leaves_[base + off * 2];", "unsigned f(unsigned base, unsigned off) const")},
        1,
    )

    # ---- clean twins ----------------------------------------------------
    clean_poptrie = (
        "inline constexpr unsigned kWidth = 64;\n"
        "inline constexpr unsigned kStride = 6;\n"
        "inline constexpr unsigned long kTop = 1ULL << (kWidth - 1);\n"
        "struct Fix {\n"
        "  POPTRIE_HOT unsigned chunk(unsigned long key, unsigned off) const {\n"
        "    if (off >= kWidth) { return 0; }\n"
        "    return static_cast<unsigned>((key << off) >> (kWidth - kStride));\n"
        "  }\n"
        "  POPTRIE_HOT unsigned short lookup(unsigned long key) const {\n"
        "    unsigned cur = root_;\n"
        "    unsigned v = chunk(key, 0);\n"
        "    unsigned long bit = 1ULL << v;\n"
        "    unsigned idx = nodes_[cur].base1 + popcount64(bits & (bit - 1));\n"
        "    return leaves_[idx];\n"
        "  }\n"
        "  POPTRIE_HOT unsigned long spread(unsigned long x) const {\n"
        "    unsigned long acc = 0;\n"
        "    for (unsigned s = 0; s < kWidth; s += kStride) { acc |= x << s; }\n"
        "    return acc;\n"
        "  }\n"
        "  POPTRIE_HOT unsigned short probe(unsigned slot) const {\n"
        "    return direct_[slot];  // index-ok: slot precomputed from extract() by the caller\n"
        "  }\n"
        "};\n"
        "inline unsigned long low_mask(unsigned v) {\n"
        "  return ~0ULL >> (63 - v);  // shift-ok: callers guarantee v in [0,63]\n"
        "}\n"
        "inline unsigned long masked(unsigned long x, unsigned n) {\n"
        "  return x << (n & 63);\n"
        "}\n"
    )
    clean_dataplane = (
        "// hot-exempt: error path only, runs once per malformed packet batch\n"
        "POPTRIE_HOT_EXEMPT inline void report_bad() { printf(\"bad\\n\"); }\n"
        "inline int* cold_make() { return new int(1); }\n"
        "// Cold selection code may probe freely: only hot paths are barred\n"
        "// from runtime dispatch.\n"
        "inline bool select_path() { return __builtin_cpu_supports(\"avx2\") != 0; }\n"
    )
    expect("clean tree", {p: clean_poptrie, d: clean_dataplane}, 0)
    expect(
        "astcheck: allow escape hatch",
        {d: _hot("  // astcheck: allow -- fixture for the last-resort hatch\n  return new int(3);", "int* f()")},
        0,
    )

    return runner.finish("astcheck")
