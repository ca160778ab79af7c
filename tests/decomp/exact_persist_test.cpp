// Disk persistence of the exact-synthesis NPN structure cache
// (ExactSynthesisCache::save_to_file / load_from_file): deterministic
// canonical-sorted bytes, atomic write-then-rename, and a load path that
// is tolerant of garbage (missing file, bad magic, wrong version,
// truncation) and — critically — re-validates every entry semantically,
// so a corrupted file can never poison synthesis results. Version 1 is
// the only format; the retired version 2 (which appended programs for 5-6
// input cones) loads nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "decomp/exact.hpp"
#include "tt/npn.hpp"

namespace bdsmaj::decomp {
namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(static_cast<bool>(out)) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void put_u16(std::string& out, std::uint16_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
    put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
    put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

/// Truth table of canonical-space literal x_i over 4 variables.
std::uint16_t literal_tt(int i) {
    constexpr std::uint16_t kLits[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};
    return kLits[i];
}

/// The literal NPN class: its canonical representative is itself a
/// (possibly complemented) literal. Finds which, so a valid zero-gate
/// narrow entry can be crafted for it.
std::uint16_t narrow_literal_class(std::uint8_t* out_index, bool* out_compl) {
    const std::uint16_t canonical = tt::npn_canonical(literal_tt(0));
    for (int i = 0; i < 4; ++i) {
        if (literal_tt(i) == canonical) {
            *out_index = static_cast<std::uint8_t>(i);
            *out_compl = false;
            return canonical;
        }
        if (static_cast<std::uint16_t>(~literal_tt(i)) == canonical) {
            *out_index = static_cast<std::uint8_t>(i);
            *out_compl = true;
            return canonical;
        }
    }
    ADD_FAILURE() << "literal class canonical is not a literal?";
    return canonical;
}

/// Append a valid zero-gate narrow entry for the literal class; returns
/// the class it claims (for later lookup).
std::uint16_t append_narrow_literal_entry(std::string& bytes) {
    std::uint8_t idx = 0;
    bool compl_out = false;
    const std::uint16_t canonical = narrow_literal_class(&idx, &compl_out);
    put_u16(bytes, canonical);
    put_u16(bytes, 0);  // gate count
    bytes.push_back(static_cast<char>(idx));
    bytes.push_back(static_cast<char>(compl_out ? 1 : 0));
    return canonical;
}

/// Serialize a structure exactly as save_to_file lays it out: u16
/// canonical, u16 gate count, gates as (op, a, b, c) with each ref an
/// (index, complemented) byte pair, then the output ref.
void append_structure(std::string& out, const ExactStructure& s) {
    put_u16(out, s.canonical);
    put_u16(out, static_cast<std::uint16_t>(s.gates.size()));
    for (const ExactGate& g : s.gates) {
        out.push_back(static_cast<char>(g.op));
        for (const ExactRef r : {g.a, g.b, g.c}) {
            out.push_back(static_cast<char>(r.index));
            out.push_back(static_cast<char>(r.complemented ? 1 : 0));
        }
    }
    out.push_back(static_cast<char>(s.output.index));
    out.push_back(static_cast<char>(s.output.complemented ? 1 : 0));
}

/// A two-gate program: g0 = MAJ(x0, x1, !x2), g1 = XOR(g0, x3). The loader
/// only checks that a program computes the class it is filed under, so
/// the class is simply what the program evaluates to.
ExactStructure maj_xor_structure() {
    ExactStructure s;
    ExactGate g0;
    g0.op = ExactOp::kMaj;
    g0.a = ExactRef::input(0, false);
    g0.b = ExactRef::input(1, false);
    g0.c = ExactRef::input(2, true);
    ExactGate g1;
    g1.op = ExactOp::kXor;
    g1.a = ExactRef::gate(0, false);
    g1.b = ExactRef::input(3, false);
    s.gates = {g0, g1};
    s.output = ExactRef::gate(1, false);
    s.canonical = s.eval_tt();
    return s;
}

/// A valid version-1 file with two entries: the zero-gate literal class
/// and the two-gate maj_xor_structure(). Reports both classes.
std::string two_entry_file(std::uint16_t* literal_class, std::uint16_t* gate_class) {
    std::string bytes("BMXC");
    put_u32(bytes, 1);  // version
    put_u32(bytes, 2);  // count
    *literal_class = append_narrow_literal_entry(bytes);
    const ExactStructure s = maj_xor_structure();
    append_structure(bytes, s);
    *gate_class = s.canonical;
    return bytes;
}

/// Every program the cache holds, read back through save_to_file, must
/// compute the class it is filed under.
void expect_cache_honest(const ExactSynthesisCache& cache) {
    const std::string path = testing::TempDir() + "exact_persist_audit.bin";
    ASSERT_GE(cache.save_to_file(path), 0);
    const std::string bytes = read_file(path);
    std::remove(path.c_str());
    std::size_t at = 12;  // magic, version, count
    const auto u8 = [&] { return static_cast<std::uint8_t>(bytes.at(at++)); };
    const auto u16 = [&] {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (u8() << 8));
    };
    const auto ref = [&] {
        ExactRef r;
        r.index = u8();
        r.complemented = u8() != 0;
        return r;
    };
    while (at < bytes.size()) {
        ExactStructure s;
        s.canonical = u16();
        const std::uint16_t gates = u16();
        for (std::uint16_t g = 0; g < gates; ++g) {
            ExactGate gate;
            gate.op = static_cast<ExactOp>(u8());
            gate.a = ref();
            gate.b = ref();
            gate.c = ref();
            s.gates.push_back(gate);
        }
        s.output = ref();
        EXPECT_EQ(s.eval_tt(), s.canonical) << "class " << s.canonical;
    }
}

/// A well-formed file claiming one zero-gate entry: class `canonical`
/// computed by output ref (index, complemented).
std::string one_entry_file(std::uint16_t canonical, std::uint8_t out_index,
                           bool out_compl) {
    std::string bytes("BMXC");
    put_u32(bytes, 1);  // version
    put_u32(bytes, 1);  // count
    put_u16(bytes, canonical);
    put_u16(bytes, 0);  // gate count
    bytes.push_back(static_cast<char>(out_index));
    bytes.push_back(static_cast<char>(out_compl ? 1 : 0));
    return bytes;
}

TEST(ExactPersist, SaveIsDeterministicAndAtomic) {
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    // Materialize a handful of classes in non-canonical discovery order.
    for (const std::uint16_t f : {0x6996, 0x8888, 0x1ee1, 0x0001, 0xcafe}) {
        ASSERT_NE(cache.lookup(tt::npn_canonical(f)), nullptr);
    }
    const int classes = cache.stats().classes_cached;
    ASSERT_GT(classes, 0);

    const std::string p1 = testing::TempDir() + "exact_persist_a.bin";
    const std::string p2 = testing::TempDir() + "exact_persist_b.bin";
    EXPECT_EQ(cache.save_to_file(p1), classes);
    EXPECT_EQ(cache.save_to_file(p2), classes);
    // Canonical-sorted serialization: byte-identical for the same set.
    EXPECT_EQ(read_file(p1), read_file(p2));
    // Atomic rename leaves no temp file behind.
    std::ifstream tmp(p1 + ".tmp", std::ios::binary);
    EXPECT_FALSE(static_cast<bool>(tmp));

    // Reloading into the same process inserts nothing (first insert wins,
    // every class is already materialized) and changes no count.
    EXPECT_EQ(cache.load_from_file(p1), 0);
    EXPECT_EQ(cache.stats().classes_cached, classes);
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(ExactPersist, LoadPrewarmsAndLookupReportsHit) {
    // Hand-craft a valid file for the literal class — this test must not
    // materialize it first, so the load really inserts. (ctest runs each
    // test in its own process, so the singleton starts cold here.)
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::uint8_t idx = 0;
    bool compl_out = false;
    const std::uint16_t canonical = narrow_literal_class(&idx, &compl_out);

    const std::string path = testing::TempDir() + "exact_persist_warm.bin";
    write_file(path, one_entry_file(canonical, idx, compl_out));
    const int before = cache.stats().classes_cached;
    EXPECT_EQ(cache.load_from_file(path), 1);
    EXPECT_EQ(cache.stats().classes_cached, before + 1);
    // Loading again: first insert wins.
    EXPECT_EQ(cache.load_from_file(path), 0);

    bool was_hit = false;
    const auto s = cache.lookup(canonical, &was_hit);
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(was_hit) << "pre-warmed class should hit, not re-enumerate";
    EXPECT_EQ(s->gate_count(), 0);
    EXPECT_EQ(s->eval_tt(), canonical);
    std::remove(path.c_str());
}

TEST(ExactPersist, GarbageFilesLoadNothing) {
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::string path = testing::TempDir() + "exact_persist_garbage.bin";

    // Missing file.
    std::remove(path.c_str());
    EXPECT_EQ(cache.load_from_file(path), 0);

    // Bad magic.
    write_file(path, "NOPE\x01\x00\x00\x00\x00\x00\x00\x00");
    EXPECT_EQ(cache.load_from_file(path), 0);

    // Unknown version.
    {
        std::string bytes("BMXC");
        put_u32(bytes, 99);
        put_u32(bytes, 0);
        write_file(path, bytes);
        EXPECT_EQ(cache.load_from_file(path), 0);
    }

    // Truncated mid-entry: header promises one entry, payload ends early.
    {
        std::string bytes("BMXC");
        put_u32(bytes, 1);
        put_u32(bytes, 1);
        put_u16(bytes, 0x1234);  // canonical, then nothing else
        write_file(path, bytes);
        EXPECT_EQ(cache.load_from_file(path), 0);
    }
    std::remove(path.c_str());
}

TEST(ExactPersist, SemanticallyCorruptEntriesAreSkipped) {
    // A well-framed entry whose program does NOT compute its claimed
    // class: claim the parity class but supply a bare literal. The
    // eval_tt() re-validation must reject it — and a later lookup must
    // still produce a correct structure from enumeration.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::uint16_t parity = tt::npn_canonical(0x6996);
    ASSERT_NE(parity, literal_tt(0));
    const std::string path = testing::TempDir() + "exact_persist_corrupt.bin";
    write_file(path, one_entry_file(parity, /*out_index=*/0, /*out_compl=*/false));
    const int before = cache.stats().classes_cached;
    EXPECT_EQ(cache.load_from_file(path), 0) << "lying entry must be skipped";
    EXPECT_EQ(cache.stats().classes_cached, before);

    // Structurally invalid too: an output ref into a nonexistent gate.
    write_file(path, one_entry_file(parity, /*out_index=*/7, /*out_compl=*/false));
    EXPECT_EQ(cache.load_from_file(path), 0);

    const auto s = cache.lookup(parity);
    ASSERT_NE(s, nullptr);
    // The lying entry was a bare zero-gate literal; the genuine parity
    // structure needs real gates. Serving gates > 0 proves the rejected
    // entry never made it into the cache.
    EXPECT_GT(s->gate_count(), 0);
    EXPECT_EQ(s->eval_tt(), parity);
    std::remove(path.c_str());
}

TEST(ExactPersist, TruncationSweepNeverCrashesOrLies) {
    // Torn-file drill: every prefix of a valid file must load without
    // crashing, and anything it does accept must be semantically valid
    // (the zero-trust re-validation). ctest runs this test in its own
    // process, so the singleton starts cold and real inserts happen.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::uint16_t literal_class = 0, gate_class = 0;
    const std::string bytes = two_entry_file(&literal_class, &gate_class);

    const std::string path = testing::TempDir() + "exact_persist_cut.bin";
    int total = 0;
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        write_file(path, bytes.substr(0, n));
        const int loaded = cache.load_from_file(path);
        EXPECT_GE(loaded, 0) << "cut at " << n;
        EXPECT_LE(loaded, 2) << "cut at " << n;
        total += loaded;
    }
    // The full file is one of the prefixes, so both entries arrived
    // exactly once along the way (first insert wins after that).
    EXPECT_EQ(total, 2);
    expect_cache_honest(cache);
    bool was_hit = false;
    const auto s = cache.lookup(gate_class, &was_hit);
    EXPECT_TRUE(was_hit);
    EXPECT_EQ(s->gate_count(), 2);
    EXPECT_EQ(cache.lookup(literal_class)->eval_tt(), literal_class);
    std::remove(path.c_str());
}

TEST(ExactPersist, BitFlipSweepNeverServesWrongProgram) {
    // Corruption drill: flip every bit of a valid file, one at a time, and
    // load each mutant. No mutant may crash the loader, and no mutant may
    // plant a program that does not compute the class it is filed under —
    // a wrong cached program would silently corrupt every later synthesis
    // that hits it, the one unrecoverable failure mode.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::uint16_t literal_class = 0, gate_class = 0;
    const std::string bytes = two_entry_file(&literal_class, &gate_class);

    const std::string path = testing::TempDir() + "exact_persist_flip.bin";
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutant = bytes;
            mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
            write_file(path, mutant);
            (void)cache.load_from_file(path);
        }
    }
    // A flipped canonical and a flipped program can never agree (the
    // loader re-evaluates), so every class now cached must be honest.
    EXPECT_GT(cache.stats().classes_cached, 0);
    expect_cache_honest(cache);
    EXPECT_EQ(cache.lookup(gate_class)->eval_tt(), gate_class);
    EXPECT_EQ(cache.lookup(literal_class)->eval_tt(), literal_class);
    std::remove(path.c_str());
}

TEST(ExactPersist, VersionOneFilesLoadNarrowOnly) {
    // Nothing after the declared entries is ever interpreted: a version-1
    // file followed by plausible-looking trailing data loads its entries
    // and no more.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::uint8_t idx = 0;
    bool compl_out = false;
    const std::uint16_t canonical = narrow_literal_class(&idx, &compl_out);

    std::string bytes = one_entry_file(canonical, idx, compl_out);
    append_structure(bytes, maj_xor_structure());

    const std::string path = testing::TempDir() + "exact_persist_v1.bin";
    write_file(path, bytes);
    EXPECT_EQ(cache.load_from_file(path), 1);
    EXPECT_EQ(cache.stats().classes_cached, 1);
    std::remove(path.c_str());
}

TEST(ExactPersist, VersionTwoFilesLoadNothing) {
    // Version 2 appended programs for 5-6 input cones and is retired: a
    // version-2 header loads no entry, even with a healthy narrow section
    // behind it.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::string bytes("BMXC");
    put_u32(bytes, 2);  // version
    put_u32(bytes, 1);  // narrow count
    append_narrow_literal_entry(bytes);
    put_u32(bytes, 0);  // wide count

    const std::string path = testing::TempDir() + "exact_persist_v2.bin";
    write_file(path, bytes);
    EXPECT_EQ(cache.load_from_file(path), 0);
    EXPECT_EQ(cache.stats().classes_cached, 0);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace bdsmaj::decomp
