/**
 * @file
 * Checkpoint frame format and generation store: checksums, bit-exact hex
 * encodings, the atomic-rename publication protocol, and the
 * corrupt/torn/skewed-generation rejection corpus. Every defect must be
 * detected *by name* and skipped in favor of an older valid generation —
 * silently loading damaged state is the one unforgivable failure mode.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "lognic/ckpt/store.hpp"
#include "lognic/io/checkpoint.hpp"

namespace lognic {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test.
class TempDir {
  public:
    explicit TempDir(const std::string& tag)
        : path_((fs::temp_directory_path()
                 / ("lognic_ckpt_" + tag + "_"
                    + std::to_string(::getpid())))
                    .string())
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

void
write_raw(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

std::string
read_raw(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

// --- FNV-1a -------------------------------------------------------------------

// Published FNV-1a 64 reference vectors.
TEST(Fnv1a, MatchesReferenceVectors)
{
    EXPECT_EQ(io::fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(io::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(io::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, SensitiveToEveryByte)
{
    const std::string base(256, 'x');
    const std::uint64_t h = io::fnv1a64(base);
    for (std::size_t i = 0; i < base.size(); i += 17) {
        std::string flipped = base;
        flipped[i] ^= 0x01;
        EXPECT_NE(io::fnv1a64(flipped), h) << "byte " << i;
    }
}

// --- hex encodings ------------------------------------------------------------

TEST(HexCodec, DoubleRoundTripsBitExactly)
{
    const double cases[] = {0.0,
                            -0.0,
                            1.0,
                            -1.5,
                            3.141592653589793,
                            1e-300,
                            -1e308,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
    for (double v : cases) {
        const double back = io::double_from_hex(io::double_to_hex(v), "t");
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
                  std::bit_cast<std::uint64_t>(v))
            << io::double_to_hex(v);
    }
}

TEST(HexCodec, U64RoundTripsAndParsesStrictly)
{
    for (std::uint64_t v :
         std::initializer_list<std::uint64_t>{
             0, 1, 42, 0xdeadbeefcafef00dull,
             std::numeric_limits<std::uint64_t>::max()}) {
        EXPECT_EQ(io::parse_u64(io::u64_to_hex(v), "t"), v);
    }
    EXPECT_EQ(io::parse_u64("12345", "t"), 12345u);
    EXPECT_EQ(io::parse_u64(" 7 ", "t"), 7u);
    EXPECT_THROW(io::parse_u64("", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("12x", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("-3", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("99999999999999999999999", "t"),
                 std::runtime_error);
    // The context lands in the error message.
    try {
        io::parse_u64("bogus", "spec field seed");
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("spec field seed"),
                  std::string::npos);
    }
}

TEST(HexCodec, U64FieldAcceptsWholeNumbersAndStringsOnly)
{
    const io::Json j = io::Json::parse(
        R"({"n": 7, "hex": "0xffffffffffffffff", "top": 18446744073709549568,
            "neg": -3, "frac": 2.5, "huge": 1e30, "two64": 18446744073709551616,
            "flag": true})");
    EXPECT_EQ(io::u64_field(j, "n", 1, "t"), 7u);
    EXPECT_EQ(io::u64_field(j, "absent", 9, "t"), 9u);
    EXPECT_EQ(io::u64_field(j, "hex", 0, "t"),
              std::numeric_limits<std::uint64_t>::max());
    // The largest double below 2^64 converts exactly; 2^64 itself does not.
    EXPECT_EQ(io::u64_field(j, "top", 0, "t"), 18446744073709549568ull);
    for (const char* key : {"neg", "frac", "huge", "two64", "flag"}) {
        try {
            io::u64_field(j, key, 0, "test spec");
            FAIL() << key << " was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string("test spec field '") + key + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(HexCodec, U64JsonIsANumberBelowTwo53AndHexAtOrAbove)
{
    const std::uint64_t two53 = std::uint64_t{1} << 53;
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{31337},
                            two53 - 1, two53, two53 + 1,
                            std::uint64_t{11984929618412882174ull},
                            std::numeric_limits<std::uint64_t>::max()}) {
        const io::Json j = io::u64_json(v);
        EXPECT_EQ(j.is_number(), v < two53) << v;
        io::Json obj;
        obj.set("v", j);
        EXPECT_EQ(io::u64_field(io::Json::parse(obj.dump()), "v", 0, "t"), v);
    }
    EXPECT_EQ(io::u64_json(31337).dump(), "31337");
    EXPECT_EQ(io::u64_json(two53).dump(), "\"0x0020000000000000\"");
}

TEST(HexCodec, ParseU64RejectsSignsOctalPrefixAndHexGarbage)
{
    // The hand-rolled parser (replacing raw std::stoull) must reject
    // everything stoull silently tolerated or misread.
    EXPECT_THROW(io::parse_u64("+5", "t"), std::runtime_error); // sign
    EXPECT_THROW(io::parse_u64("0x", "t"), std::runtime_error); // no digits
    EXPECT_THROW(io::parse_u64("0xg1", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("0x1g", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("1 2", "t"), std::runtime_error);
    EXPECT_THROW(io::parse_u64("0x10000000000000000", "t"),
                 std::runtime_error); // hex overflow
    // Leading zeros are decimal, never octal.
    EXPECT_EQ(io::parse_u64("0777", "t"), 777u);
    // Hex is case-insensitive and whitespace-trimmed.
    EXPECT_EQ(io::parse_u64(" 0X1a ", "t"), 26u);
    EXPECT_EQ(io::parse_u64("0xffffffffffffffff", "t"),
              std::numeric_limits<std::uint64_t>::max());
}

// --- frame encode/decode ------------------------------------------------------

TEST(Frame, RoundTripsBinaryPayloads)
{
    io::CheckpointFrame frame;
    frame.kind = "sweep";
    frame.payload = std::string("line1\nline2\0binary\xff tail", 24);
    const std::string encoded = io::encode_frame(frame);

    std::string reason;
    const auto back = io::decode_frame(encoded, &reason);
    ASSERT_TRUE(back.has_value()) << reason;
    EXPECT_EQ(back->version, io::kCheckpointVersion);
    EXPECT_EQ(back->kind, "sweep");
    EXPECT_EQ(back->payload, frame.payload);
}

TEST(Frame, RejectsBadKinds)
{
    io::CheckpointFrame frame;
    frame.kind = "";
    EXPECT_THROW(io::encode_frame(frame), std::exception);
    frame.kind = "has space";
    EXPECT_THROW(io::encode_frame(frame), std::exception);
}

TEST(Frame, NamesEveryDefect)
{
    io::CheckpointFrame frame;
    frame.kind = "check";
    frame.payload = "{\"journal\":{}}";
    const std::string good = io::encode_frame(frame);

    std::string reason;
    // Torn write: payload cut short.
    EXPECT_FALSE(
        io::decode_frame(good.substr(0, good.size() - 3), &reason));
    EXPECT_NE(reason.find("truncated"), std::string::npos) << reason;
    // Bit rot: one payload byte flipped.
    std::string rotted = good;
    rotted[rotted.size() - 2] ^= 0x20;
    EXPECT_FALSE(io::decode_frame(rotted, &reason));
    EXPECT_NE(reason.find("checksum"), std::string::npos) << reason;
    // Wrong magic.
    std::string magic = good;
    magic[0] = 'X';
    EXPECT_FALSE(io::decode_frame(magic, &reason));
    EXPECT_NE(reason.find("magic"), std::string::npos) << reason;
    // Version skew: a frame from a future format.
    std::string future = good;
    const auto sp = future.find(' ');
    future.replace(sp + 1, 1, "9"); // version 1 -> 9
    EXPECT_FALSE(io::decode_frame(future, &reason));
    EXPECT_NE(reason.find("version skew"), std::string::npos) << reason;
    // Empty file.
    EXPECT_FALSE(io::decode_frame("", &reason));
}

TEST(Frame, GarbageHeaderNumbersRejectedByNameNotCrash)
{
    io::CheckpointFrame frame;
    frame.kind = "check";
    frame.payload = "payload";
    const std::string good = io::encode_frame(frame);
    const std::size_t nl = good.find('\n');
    ASSERT_NE(nl, std::string::npos);

    // Header layout: magic version kind size checksum. Swap the numeric
    // fields for garbage a raw stoull would crash on (out_of_range) or
    // silently misparse, and check each is rejected with its field named.
    const auto with_field = [&](std::size_t index, const std::string& val) {
        std::vector<std::string> tok;
        std::size_t pos = 0;
        const std::string header = good.substr(0, nl);
        while (pos <= header.size()) {
            const std::size_t sp = header.find(' ', pos);
            tok.push_back(header.substr(pos, sp - pos));
            if (sp == std::string::npos)
                break;
            pos = sp + 1;
        }
        tok[index] = val;
        std::string out;
        for (std::size_t i = 0; i < tok.size(); ++i)
            out += (i != 0 ? " " : "") + tok[i];
        return out + good.substr(nl);
    };

    std::string reason;
    // Payload size overflowing u64: the pre-fix crash case.
    EXPECT_FALSE(io::decode_frame(
        with_field(3, "99999999999999999999999"), &reason));
    EXPECT_NE(reason.find("payload size"), std::string::npos) << reason;
    EXPECT_NE(reason.find("out of range"), std::string::npos) << reason;
    // Non-numeric checksum.
    EXPECT_FALSE(io::decode_frame(with_field(4, "0xnope"), &reason));
    EXPECT_NE(reason.find("checksum"), std::string::npos) << reason;
    // Signed version.
    EXPECT_FALSE(io::decode_frame(with_field(1, "-1"), &reason));
    EXPECT_NE(reason.find("version"), std::string::npos) << reason;
}

// --- atomic_write_file --------------------------------------------------------

TEST(AtomicWrite, CreatesAndReplaces)
{
    TempDir dir("atomic");
    const std::string path = dir.path() + "/file.txt";
    io::atomic_write_file(path, "first");
    EXPECT_EQ(read_raw(path), "first");
    io::atomic_write_file(path, "second");
    EXPECT_EQ(read_raw(path), "second");
    // No temporary left behind.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicWrite, NamesThePathOnFailure)
{
    const std::string path = "/nonexistent-dir-zzz/file.txt";
    try {
        io::atomic_write_file(path, "x");
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent-dir-zzz"),
                  std::string::npos)
            << e.what();
    }
}

// --- the generation store -----------------------------------------------------

TEST(Store, SaveLoadRoundTripsNewestGeneration)
{
    TempDir dir("store");
    ckpt::CheckpointStore store(dir.path(), "sweep");
    EXPECT_FALSE(store.load_latest().has_value());

    EXPECT_EQ(store.save("gen one"), 1u);
    EXPECT_EQ(store.save("gen two"), 2u);
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->generation, 2u);
    EXPECT_EQ(loaded->payload, "gen two");
}

TEST(Store, ResumesNumberingAcrossInstances)
{
    TempDir dir("renum");
    {
        ckpt::CheckpointStore store(dir.path(), "sim");
        store.save("a");
        store.save("b");
    }
    ckpt::CheckpointStore reopened(dir.path(), "sim");
    EXPECT_EQ(reopened.save("c"), 3u);
    EXPECT_EQ(reopened.load_latest()->payload, "c");
}

TEST(Store, PrunesBeyondRetention)
{
    TempDir dir("retention");
    ckpt::CheckpointStore store(dir.path(), "calib",
                                ckpt::StoreOptions{2});
    for (int i = 0; i < 5; ++i)
        store.save("g" + std::to_string(i));
    const auto gens = store.generations();
    ASSERT_EQ(gens.size(), 2u);
    EXPECT_EQ(gens[0], 4u);
    EXPECT_EQ(gens[1], 5u);
}

TEST(Store, FallsBackPastCorruptTornAndSkewedGenerations)
{
    TempDir dir("fallback");
    ckpt::CheckpointStore store(dir.path(), "check",
                                ckpt::StoreOptions{10});
    store.save("oldest good");
    store.save("middle good");
    store.save("newest");

    // Newest: flipped payload byte (checksum mismatch).
    {
        std::string data = read_raw(store.path_for(3));
        data[data.size() - 1] ^= 0x01;
        write_raw(store.path_for(3), data);
    }
    // Middle stays good; write a torn 4th and a version-skewed 5th
    // directly (simulating a crashed writer and a future producer).
    {
        ckpt::CheckpointStore again(dir.path(), "check",
                                    ckpt::StoreOptions{10});
        again.save("torn candidate");
        std::string data = read_raw(store.path_for(4));
        write_raw(store.path_for(4), data.substr(0, data.size() / 2));
        std::string future = read_raw(store.path_for(2));
        const auto sp = future.find(' ');
        future.replace(sp + 1, 1, "8");
        write_raw(store.path_for(5), future);
    }

    std::vector<ckpt::Rejected> rejected;
    const auto loaded = store.load_latest(&rejected);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->generation, 2u);
    EXPECT_EQ(loaded->payload, "middle good");
    ASSERT_EQ(rejected.size(), 3u);
    EXPECT_NE(rejected[0].reason.find("version skew"), std::string::npos);
    EXPECT_NE(rejected[1].reason.find("truncated"), std::string::npos);
    EXPECT_NE(rejected[2].reason.find("checksum"), std::string::npos);
}

TEST(Store, IgnoresTmpLeftoversAndForeignKinds)
{
    TempDir dir("tmp");
    ckpt::CheckpointStore store(dir.path(), "sweep");
    store.save("real");
    // A crashed writer's leftover and unrelated files must not be scanned.
    write_raw(dir.path() + "/sweep-00000099.lnck.tmp", "junk");
    write_raw(dir.path() + "/notes.txt", "junk");

    // A frame of a different kind renamed into this store's namespace is
    // rejected as a kind mismatch, not loaded.
    ckpt::CheckpointStore other(dir.path(), "calib");
    other.save("calib payload");
    fs::rename(other.path_for(1), store.path_for(50));

    std::vector<ckpt::Rejected> rejected;
    const auto loaded = store.load_latest(&rejected);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->payload, "real");
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_NE(rejected[0].reason.find("kind mismatch"), std::string::npos);
}

TEST(Store, ScanSurvivesGarbageNeighborFilenames)
{
    TempDir dir("garbage");
    ckpt::CheckpointStore store(dir.path(), "sweep");
    store.save("real");

    // Files somebody else dropped next to ours: wrong digit-run length
    // (including one long enough to overflow a raw stoull), non-digit
    // characters in the generation slot, and a missing generation
    // entirely. The scan must skip every one without throwing.
    write_raw(dir.path() + "/sweep-99999999999999999999999.lnck", "junk");
    write_raw(dir.path() + "/sweep-0000001x.lnck", "junk");
    write_raw(dir.path() + "/sweep-1.lnck", "junk");
    write_raw(dir.path() + "/sweep-.lnck", "junk");
    write_raw(dir.path() + "/sweep-деадбиф.lnck", "junk");

    const auto gens = store.generations();
    ASSERT_EQ(gens.size(), 1u);
    EXPECT_EQ(gens[0], 1u);
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->payload, "real");

    // A reopened store resumes numbering from the real generation, not
    // from any of the garbage.
    ckpt::CheckpointStore reopened(dir.path(), "sweep");
    EXPECT_EQ(reopened.save("next"), 2u);
}

TEST(Store, RejectsInvalidConstruction)
{
    TempDir dir("invalid");
    EXPECT_THROW(ckpt::CheckpointStore(dir.path(), ""),
                 std::runtime_error);
    EXPECT_THROW(
        ckpt::CheckpointStore(dir.path(), "x", ckpt::StoreOptions{0}),
        std::runtime_error);
}

} // namespace
} // namespace lognic
