/**
 * @file
 * Checkpoint frame format and crash-safe file replacement (lognic::io).
 *
 * A checkpoint file is one frame:
 *
 *     LOGNICCKPT <version> <kind> <payload-bytes> <fnv1a64-hex>\n
 *     <payload bytes>
 *
 * The header is a single ASCII line; the payload is an opaque byte string
 * (in practice a JSON document). The checksum is FNV-1a 64 over the payload
 * only, rendered as 16 lowercase hex digits. Decoding rejects — with a
 * reason, never silently — any frame whose magic, version, kind, size, or
 * checksum does not match: a torn write (short payload), a flipped bit, and
 * a file from a future format version all surface as a named defect the
 * caller can report and skip in favor of an older generation.
 *
 * atomic_write_file() is the publication protocol: write a temporary in
 * the same directory, fsync it, rename over the target, fsync the
 * directory. A reader concurrently scanning the directory observes either
 * the old file, the new file, or (for a fresh path) no file — never a
 * partial one. Leftover "*.tmp" files from a crashed writer are garbage by
 * construction and are ignored by checkpoint scans.
 *
 * The hex helpers exist because checkpoints must round-trip *bit-exactly*:
 * the JSON writer emits null for non-finite doubles (a calibration start
 * that failed has final_loss = inf) and %.17g for the rest, so doubles
 * inside checkpoint payloads are stored as the hex of their IEEE-754 bit
 * pattern and u64 values (seeds, counters) as hex strings, immune to the
 * double-precision limit of JSON numbers. Payloads do not call them field
 * by field: every journal entry and simulator snapshot goes through the
 * record codec in io/record.hpp, where each type lists its fields once
 * and save and load walk the same list. u64_field()/size_field() remain
 * for the hand-written spec and report readers.
 */
#ifndef LOGNIC_IO_CHECKPOINT_HPP_
#define LOGNIC_IO_CHECKPOINT_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "lognic/io/json.hpp"

namespace lognic::io {

/// Bumped on any incompatible change to frame or payload layout. Readers
/// reject other versions (version skew) rather than guessing.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit over @p data, continuing from the running hash @p h, so
/// fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b). Not cryptographic; detects
/// torn writes and bit rot, which is the threat model for a local
/// checkpoint directory.
std::uint64_t fnv1a64(std::string_view data, std::uint64_t h = kFnv1a64Basis);

struct CheckpointFrame {
    std::uint32_t version{kCheckpointVersion};
    /// Workload tag ("sweep", "check", "calib", "sim"). A store only loads
    /// frames whose kind matches, so checkpoints from different workloads
    /// sharing a directory cannot be confused.
    std::string kind;
    std::string payload;
};

/**
 * Serialize header + payload. @p frame.kind must be non-empty and contain
 * no whitespace (it is a token in the header line); throws otherwise.
 */
std::string encode_frame(const CheckpointFrame& frame);

/**
 * Parse and verify one frame. Returns nullopt on any defect and, when
 * @p reason is non-null, stores why ("bad magic", "version skew: ...",
 * "truncated payload: ...", "checksum mismatch: ...").
 */
std::optional<CheckpointFrame> decode_frame(const std::string& data,
                                            std::string* reason = nullptr);

/**
 * Crash-safe replacement of @p path with @p contents: write "<path>.tmp",
 * fsync, rename over @p path, fsync the containing directory.
 * @throws std::runtime_error naming the path on any I/O failure.
 */
void atomic_write_file(const std::string& path, const std::string& contents);

/**
 * Whole-file read; nullopt when the file cannot be opened (missing or
 * unreadable — for checkpoint scans both mean "not a usable generation").
 * @throws std::runtime_error naming the path when a read fails mid-file.
 */
std::optional<std::string> read_file_if_exists(const std::string& path);

/// "0x" + 16 lowercase hex digits of the IEEE-754 bit pattern. Round-trips
/// every double bit-exactly, including ±inf, NaN payloads, and -0.0.
std::string double_to_hex(double value);

/// Inverse of double_to_hex(). @throws std::runtime_error naming
/// @p context on malformed input.
double double_from_hex(const std::string& text, const std::string& context);

/// "0x" + 16 lowercase hex digits.
std::string u64_to_hex(std::uint64_t value);

/**
 * Strict full-consumption unsigned parse: base 10, or 16 with a 0x/0X
 * prefix, optional surrounding ASCII whitespace, nothing else. @throws
 * std::runtime_error naming @p context (a JSON field or parameter path)
 * on empty input, trailing garbage, or overflow — so a malformed "seed"
 * in a spec reads as an error about that field, not a bare
 * std::invalid_argument from the bowels of the parser.
 */
std::uint64_t parse_u64(const std::string& text, const std::string& context);

/**
 * Strict unsigned integer field of a spec object: @p fallback when @p key
 * is absent, else a JSON number that is a whole value in [0, 2^64), or a
 * string parse_u64() accepts (the hex form keeps seeds exact above 2^53).
 * @throws std::runtime_error naming "<context> field '<key>'" on anything
 * else — a negative, fractional or too-large count never reaches a cast.
 */
std::uint64_t u64_field(const Json& obj, const std::string& key,
                        std::uint64_t fallback, const std::string& context);

/**
 * The JSON form u64_field() reads back exactly: a number below 2^53
 * (every such integer is an exact double), the u64_to_hex() string at or
 * above it.
 */
Json u64_json(std::uint64_t value);

/// u64_field() for a count or size.
inline std::size_t size_field(const Json& obj, const std::string& key,
                              std::size_t fallback, const std::string& context) {
    return static_cast<std::size_t>(u64_field(obj, key, fallback, context));
}

} // namespace lognic::io

#endif // LOGNIC_IO_CHECKPOINT_HPP_
