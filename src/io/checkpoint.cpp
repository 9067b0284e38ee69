#include "lognic/io/checkpoint.hpp"

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace lognic::io {
namespace {

std::string hex16(std::uint64_t value) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
    throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

/// Directory part of @p path ("." when there is none) for the
/// post-rename directory fsync.
std::string dir_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos) return ".";
    if (slash == 0) return "/";
    return path.substr(0, slash);
}

} // namespace

std::uint64_t fnv1a64(std::string_view data, std::uint64_t h) {
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string encode_frame(const CheckpointFrame& frame) {
    if (frame.kind.empty())
        throw std::runtime_error("checkpoint frame kind must be non-empty");
    for (const char c : frame.kind)
        if (std::isspace(static_cast<unsigned char>(c)))
            throw std::runtime_error("checkpoint frame kind '" + frame.kind +
                                     "' must not contain whitespace");
    std::string out = "LOGNICCKPT ";
    out += std::to_string(frame.version);
    out += ' ';
    out += frame.kind;
    out += ' ';
    out += std::to_string(frame.payload.size());
    out += ' ';
    out += hex16(fnv1a64(frame.payload));
    out += '\n';
    out += frame.payload;
    return out;
}

std::optional<CheckpointFrame> decode_frame(const std::string& data,
                                            std::string* reason) {
    const auto fail = [reason](std::string why) -> std::optional<CheckpointFrame> {
        if (reason != nullptr) *reason = std::move(why);
        return std::nullopt;
    };

    const std::size_t nl = data.find('\n');
    if (nl == std::string::npos) return fail("truncated header: no newline");
    const std::string header = data.substr(0, nl);

    // Tokenize the header line: magic, version, kind, size, checksum.
    std::string tokens[5];
    std::size_t ntok = 0;
    std::size_t pos = 0;
    while (pos < header.size() && ntok < 5) {
        const std::size_t sp = header.find(' ', pos);
        const std::size_t end = (sp == std::string::npos) ? header.size() : sp;
        tokens[ntok++] = header.substr(pos, end - pos);
        pos = (sp == std::string::npos) ? header.size() : sp + 1;
    }
    if (ntok != 5 || pos != header.size())
        return fail("malformed header: expected 5 fields");
    if (tokens[0] != "LOGNICCKPT") return fail("bad magic");

    CheckpointFrame frame;
    std::uint64_t version = 0;
    std::uint64_t declared_size = 0;
    std::uint64_t declared_sum = 0;
    try {
        version = parse_u64(tokens[1], "checkpoint header version");
        declared_size = parse_u64(tokens[3], "checkpoint header payload size");
        declared_sum = parse_u64(tokens[4], "checkpoint header checksum");
    } catch (const std::exception& e) {
        return fail(std::string("malformed header: ") + e.what());
    }
    if (version != kCheckpointVersion)
        return fail("version skew: frame version " + tokens[1] +
                    ", reader supports " + std::to_string(kCheckpointVersion));
    frame.version = static_cast<std::uint32_t>(version);
    frame.kind = tokens[2];
    if (frame.kind.empty()) return fail("malformed header: empty kind");

    const std::size_t have = data.size() - (nl + 1);
    if (have != declared_size)
        return fail("truncated payload: header declares " + tokens[3] +
                    " bytes, file has " + std::to_string(have));
    frame.payload = data.substr(nl + 1);

    const std::uint64_t actual = fnv1a64(frame.payload);
    if (actual != declared_sum)
        return fail("checksum mismatch: header declares " + tokens[4] +
                    ", payload hashes to " + hex16(actual));
    return frame;
}

void atomic_write_file(const std::string& path, const std::string& contents) {
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw_errno("cannot create", tmp);

    std::size_t written = 0;
    while (written < contents.size()) {
        const ssize_t n =
            ::write(fd, contents.data() + written, contents.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            throw_errno("cannot write", tmp);
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw_errno("cannot fsync", tmp);
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw_errno("cannot close", tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        throw_errno("cannot rename into place", path);
    }
    // Persist the rename itself: without the directory fsync a crash can
    // roll the directory entry back even though the data blocks are safe.
    const std::string dir = dir_of(path);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd); // best-effort: some filesystems reject directory fsync
        ::close(dfd);
    }
}

std::optional<std::string> read_file_if_exists(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return std::nullopt;
    std::string out;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            throw_errno("cannot read", path);
        }
        if (n == 0) break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

std::string double_to_hex(double value) {
    return hex16(std::bit_cast<std::uint64_t>(value));
}

double double_from_hex(const std::string& text, const std::string& context) {
    return std::bit_cast<double>(parse_u64(text, context));
}

std::string u64_to_hex(std::uint64_t value) { return hex16(value); }

std::uint64_t parse_u64(const std::string& text, const std::string& context) {
    const auto bad = [&](const std::string& why) -> std::runtime_error {
        return std::runtime_error("invalid unsigned integer for " + context +
                                  ": '" + text + "' (" + why + ")");
    };
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    if (begin == end) throw bad("empty");
    const std::string body = text.substr(begin, end - begin);
    if (body[0] == '-') throw bad("negative");
    // Hand-rolled hex/decimal accumulation: unlike stoull(base 0) this
    // rejects '+' signs and never reinterprets leading zeros as octal, and
    // every failure is rejected by name through @p context.
    std::size_t pos = 0;
    std::uint64_t base = 10;
    if (body.size() > 2 && body[0] == '0' &&
        (body[1] == 'x' || body[1] == 'X')) {
        base = 16;
        pos = 2;
    }
    if (pos == body.size()) throw bad("not a number");
    std::uint64_t value = 0;
    for (; pos < body.size(); ++pos) {
        const char c = body[pos];
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = static_cast<std::uint64_t>(c - 'A') + 10;
        else if (pos == 0 || (base == 16 && pos == 2))
            throw bad("not a number");
        else
            throw bad("trailing garbage");
        if (value > (UINT64_MAX - digit) / base) throw bad("out of range");
        value = value * base + digit;
    }
    return value;
}

Json u64_json(std::uint64_t value) {
    if (value >= (std::uint64_t{1} << 53)) return Json(u64_to_hex(value));
    return Json(static_cast<double>(value));
}

std::uint64_t u64_field(const Json& obj, const std::string& key,
                        std::uint64_t fallback, const std::string& context) {
    if (!obj.contains(key)) return fallback;
    const std::string field = context + " field '" + key + "'";
    const Json& v = obj.at(key);
    if (v.is_string()) return parse_u64(v.as_string(), field);
    if (!v.is_number())
        throw std::runtime_error(field + " must be a number or a string");
    // 2^64 itself is a double; every double below it converts exactly.
    const double n = v.as_number();
    if (!(n >= 0.0) || n != std::floor(n) || n >= 0x1p64)
        throw std::runtime_error(field + " must be an integer in [0, 2^64)");
    return static_cast<std::uint64_t>(n);
}

} // namespace lognic::io
