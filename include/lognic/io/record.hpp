/**
 * @file
 * The bit-exact record codec (lognic::io): how every checkpoint payload
 * — journal entries and simulator snapshots — encodes its fields.
 *
 * A persisted type lists its fields once, in one function templated on
 * direction:
 *
 *     constexpr auto link_fields = [](auto& io, auto& link) {
 *         io.field("free_at", link.free_at);
 *         io.field("factor", link.factor);
 *     };
 *
 * write_record() walks the list with a RecordWriter (the value is const)
 * and read_record() with a RecordReader, so every field saved is a field
 * restored. field() encodes doubles and unit wrappers as the hex of their
 * IEEE-754 bits, unsigned integers as hex u64 strings, bool, string and
 * io::Json as themselves, and vectors, fixed arrays and string-keyed maps
 * as arrays and objects of their elements. record()/records() nest a
 * type with its own field list. count() is a plain JSON number, read back
 * as a whole number below a stated limit: snapshot indices are refused by
 * name before anything indexes with them. Hex is what keeps the round
 * trip exact: JSON numbers carry neither non-finite doubles (the writer
 * emits null) nor integers above 2^53.
 *
 * The reader is strict. A missing key, a wrong JSON type, a malformed hex
 * string or an out-of-range count throws std::runtime_error naming the
 * field's path ("snapshot.vertices[2].qi"). A std::span or std::array
 * is a fixed layout (a simulator's vertex table, one id list per queue):
 * the array must match its length and each element is read in place. A
 * vector takes the array's length, whatever it held before.
 * The writer's object is a std::map, so the bytes depend only on the keys
 * and encodings, never on the order fields are listed in.
 */
#ifndef LOGNIC_IO_RECORD_HPP_
#define LOGNIC_IO_RECORD_HPP_

#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "lognic/core/units.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/json.hpp"

namespace lognic::io {

namespace record_detail {

template <class T>
concept Unsigned = std::unsigned_integral<T> && !std::same_as<T, bool>;

/// Seconds, Bytes, Bandwidth, OpsRate: travel as their canonical double.
template <class T>
concept Unit = std::derived_from<T, lognic::detail::UnitBase<T>>;

/// Vectors and fixed arrays (JSON arrays), string-keyed maps (objects).
template <class C>
concept Container = std::ranges::range<C> && !std::same_as<C, std::string>;

template <class C>
concept Keyed = requires { typename C::mapped_type; };

} // namespace record_detail

/// Walks a field list saving: each field becomes one key of an object.
class RecordWriter {
public:
    static constexpr bool kReading = false;

    template <class T>
    void field(const char* key, const T& value)
    {
        obj_[key] = encode(value);
    }

    /// Written like field(); a reader leaves the value as it is when the
    /// key is absent (a field older documents predate).
    template <class T>
    void optional(const char* key, const T& value)
    {
        field(key, value);
    }

    /// A readable copy of a value stored exactly under another key: a
    /// plain JSON number (null when non-finite), which readers skip.
    void display(const char* key, double value) { obj_[key] = Json(value); }

    template <class T>
    void count(const char* key, const T& value, std::uint64_t /*limit*/)
    {
        obj_[key] = Json(static_cast<double>(value));
    }

    template <class T, class Fields>
    void record(const char* key, const T& value, const Fields& fields)
    {
        obj_[key] = nested(value, fields);
    }

    template <record_detail::Container C, class Fields>
    void records(const char* key, const C& values, const Fields& fields)
    {
        obj_[key] = each(values, [&](const auto& v) {
            return nested(v, fields);
        });
    }

    Json take() { return Json(std::move(obj_)); }

    /// The field encoding of one value (a journal entry's key).
    static Json encode(double v) { return Json(double_to_hex(v)); }
    template <record_detail::Unsigned T>
    static Json encode(T v)
    {
        return Json(u64_to_hex(v));
    }
    static Json encode(bool v) { return Json(v); }
    static Json encode(const std::string& v) { return Json(v); }
    static Json encode(const Json& v) { return v; }
    template <record_detail::Unit T>
    static Json encode(const T& v)
    {
        return encode(v.value());
    }
    template <record_detail::Container C>
    static Json encode(const C& values)
    {
        return each(values, [](const auto& v) { return encode(v); });
    }

private:
    template <class T, class Fields>
    static Json nested(const T& value, const Fields& fields)
    {
        RecordWriter sub;
        fields(sub, value);
        return sub.take();
    }

    /// An array (or, for a map, an object) of @p f of each element.
    template <class C, class F>
    static Json each(const C& values, F f)
    {
        if constexpr (record_detail::Keyed<C>) {
            JsonObject obj;
            for (const auto& [entry, v] : values)
                obj.emplace(entry, f(v));
            return Json(std::move(obj));
        } else {
            JsonArray arr;
            for (const auto& v : values)
                arr.push_back(f(v));
            return Json(std::move(arr));
        }
    }

    JsonObject obj_;
};

/// Walks a field list loading, strictly: see the file comment.
class RecordReader {
public:
    static constexpr bool kReading = true;

    /// @p path names the record in errors ("snapshot", "journal").
    RecordReader(const Json& j, std::string path)
        : path_(std::move(path)), obj_(object_of(j, path_))
    {
    }

    template <class T>
    void field(const char* key, T& value)
    {
        decode(at(key), value, name(key));
    }

    /// A fixed layout over storage the caller owns.
    template <class T>
    void field(const char* key, std::span<T> values)
    {
        decode(at(key), values, name(key));
    }

    template <class T>
    void optional(const char* key, T& value)
    {
        if (obj_.count(key) != 0)
            field(key, value);
    }

    void display(const char*, double) {}

    /// @p value becomes a whole number in [0, @p limit).
    template <class T>
    void count(const char* key, T& value, std::uint64_t limit)
    {
        const Json& j = at(key);
        const double n = j.is_number() ? j.as_number() : -1.0;
        if (!(n >= 0.0) || n != std::floor(n)
            || !(n < static_cast<double>(limit)))
            throw std::runtime_error(name(key)
                                     + " must be a whole number below "
                                     + std::to_string(limit) + ", got "
                                     + j.dump(-1));
        value = static_cast<T>(n);
    }

    template <class T, class Fields>
    void record(const char* key, T& value, const Fields& fields)
    {
        RecordReader sub(at(key), name(key));
        fields(sub, value);
    }

    template <record_detail::Container C, class Fields>
    void records(const char* key, C& values, const Fields& fields)
    {
        read_records(key, values, fields);
    }

    /// A fixed layout over storage the caller owns.
    template <class T, class Fields>
    void records(const char* key, std::span<T> values, const Fields& fields)
    {
        read_records(key, values, fields);
    }

private:
    template <class C, class Fields>
    void read_records(const char* key, C& values, const Fields& fields)
    {
        each(at(key), values, name(key),
             [&](const Json& j, auto& v, const std::string& path,
                 std::size_t index) {
                 RecordReader sub(j, index == kEntry ? path
                                      : path + "["
                                            + std::to_string(index) + "]");
                 fields(sub, v);
             });
    }

    std::string name(const char* key) const { return path_ + "." + key; }

    const Json& at(const char* key) const
    {
        const auto it = obj_.find(key);
        if (it == obj_.end())
            throw std::runtime_error(name(key) + " is missing");
        return it->second;
    }

    /// Index passed for a map entry, whose path already names it.
    static constexpr std::size_t kEntry = static_cast<std::size_t>(-1);

    /// @p f(element JSON, element, path, index) for every element of
    /// @p values, under the fixed-layout rule of the file comment. Array
    /// elements get the array's path and their index, so a long array of
    /// scalars builds no per-element path.
    template <class C, class F>
    static void each(const Json& j, C& values, const std::string& path, F f)
    {
        if constexpr (record_detail::Keyed<C>) {
            values.clear();
            for (const auto& [entry, e] : object_of(j, path))
                f(e, values[entry], path + " '" + entry + "'", kEntry);
        } else {
            if (!j.is_array())
                throw std::runtime_error(path + " must be an array");
            const JsonArray& arr = j.as_array();
            if constexpr (requires { values.resize(arr.size()); })
                values.resize(arr.size());
            else if (std::size(values) != arr.size())
                throw std::runtime_error(
                    path + " must hold " + std::to_string(std::size(values))
                    + " elements");
            for (std::size_t i = 0; i < arr.size(); ++i)
                f(arr[i], values[i], path, i);
        }
    }

    static const JsonObject& object_of(const Json& j, const std::string& path)
    {
        if (!j.is_object())
            throw std::runtime_error(path + " must be an object");
        return j.as_object();
    }

    static const std::string& text_of(const Json& j, const std::string& path)
    {
        if (!j.is_string())
            throw std::runtime_error(path + " must be a string");
        return j.as_string();
    }

    static void decode(const Json& j, double& v, const std::string& path)
    {
        v = double_from_hex(text_of(j, path), path);
    }
    template <record_detail::Unsigned T>
    static void decode(const Json& j, T& v, const std::string& path)
    {
        const std::uint64_t u = parse_u64(text_of(j, path), path);
        if (u > std::numeric_limits<T>::max())
            throw std::runtime_error(path + " is out of range");
        v = static_cast<T>(u);
    }
    static void decode(const Json& j, bool& v, const std::string& path)
    {
        if (!j.is_bool())
            throw std::runtime_error(path + " must be a boolean");
        v = j.as_bool();
    }
    static void decode(const Json& j, std::string& v, const std::string& path)
    {
        v = text_of(j, path);
    }
    static void decode(const Json& j, Json& v, const std::string&) { v = j; }
    template <record_detail::Unit T>
    static void decode(const Json& j, T& v, const std::string& path)
    {
        decode(j, v.v, path);
    }
    template <record_detail::Container C>
    static void decode(const Json& j, C& values, const std::string& path)
    {
        each(j, values, path,
             [](const Json& e, auto& v, const std::string& p, std::size_t) {
                 decode(e, v, p);
             });
    }

    std::string path_;
    const JsonObject& obj_;
};

/// @p value as a JSON object, through its field list @p fields.
template <class T, class Fields>
Json
write_record(const T& value, const Fields& fields)
{
    RecordWriter w;
    fields(w, value);
    return w.take();
}

/// A T read from @p j through @p fields; errors start with @p path.
template <class T, class Fields>
T
read_record(const Json& j, const Fields& fields, std::string path)
{
    T value{};
    RecordReader r(j, std::move(path));
    fields(r, value);
    return value;
}

} // namespace lognic::io

#endif // LOGNIC_IO_RECORD_HPP_
