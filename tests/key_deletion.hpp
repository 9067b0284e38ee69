/**
 * @file
 * Key-coverage helper for strict JSON readers: every way to drop one
 * field from a pinned document, so a test can require that loading each
 * variant fails with an error naming the dropped key.
 */
#ifndef LOGNIC_TESTS_KEY_DELETION_HPP_
#define LOGNIC_TESTS_KEY_DELETION_HPP_

#include <functional>
#include <set>
#include <string>

#include "lognic/io/json.hpp"

namespace lognic::test {

using DeletionFn =
    std::function<void(const io::Json& doc, const std::string& key)>;

/**
 * Calls @p emit(document, key) for every copy of @p doc with one object
 * key removed. Array elements share one field list, so each key path
 * (indices ignored) is removed once, from the first element that has it.
 * @p maps names members whose children are map entries, not fields: their
 * entries are never removed, though the entries' own fields are.
 */
inline void
each_key_deletion(const io::Json& doc, const std::set<std::string>& maps,
                  const DeletionFn& emit)
{
    std::set<std::string> seen;
    std::function<void(const io::Json&, const std::string&, bool,
                       const DeletionFn&)>
        walk = [&](const io::Json& j, const std::string& path, bool is_map,
                   const DeletionFn& rebuild) {
            if (j.is_array()) {
                for (std::size_t i = 0; i < j.as_array().size(); ++i)
                    walk(j.as_array()[i], path + "[]", false,
                         [&, i](const io::Json& sub, const std::string& key) {
                             io::JsonArray copy = j.as_array();
                             copy[i] = sub;
                             rebuild(io::Json(std::move(copy)), key);
                         });
                return;
            }
            if (!j.is_object())
                return;
            for (const auto& [key, value] : j.as_object()) {
                if (!is_map && seen.insert(path + "." + key).second) {
                    io::JsonObject copy = j.as_object();
                    copy.erase(key);
                    rebuild(io::Json(std::move(copy)), key);
                }
                walk(value, path + "." + (is_map ? "*" : key),
                     !is_map && maps.count(key) != 0,
                     [&, k = key](const io::Json& sub,
                                  const std::string& removed) {
                         io::JsonObject copy = j.as_object();
                         copy[k] = sub;
                         rebuild(io::Json(std::move(copy)), removed);
                     });
            }
        };
    walk(doc, "", false, emit);
}

/// True when @p error reports @p key as missing.
inline bool
names_missing_key(const std::string& error, const std::string& key)
{
    return error.find(key) != std::string::npos
        && error.find("missing") != std::string::npos;
}

} // namespace lognic::test

#endif // LOGNIC_TESTS_KEY_DELETION_HPP_
