/**
 * @file
 * Minimal JSON support for the experiment runner's JSON Lines files.
 * Emission: string escaping and round-trippable, locale-independent
 * number formatting. Parsing: a strict recursive-descent parser (no
 * extensions, whole-text single value) used by the result cache and
 * the checkpoint manifests — everything that must re-read what the
 * sink wrote. No DOM beyond JsonValue.
 */

#ifndef DBSIM_EXP_JSON_HH
#define DBSIM_EXP_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dbsim::exp {

/** `s` with JSON string escapes applied (no surrounding quotes). */
std::string jsonEscape(const std::string &s);

/** `"s"` quoted and escaped. */
std::string jsonString(const std::string &s);

/**
 * Shortest decimal that round-trips the double (std::to_chars, so the
 * output never honors LC_NUMERIC — "0.25" under every locale).
 * Non-finite values become null, which JSON has no number for.
 */
std::string jsonNumber(double v);

/** Decimal form of an unsigned integer. */
std::string jsonNumber(std::uint64_t v);

/**
 * One parsed JSON value. Numbers keep their raw literal (in `text`)
 * alongside the double, so 64-bit stat counters survive re-reading
 * with full fidelity (a double only holds integers up to 2^53).
 */
struct JsonValue
{
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Kind kind = Kind::Null;
    bool boolean = false;

    /** Numeric value (Kind::Number). */
    double number = 0.0;

    /** String: decoded contents. Number: the raw literal. */
    std::string text;

    /** Object members, in file order. */
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Array elements. */
    std::vector<JsonValue> elements;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }

    /** First member named `key`, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /**
     * The raw literal re-parsed as an exact unsigned 64-bit integer.
     * False when the value is not a number, not integral, or out of
     * range.
     */
    bool asU64(std::uint64_t &out) const;
};

/**
 * Parse `text` as exactly one JSON value (leading/trailing whitespace
 * allowed, nothing else). Strict: no comments, no trailing commas, no
 * bare NaN/Infinity, nesting capped at 64 levels. On failure returns
 * false and, when `error` is given, a one-line reason.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

} // namespace dbsim::exp

#endif // DBSIM_EXP_JSON_HH
